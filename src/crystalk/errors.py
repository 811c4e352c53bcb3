"""Exception types shared across the package.

Each type carries the CLI's exit code and the label that prefixes its
one-line message, so ``cli.main`` needs one handler for all of them.
"""

from __future__ import annotations


class CrystalkError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2
    label = "input error"


class InputError(CrystalkError, ValueError):
    """The input from outside the program is malformed or over a bound."""


class OutputError(CrystalkError):
    """Standard output cannot be written, a full device say."""

    label = "output error"


class NotSquareError(InputError):
    """Raised when a square matrix is required but not supplied."""


class NotInvolutionError(CrystalkError, ValueError):
    """Raised when A*A != I.  Carries the first offending entry."""

    exit_code = 3
    label = "error"

    def __init__(self, row: int, col: int, value: int, expected: int):
        self.row = row
        self.col = col
        self.value = value
        self.expected = expected
        super().__init__(
            f"matrix is not an involution: (A*A)[{row}][{col}] = {value}, "
            f"expected {expected}"
        )


class ScopeError(CrystalkError, ValueError):
    """Requested a pipeline outside its validated scope."""

    exit_code = 5
    label = "error"


class DimensionTooLargeError(InputError):
    """Exterior-algebra verifier bound exceeded."""


class GridTooLargeError(InputError):
    """Torus grid enumeration bound exceeded."""


class InternalInvariantError(CrystalkError, RuntimeError):
    """A cross-check that should never fail did fail."""

    exit_code = 4
    label = "internal invariant violation"


class TableIntegrityError(InternalInvariantError):
    """The frozen module-arithmetic table file failed its checksum."""
