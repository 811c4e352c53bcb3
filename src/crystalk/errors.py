"""Exception types shared across the package."""

from __future__ import annotations


class CrystalkError(Exception):
    """Base class for all package-specific errors."""


class NotSquareError(CrystalkError, ValueError):
    """Raised when a square matrix is required but not supplied."""


class NotInvolutionError(CrystalkError, ValueError):
    """Raised when A*A != I.  Carries the first offending entry."""

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


class DimensionTooLargeError(CrystalkError, ValueError):
    """Exterior-algebra verifier bound exceeded."""


class GridTooLargeError(CrystalkError, ValueError):
    """Torus grid enumeration bound exceeded."""


class InternalInvariantError(CrystalkError, RuntimeError):
    """A cross-check that should never fail did fail."""


class TableIntegrityError(InternalInvariantError):
    """The frozen module-arithmetic table file failed its checksum."""
