"""Structure theory of integer involution lattices.

An involution A on Z^n decomposes the lattice into trivial summands Z
(A acts as +1), sign summands Z (A acts as -1), and regular summands
Z^2 carried by the coordinate swap.  This module validates involutions,
computes the multiplicities (a, b, c) of those three summands, sorts
actions into four classes, and produces an explicit unimodular change
of basis to the canonical block-diagonal form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from .errors import InternalInvariantError, NotInvolutionError, NotSquareError
from .intlin import (
    IntMatrix,
    express_in_basis,
    inv_unimodular,
    kernel_basis,
    smith_normal_form,
)

__all__ = [
    "InvolutiveLattice",
    "StructureInvariants",
    "ActionClass",
    "LatticeAnalysis",
    "validate_involution",
    "invariants",
    "classify",
    "decompose",
    "canonical_matrix",
    "Block",
]


@dataclass(frozen=True)
class InvolutiveLattice:
    """Z^n together with a validated order-2 integer matrix action."""

    n: int
    matrix: IntMatrix

    @cached_property
    def analysis(self) -> LatticeAnalysis:
        """Structure of the action, computed once per lattice."""
        return _analyse(self.matrix)


@dataclass(frozen=True)
class StructureInvariants:
    """Multiplicities of trivial, sign, and regular summands.

    a + b + 2c equals the ambient rank; a + c is the rank of the fixed
    sublattice.
    """

    a: int
    b: int
    c: int

    @property
    def fixed_rank(self) -> int:
        return self.a + self.c

    def as_dict(self) -> dict[str, int]:
        return {"a": self.a, "b": self.b, "c": self.c}


class ActionClass(enum.Enum):
    TRIVIAL = "Trivial"
    FREE_OUTSIDE_ORIGIN = "FreeOutsideOrigin"
    MIXED_SPLIT = "MixedSplit"
    MIXED_NONSPLIT = "MixedNonSplit"


@dataclass(frozen=True)
class LatticeAnalysis:
    """Everything the Smith forms of A - I and A + I say about the lattice.

    (a, b, c) fix the lattice up to isomorphism (Reiner 1957); the
    fixed subtorus has dimension a + c and 2^b components.
    """

    invariants: StructureInvariants
    action_class: ActionClass
    fixed_dim: int
    fixed_components: int


class Block(enum.Enum):
    TRIV = "Triv"
    SIGN = "Sign"
    REG = "Reg"


def validate_involution(a: IntMatrix) -> InvolutiveLattice:
    """Check A is square with A*A = I and wrap it.

    Raises NotSquareError or NotInvolutionError (naming the first
    offending entry of A*A).
    """
    if not a.is_square or a.rows == 0:
        raise NotSquareError(f"need a square matrix of positive size, got {a.rows}x{a.cols}")
    square = a @ a
    n = a.rows
    for i in range(n):
        for j in range(n):
            expected = 1 if i == j else 0
            got = square.entry(i, j)
            if got != expected:
                raise NotInvolutionError(i, j, got, expected)
    return InvolutiveLattice(n=n, matrix=a)


def invariants(lat: InvolutiveLattice) -> StructureInvariants:
    """Summand multiplicities (a, b, c); see :class:`LatticeAnalysis`."""
    return lat.analysis.invariants


def classify(lat: InvolutiveLattice) -> ActionClass:
    """Class of the action, determined by (a, b, c)."""
    return lat.analysis.action_class


def _analyse(a_mat: IntMatrix) -> LatticeAnalysis:
    """Analysis of a validated involution from the Smith forms of A - I and A + I.

    The torsion of coker(A - I) is (Z/2)^b and the torsion of
    coker(A + I) is (Z/2)^a; the fixed-sublattice rank is a + c, and
    the torsion order of coker(A - I) counts the fixed components.
    """
    n = a_mat.rows
    ident = IntMatrix.identity(n)
    minus = smith_normal_form(a_mat - ident)
    plus = smith_normal_form(a_mat + ident)
    for d in (*minus.divisors, *plus.divisors):
        if d not in (0, 1, 2):
            raise InternalInvariantError(f"unexpected invariant factor {d} for an involution")
    b = sum(1 for d in minus.divisors if d == 2)
    a = sum(1 for d in plus.divisors if d == 2)
    fixed_dim = sum(1 for d in minus.divisors if d == 0)
    c = fixed_dim - a
    inv = StructureInvariants(a=a, b=b, c=c)
    if inv.a + inv.b + 2 * inv.c != n or c < 0:
        raise InternalInvariantError(f"inconsistent invariants {inv} for n={n}")
    anti_rank = sum(1 for d in plus.divisors if d == 0)
    if anti_rank != b + c:
        raise InternalInvariantError("kernel ranks of A-I and A+I do not complement")
    components = math.prod(d for d in minus.divisors if d >= 2)
    if components != 2**b:
        raise InternalInvariantError(f"component count {components} disagrees with 2^b = {2**b}")
    if fixed_dim != inv.fixed_rank:
        raise InternalInvariantError("fixed dimension disagrees with a + c")

    if c >= 1:
        cls = ActionClass.MIXED_NONSPLIT
    elif a == n:
        cls = ActionClass.TRIVIAL
    elif b == n:
        if a_mat != -ident:
            raise InternalInvariantError("sign-only invariants but A != -I")
        cls = ActionClass.FREE_OUTSIDE_ORIGIN
    else:
        cls = ActionClass.MIXED_SPLIT
    return LatticeAnalysis(inv, cls, fixed_dim, components)


def canonical_matrix(a: int, b: int, c: int) -> IntMatrix:
    """Block-diagonal representative diag(I_a, -I_b, swap, ..., swap)."""
    n = a + b + 2 * c
    rows = [[0] * n for _ in range(n)]
    for i in range(a):
        rows[i][i] = 1
    for i in range(a, a + b):
        rows[i][i] = -1
    for k in range(c):
        i = a + b + 2 * k
        rows[i][i + 1] = 1
        rows[i + 1][i] = 1
    return IntMatrix.from_rows(rows)


def decompose(lat: InvolutiveLattice) -> tuple[IntMatrix, tuple[Block, ...]]:
    """Unimodular U with U^-1 A U in canonical block-diagonal form.

    Construction: extend a primitive basis of the fixed sublattice
    ker(A - I) to a basis of Z^n.  In that basis A takes the shape
    [[I, B], [0, -I]] because the quotient lattice carries a
    fixed-point-free involution, which for order 2 forces -I.  The
    coupling block B can be normalized by unimodular row and column
    operations plus even shifts to a 0/1 block whose mod-2 rank is the
    regular multiplicity c; each surviving 1 pairs a fixed vector with
    a sign vector into one swap block.

    Returns (U, blocks) with blocks ordered Triv, then Sign, then Reg.
    """
    inv = lat.analysis.invariants
    a, b, c = inv.a, inv.b, inv.c
    n = lat.n
    blocks = (Block.TRIV,) * a + (Block.SIGN,) * b + (Block.REG,) * c
    target = canonical_matrix(a, b, c)
    if lat.matrix == target:
        return IntMatrix.identity(n), blocks

    r = a + c
    if r == 0:
        w = IntMatrix.identity(n)
    else:
        kern = kernel_basis(lat.matrix - IntMatrix.identity(n))
        snf = smith_normal_form(kern)
        # first r columns of U^-1 span the fixed sublattice
        w = inv_unimodular(snf.U)
    a1 = inv_unimodular(w) @ lat.matrix @ w
    _check_upper_shape(a1, r, n)

    m = n - r
    if r and m:
        bblock = IntMatrix.from_rows(
            [[a1.entry(i, r + j) for j in range(m)] for i in range(r)]
        )
        bsnf = smith_normal_form(bblock)
        u2_inv = inv_unimodular(bsnf.U)
        # shift every divisor to 0 or 1 by an even amount
        q_rows = [[0] * m for _ in range(r)]
        for i, d in enumerate(bsnf.divisors):
            want = d % 2
            q_rows[i][i] = (want - d) // 2
        w2_rows = [[0] * n for _ in range(n)]
        q_shift = u2_inv @ IntMatrix.from_rows(q_rows)
        for i in range(r):
            for j in range(r):
                w2_rows[i][j] = u2_inv.entry(i, j)
            for j in range(m):
                w2_rows[i][r + j] = q_shift.entry(i, j)
        for i in range(m):
            for j in range(m):
                w2_rows[r + i][r + j] = bsnf.V.entry(i, j)
        w2 = IntMatrix.from_rows(w2_rows)
    else:
        w2 = IntMatrix.identity(n)
    a2 = inv_unimodular(w2) @ a1 @ w2

    # pair coordinate i with coordinate r+i for each unit in the coupling block
    w3_cols: list[list[int]] = []
    for i in range(c, r):
        w3_cols.append(_unit(n, i))
    for j in range(c, m):
        w3_cols.append(_unit(n, r + j))
    for i in range(c):
        first = _unit(n, r + i)
        second = [x - y for x, y in zip(_unit(n, i), _unit(n, r + i))]
        w3_cols.append(first)
        w3_cols.append(second)
    w3 = IntMatrix.from_rows([[col[i] for col in w3_cols] for i in range(n)])

    u = w @ w2 @ w3
    check = inv_unimodular(u) @ lat.matrix @ u
    if check != target:
        raise InternalInvariantError("decomposition does not reach the canonical form")
    return u, blocks


def _unit(n: int, i: int) -> list[int]:
    e = [0] * n
    e[i] = 1
    return e


def _check_upper_shape(a1: IntMatrix, r: int, n: int) -> None:
    for i in range(r):
        for j in range(r):
            if a1.entry(i, j) != (1 if i == j else 0):
                raise InternalInvariantError("fixed block is not the identity")
    for i in range(r, n):
        for j in range(r):
            if a1.entry(i, j) != 0:
                raise InternalInvariantError("lower-left block is not zero")
        for j in range(r, n):
            if a1.entry(i, j) != (-1 if i == j else 0):
                raise InternalInvariantError("complement does not act by -I")
