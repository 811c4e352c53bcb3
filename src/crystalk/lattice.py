"""Structure theory of integer involution lattices.

An involution A on Z^n decomposes the lattice into trivial summands Z
(A acts as +1), sign summands Z (A acts as -1), and regular summands
Z^2 carried by the coordinate swap.  This module validates involutions,
computes the multiplicities (a, b, c) of those three summands from the
trace and one rank over F_2, sorts actions into four classes, and
produces an explicit unimodular change of basis U to the canonical
block-diagonal form T from two Smith forms, certified by A·U = U·T and
|det U| = 1 with no inverse computed.  A lattice reads its matrix once,
as its nonzeros, for both the exact A·A = I check and the F_2 rank.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

from ._frozen import Frozen
from .errors import InternalInvariantError, NotInvolutionError, NotSquareError
from .intlin import (
    IntMatrix,
    Nonzeros,
    _gf2_basis,
    _odd_masks,
    first_row_off_identity_square,
    nonzeros,
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


class InvolutiveLattice(Frozen):
    """Z^n together with a validated order-2 integer matrix action."""

    __slots__ = ("n", "matrix", "_nonzeros", "_analysis")
    _fields = ("n", "matrix")  # the nonzeros and cached analysis stay out of ==, hash, repr

    def __init__(self, n: int, matrix: IntMatrix) -> None:
        self._set(n, matrix, nonzeros(matrix), None)

    @property
    def analysis(self) -> LatticeAnalysis:
        """Structure of the action, computed once per lattice."""
        if self._analysis is None:
            object.__setattr__(self, "_analysis", _analyse(self.matrix, self._nonzeros))
        return self._analysis


class StructureInvariants(NamedTuple):
    """Multiplicities of trivial, sign, and regular summands.

    a + b + 2c equals the ambient rank; a + c is the rank of the fixed
    sublattice.
    """

    a: int
    b: int
    c: int

    @property
    def n(self) -> int:
        """The ambient rank a + b + 2c."""
        return self.a + self.b + 2 * self.c


class ActionClass(enum.Enum):
    TRIVIAL = "Trivial"
    FREE_OUTSIDE_ORIGIN = "FreeOutsideOrigin"
    MIXED_SPLIT = "MixedSplit"
    MIXED_NONSPLIT = "MixedNonSplit"


class LatticeAnalysis(NamedTuple):
    """Structure of the lattice, read off the trace of A and the rank of A - I over F_2.

    (a, b, c) fix the lattice up to isomorphism (Reiner 1957); the
    fixed subtorus has dimension a + c and 2^b components.
    """

    invariants: StructureInvariants
    action_class: ActionClass
    fixed_dim: int
    fixed_components: int

    @classmethod
    def from_invariants(cls, inv: StructureInvariants) -> LatticeAnalysis:
        """The class, fixed dimension a + c and 2^b components that (a, b, c) determine."""
        if inv.c:
            action = ActionClass.MIXED_NONSPLIT
        elif not inv.b:
            action = ActionClass.TRIVIAL
        elif not inv.a:
            action = ActionClass.FREE_OUTSIDE_ORIGIN
        else:
            action = ActionClass.MIXED_SPLIT
        return cls(inv, action, fixed_dim=inv.a + inv.c, fixed_components=2**inv.b)


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
    lat = InvolutiveLattice(n=a.rows, matrix=a)
    i = first_row_off_identity_square(lat._nonzeros)
    if i is not None:
        row = a.entries[i * a.cols : (i + 1) * a.cols]
        for j in range(a.cols):
            expected = int(i == j)
            got = sum(map(operator.mul, row, a.column(j)))
            if got != expected:
                raise NotInvolutionError(i, j, got, expected)
        raise InternalInvariantError(f"row {i} of A*A is off the identity yet every entry matches")
    return lat


def invariants(lat: InvolutiveLattice) -> StructureInvariants:
    """Summand multiplicities (a, b, c); see :class:`LatticeAnalysis`."""
    return lat.analysis.invariants


def classify(lat: InvolutiveLattice) -> ActionClass:
    """Class of the action, determined by (a, b, c)."""
    return lat.analysis.action_class


def _analyse(a_mat: IntMatrix, nz: Nonzeros) -> LatticeAnalysis:
    """Analysis of a validated involution from its trace and one rank over F_2.

    Precondition: A·A = I exactly, and nz holds the nonzeros of A.
    This function is reached only through
    :attr:`InvolutiveLattice.analysis`, and :func:`validate_involution`,
    the only constructor of a lattice, has checked A·A = I on that nz.

    Write p = (n + tr A)/2 and r2 = rank_F2(A - I).  Given A·A = I:

    * Over Q, A·A = I splits Q^n into the +1 and -1 eigenspaces of A, so
      A is diagonalizable with tr A = p - (n - p), and p is the
      dimension of the +1 eigenspace, the rank of ker(A - I).  On the
      canonical form Triv and Reg each add one fixed direction and Sign
      none, so p = a + c.
    * coker(A - I) has torsion killed by 2: if kx = (A - I)z then
      (A + I)x = 0, so 2x = -(A - I)x.  Its invariant factors thus lie
      in {0, 1, 2}, and the number of units among them is r2.  On the
      canonical form, Triv gives 0, Sign gives 2 and Reg gives 1 and 0,
      so c = r2 and b is the number of factors 2.

    Hence c = r2, a = p - c, b = n - p - c, the fixed subtorus has
    dimension p = a + c, and its components are the 2^b elements of the
    torsion of coker(A - I).  The trace guard cannot fire after an exact
    A·A = I; it is kept as an internal invariant.
    """
    n = a_mat.rows
    trace = sum(a_mat.entries[:: n + 1])
    p, odd = divmod(n + trace, 2)
    if odd or not 0 <= p <= n:
        raise InternalInvariantError(f"trace {trace} is not that of an involution on Z^{n}")
    c = len(_gf2_basis(map(operator.xor, _odd_masks(nz), [1 << i for i in range(n)])))
    analysis = LatticeAnalysis.from_invariants(StructureInvariants(a=p - c, b=n - p - c, c=c))
    if analysis.action_class is ActionClass.FREE_OUTSIDE_ORIGIN:
        minus_identity = tuple(-1 if i == j else 0 for i in range(n) for j in range(n))
        if a_mat.entries != minus_identity:
            raise InternalInvariantError("sign-only invariants but A != -I")
    return analysis


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

    Construction, from two Smith forms and no inverse solver:

    * The Smith form of A - I.  Its right transform V is unimodular and
      its last r = a + c columns span the fixed sublattice ker(A - I),
      so V with those columns moved first is a basis W of Z^n, and
      V_inv with the same rows moved first is W^-1.  In that basis A
      takes the shape [[I, B], [0, -I]], because the quotient lattice
      carries a fixed-point-free involution, which for order 2 forces -I.
      That shape is not checked on its own: the certificate below
      covers it.
    * The Smith form U' B^T V' = D' of the transposed coupling block,
      so that V'^T B U'^T = D'^T.  With X = (V'_inv)^T, the change of
      basis [[X, XQ], [0, U'^T]] turns B into D'^T + 2Q, and the even
      shift Q makes that a 0/1 block whose mod-2 rank is the regular
      multiplicity c.
    * Each surviving 1 pairs a fixed vector with a sign vector into one
      swap block.

    The result is certified by A U = U T, for T the canonical form, and
    |det U| = 1: together they say U is unimodular with U^-1 A U = T,
    and no inverse is formed.  An input already in canonical form
    returns the identity without a Smith form.

    Returns (U, blocks) with blocks ordered Triv, then Sign, then Reg.
    """
    inv = lat.analysis.invariants
    a, b, c = inv.a, inv.b, inv.c
    n = lat.n
    blocks = (Block.TRIV,) * a + (Block.SIGN,) * b + (Block.REG,) * c
    target = canonical_matrix(a, b, c)
    if lat.matrix == target:
        return IntMatrix.identity(n), blocks
    # A = I and A = -I are canonical, so here both r and m are positive
    r = a + c
    m = n - r

    snf = smith_normal_form(lat.matrix - IntMatrix.identity(n))
    # move the kernel columns V[:, m:] first, and the matching rows of V_inv
    w = IntMatrix.from_rows([row[m:] + row[:m] for row in snf.V.to_rows()])
    v_inv = snf.V_inv.to_rows()
    w_inv = IntMatrix.from_rows(v_inv[m:] + v_inv[:m])
    a1 = w_inv @ lat.matrix @ w

    coupling = IntMatrix.from_rows([row[r:] for row in a1.to_rows()[:r]])
    bsnf = smith_normal_form(coupling.transpose())
    # shift every divisor to 0 or 1 by an even amount; Q is diagonal, so
    # column j of X Q is column j of X times q_j
    q = [(d % 2 - d) // 2 for d in bsnf.divisors]
    pad = [0] * (m - len(q))
    w2 = IntMatrix.from_rows(
        [row + [x * s for x, s in zip(row, q)] + pad for row in bsnf.V_inv.transpose().to_rows()]
        + [[0] * r + row for row in bsnf.U.transpose().to_rows()]
    )

    # pair coordinate i with coordinate r+i for each unit in the coupling
    # block: each column of U is a column of W W2 or the difference of two
    p = (w @ w2).transpose().to_rows()
    u_cols = p[c:r] + p[r + c :]
    for i in range(c):
        u_cols += [p[r + i], [x - y for x, y in zip(p[i], p[r + i])]]
    # U T keeps the first a columns of U, negates the next b and swaps each pair
    ut_cols = u_cols[:a] + [[-x for x in col] for col in u_cols[a : a + b]]
    for k in range(a + b, n, 2):
        ut_cols += [u_cols[k + 1], u_cols[k]]

    u = IntMatrix.from_rows(u_cols).transpose()
    if lat.matrix @ u != IntMatrix.from_rows(ut_cols).transpose() or abs(u.det()) != 1:
        raise InternalInvariantError("decomposition does not reach the canonical form")
    return u, blocks
