"""Structure theory of integer involution lattices.

An involution A on Z^n decomposes the lattice into trivial summands Z
(A acts as +1), sign summands Z (A acts as -1), and regular summands
Z^2 carried by the coordinate swap.  This module validates involutions,
computes the multiplicities (a, b, c) of those three summands from
ranks over F_2 and F_3, sorts actions into four classes, and produces
an explicit unimodular change of basis U to the canonical
block-diagonal form T from two Smith forms, certified by A·U = U·T and
|det U| = 1 with no inverse computed.
"""

from __future__ import annotations

import enum
import operator
from typing import NamedTuple

from ._frozen import Frozen
from .errors import InternalInvariantError, NotInvolutionError, NotSquareError
from .intlin import (
    IntMatrix,
    _f3_eigenranks,
    _gf2_basis,
    _residue_masks,
    first_row_off_identity_square,
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

    __slots__ = ("n", "matrix", "_analysis")
    _fields = ("n", "matrix")  # the cached analysis stays out of ==, hash and repr

    def __init__(self, n: int, matrix: IntMatrix) -> None:
        self._set(n, matrix, None)

    @property
    def analysis(self) -> LatticeAnalysis:
        """Structure of the action, computed once per lattice."""
        if self._analysis is None:
            object.__setattr__(self, "_analysis", _analyse(self.matrix))
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
    def fixed_rank(self) -> int:
        return self.a + self.c


class ActionClass(enum.Enum):
    TRIVIAL = "Trivial"
    FREE_OUTSIDE_ORIGIN = "FreeOutsideOrigin"
    MIXED_SPLIT = "MixedSplit"
    MIXED_NONSPLIT = "MixedNonSplit"


class LatticeAnalysis(NamedTuple):
    """Structure of the lattice, read off the ranks of A - I over F_2 and F_3.

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
    rows = a.to_rows()
    i = first_row_off_identity_square(rows)
    if i is not None:
        row = rows[i]
        for j, col in enumerate(zip(*rows)):
            expected = int(i == j)
            got = sum(map(operator.mul, row, col))
            if got != expected:
                raise NotInvolutionError(i, j, got, expected)
        raise InternalInvariantError(f"row {i} of A*A is off the identity yet every entry matches")
    return InvolutiveLattice(n=a.rows, matrix=a)


def invariants(lat: InvolutiveLattice) -> StructureInvariants:
    """Summand multiplicities (a, b, c); see :class:`LatticeAnalysis`."""
    return lat.analysis.invariants


def classify(lat: InvolutiveLattice) -> ActionClass:
    """Class of the action, determined by (a, b, c)."""
    return lat.analysis.action_class


def _analyse(a_mat: IntMatrix) -> LatticeAnalysis:
    """Analysis of a validated involution from ranks over F_2 and F_3.

    Precondition: A·A = I exactly.  This function is reached only
    through :attr:`InvolutiveLattice.analysis`, and
    :func:`validate_involution`, the only constructor of a lattice,
    has checked it.

    Write r2 = rank_F2(A - I) and r3 = rank_F3(A - I).  Given A·A = I:

    * coker(A - I) has torsion killed by 2: if kx = (A - I)z then
      (A + I)x = 0, so 2x = -(A - I)x.  Its invariant factors thus lie
      in {0, 1, 2}, and the number of units among them is r2.  On the
      canonical form, Triv gives 0, Sign gives 2 and Reg gives 1 and 0,
      so c = r2 and b is the number of factors 2.
    * Over F_3, A·A = I splits F_3^n into the +1 and -1 eigenspaces,
      so rank_F3(A - I) + rank_F3(A + I) = n, as over Q.  A rank over
      F_p never exceeds the rank over Q (a minor nonzero mod p is
      nonzero), so both F_3 ranks equal the Q ranks and
      r3 = rank_Q(A - I) = b + c.

    Hence c = r2, b = r3 - r2, a = n - r3 - r2, the fixed subtorus has
    dimension n - r3 = a + c, and its components are the 2^b elements
    of the torsion of coker(A - I).  rank_F3(A + I) is computed as well,
    and the complement identity is checked as a guard.
    """
    n = a_mat.rows
    masks = _residue_masks(a_mat)
    r2 = len(_gf2_basis(odd ^ 1 << i for i, (odd, _, _) in enumerate(masks)))
    r3, _ = _f3_eigenranks([v[1:] for v in masks])
    inv = StructureInvariants(a=n - r3 - r2, b=r3 - r2, c=r2)

    if inv.c >= 1:
        cls = ActionClass.MIXED_NONSPLIT
    elif inv.a == n:
        cls = ActionClass.TRIVIAL
    elif inv.b == n:
        minus_identity = tuple(-1 if i == j else 0 for i in range(n) for j in range(n))
        if a_mat.entries != minus_identity:
            raise InternalInvariantError("sign-only invariants but A != -I")
        cls = ActionClass.FREE_OUTSIDE_ORIGIN
    else:
        cls = ActionClass.MIXED_SPLIT
    return LatticeAnalysis(inv, cls, fixed_dim=n - r3, fixed_components=2**inv.b)


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
    _check_upper_shape(a1, r, n)

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
