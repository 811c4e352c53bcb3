"""Exact integer linear algebra.

Smith normal form with transformation matrices, integer kernels and
cokernels, exterior-power trace polynomials, and seeded unimodular
matrix generation.  Every operation works on arbitrary-precision
Python integers; nothing in this module touches floating point.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import InternalInvariantError

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "CokernelShape",
    "smith_normal_form",
    "kernel_basis",
    "cokernel",
    "express_in_basis",
    "inv_unimodular",
    "exterior_trace_poly",
    "random_unimodular",
]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major storage.

    >>> m = IntMatrix.from_rows([[0, 1], [1, 0]])
    >>> (m @ m) == IntMatrix.identity(2)
    True
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            # operator.index rejects floats while accepting any Integral
            # type, bool included
            if bool in map(type, r):
                bad = next(x for x in r if type(x) is bool)
                raise TypeError(f"matrix entries must be integers, got {bad!r}")
            flat.extend(map(operator.index, r))
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def max_abs(self) -> int:
        return max((abs(x) for x in self.entries), default=0)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            self.rows, self.cols, tuple(x + y for x, y in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            self.rows, self.cols, tuple(x - y for x, y in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-x for x in self.entries))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.to_rows())


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V == D with U, V unimodular and D diagonal.

    The diagonal of D is nonnegative, each entry divides the next,
    and zeros trail.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]


@dataclass(frozen=True)
class CokernelShape:
    """Z^rows / M Z^cols as free rank plus invariant-factor torsion."""

    free_rank: int
    torsion: tuple[int, ...]

    @property
    def torsion_order(self) -> int:
        order = 1
        for t in self.torsion:
            order *= t
        return order


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transformation matrices.

    Pivots are chosen by minimal absolute value (ties broken by scan
    order), which keeps intermediate entries small and makes the output
    deterministic for a fixed input.

    >>> smith_normal_form(IntMatrix.from_rows([[-1, 1], [1, -1]])).divisors
    (1, 0)
    """
    nr, nc = m.rows, m.cols
    d = m.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(nr):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(nc):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def addmul_row(dst: int, src: int, q: int) -> None:
        drow, srow = d[dst], d[src]
        for k in range(nc):
            drow[k] += q * srow[k]
        drow_u, srow_u = u[dst], u[src]
        for k in range(nr):
            drow_u[k] += q * srow_u[k]

    def addmul_col(dst: int, src: int, q: int) -> None:
        for r in range(nr):
            d[r][dst] += q * d[r][src]
        for r in range(nc):
            v[r][dst] += q * v[r][src]

    def negate_row(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def pivot_to(t: int) -> bool:
        """Move the first minimal-absolute-value entry of the trailing
        block to (t, t), scanning row by row; False if the block is zero."""
        best = None
        for i in range(t, nr):
            row = d[i]
            for j in range(t, nc):
                a = row[j]
                if a and (best is None or abs(a) < best[0]):
                    best = (abs(a), i, j)
        if best is None:
            return False
        if best[1] != t:
            swap_rows(t, best[1])
        if best[2] != t:
            swap_cols(t, best[2])
        return True

    k = min(nr, nc)
    t = 0
    while t < k:
        if not pivot_to(t):
            break
        while True:
            p = d[t][t]
            clear = True
            for i in range(t + 1, nr):
                if d[i][t]:
                    q = d[i][t] // p
                    if q:
                        addmul_row(i, t, -q)
                    if d[i][t]:
                        clear = False
            for j in range(t + 1, nc):
                if d[t][j]:
                    q = d[t][j] // p
                    if q:
                        addmul_col(j, t, -q)
                    if d[t][j]:
                        clear = False
            if not clear:
                # a nonzero remainder strictly smaller than the pivot appeared
                pivot_to(t)
                continue
            offender = None
            for i in range(t + 1, nr):
                row = d[i]
                for j in range(t + 1, nc):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        t += 1

    for i in range(k):
        if d[i][i] < 0:
            negate_row(i)

    divisors = tuple(d[i][i] for i in range(k))
    for i in range(k - 1):
        a, b = divisors[i], divisors[i + 1]
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalInvariantError(f"divisor chain violated: {divisors}")

    return SmithDecomposition(
        U=IntMatrix.from_rows(u),
        D=IntMatrix.from_rows(d),
        V=IntMatrix.from_rows(v),
        divisors=divisors,
    )


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a primitive basis of the integer kernel lattice.

    The basis columns are columns of the (unimodular) right Smith
    transform, so the lattice they span is automatically saturated in
    the ambient Z^cols.
    """
    snf = smith_normal_form(m)
    nonzero = sum(1 for x in snf.divisors if x)
    idx = list(range(nonzero, m.cols))
    entries = tuple(
        snf.V.entry(i, j) for i in range(m.cols) for j in idx
    )
    return IntMatrix(m.cols, len(idx), entries)


def cokernel(m: IntMatrix) -> CokernelShape:
    """Shape of Z^rows / (column span of m), read off the divisors."""
    snf = smith_normal_form(m)
    nonzero = sum(1 for x in snf.divisors if x)
    torsion = tuple(x for x in snf.divisors if x >= 2)
    return CokernelShape(free_rank=m.rows - nonzero, torsion=torsion)


def express_in_basis(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix:
    """Solve basis @ X = vectors for integer X.

    Requires the columns of ``basis`` to be linearly independent.
    Raises ValueError if some column of ``vectors`` has no integral
    coordinates in the basis (outside the span, or of the wrong index).
    """
    if basis.rows != vectors.rows:
        raise ValueError("ambient dimensions differ")
    snf = smith_normal_form(basis)
    r = basis.cols
    if len(snf.divisors) < r or any(d == 0 for d in snf.divisors):
        raise ValueError("basis columns are not linearly independent")
    um = snf.U @ vectors
    ncols = vectors.cols
    top: list[int] = []
    for i in range(r):
        d = snf.divisors[i]
        for j in range(ncols):
            q, rem = divmod(um.entry(i, j), d)
            if rem:
                raise ValueError("vector has no integral coordinates in the basis")
            top.append(q)
    for i in range(r, basis.rows):
        for j in range(ncols):
            if um.entry(i, j) != 0:
                raise ValueError("vector outside the span of the basis")
    return snf.V @ IntMatrix(r, ncols, tuple(top))


def inv_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    snf = smith_normal_form(m)
    if snf.divisors != (1,) * m.rows:
        raise ValueError("matrix is not unimodular")
    inv = snf.V @ snf.U
    if (m @ inv) != IntMatrix.identity(m.rows):
        raise InternalInvariantError("unimodular inverse check failed")
    return inv


def exterior_trace_poly(a: IntMatrix) -> tuple[int, ...]:
    """Coefficients of det(I + t*A), i.e. the traces of all exterior powers.

    Coefficient k equals the trace of the k-th exterior power of A.
    Computed from power sums tr(A^i) via Newton's identities; every
    division is exact over the integers.

    >>> exterior_trace_poly(IntMatrix.from_rows([[0, 1], [1, 0]]))
    (1, 0, -1)
    """
    if not a.is_square:
        raise ValueError("exterior traces need a square matrix")
    n = a.rows
    power_sums = [0] * (n + 1)
    acc = IntMatrix.identity(n)
    for i in range(1, n + 1):
        acc = acc @ a
        power_sums[i] = sum(acc.entry(j, j) for j in range(n))
    coeffs = [1]
    for k in range(1, n + 1):
        total = 0
        sign = 1
        for i in range(1, k + 1):
            total += sign * coeffs[k - i] * power_sums[i]
            sign = -sign
        q, r = divmod(total, k)
        if r:
            raise InternalInvariantError("Newton identity division not exact")
        coeffs.append(q)
    return tuple(coeffs)


DEFAULT_ENTRY_CAP = 32


def random_unimodular(n: int, seed: int, steps: int, cap: int = DEFAULT_ENTRY_CAP) -> IntMatrix:
    """Deterministic pseudo-random unimodular matrix with |det| = 1.

    Applies ``steps`` seeded elementary column operations to the
    identity, skipping any operation that would push an entry of the
    matrix or of its tracked inverse beyond ``cap``.

    >>> random_unimodular(2, seed=5, steps=0) == IntMatrix.identity(2)
    True
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    p, _ = _unimodular_with_inverse(n, seed, steps, cap)
    return p


def _unimodular_with_inverse(
    n: int, seed: int, steps: int, cap: int
) -> tuple[IntMatrix, IntMatrix]:
    """As random_unimodular, but also returns the exact inverse."""
    rng = random.Random(seed)
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def too_big(mat: list[list[int]]) -> bool:
        return any(abs(x) > cap for row in mat for x in row)

    for _ in range(steps):
        kind = rng.randrange(3)
        if n == 1:
            kind = 2
        if kind == 0:
            # column add on p mirrors a row subtract on pinv
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            for r in range(n):
                p[r][j] += s * p[r][i]
            for c in range(n):
                pinv[i][c] -= s * pinv[j][c]
            if too_big(p) or too_big(pinv):
                for r in range(n):
                    p[r][j] -= s * p[r][i]
                for c in range(n):
                    pinv[i][c] += s * pinv[j][c]
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            for r in range(n):
                p[r][i], p[r][j] = p[r][j], p[r][i]
            pinv[i], pinv[j] = pinv[j], pinv[i]
        else:
            i = rng.randrange(n)
            for r in range(n):
                p[r][i] = -p[r][i]
            pinv[i] = [-x for x in pinv[i]]
    return IntMatrix.from_rows(p), IntMatrix.from_rows(pinv)
