"""Exact integer linear algebra.

Smith normal form on the block rows [D | U], with V and its inverse
built alongside: every exact inverse the package needs is read off
the transform that built it, so no solve runs a second Smith form.
One fraction-free (Bareiss) elimination, ``_bareiss``, gives both the
determinant and the rank over Q.  Integer kernels and kernel
coordinates; a matrix read once as its nonzeros, on which the exact
check of M·M = I and the bitmask rows mod 2 work per nonzero; an
echelon basis over F_2 and an echelon table over F_3 (whose leading
positions a caller can read) on bitmask rows, bitmask rows cut out of
one int by bytes, exterior-power trace polynomials, and seeded
unimodular matrices with their inverses.  Every operation works
on arbitrary-precision Python integers; nothing here touches floating
point.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, cycle, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._frozen import Frozen
from .errors import InternalInvariantError

__all__ = [
    "IntMatrix",
    "smith_normal_form",
    "kernel_columns",
    "kernel_coordinates",
    "exterior_trace_poly",
    "nonzeros",
    "first_row_off_identity_square",
    "random_unimodular",
]


class IntMatrix(Frozen):
    """Immutable integer matrix, row-major storage.

    >>> m = IntMatrix.from_rows([[0, 1], [1, 0]])
    >>> (m @ m) == IntMatrix.identity(2)
    True
    """

    __slots__ = _fields = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self._set(rows, cols, entries)

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

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols]

    def transpose(self) -> "IntMatrix":
        columns = map(self.column, range(self.cols))
        return IntMatrix(self.cols, self.rows, tuple(chain.from_iterable(columns)))

    def max_abs(self) -> int:
        return max((abs(x) for x in self.entries), default=0)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        c, e, oc = self.cols, self.entries, other.cols
        rows = [e[i * c : i * c + c] for i in range(self.rows)]
        columns = list(map(other.column, range(oc)))
        # entry (i, j) is sum(map(mul, row i, column j)), all in C
        pairs = map(
            map,
            repeat(operator.mul),
            chain.from_iterable(map(repeat, rows, repeat(oc))),
            chain.from_iterable(repeat(columns, self.rows)),
        )
        return IntMatrix(self.rows, oc, tuple(map(sum, pairs)))

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
        """Determinant, the signed last pivot of ``_bareiss`` at full rank."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        rank, pivot = _bareiss(self)
        return pivot if rank == self.rows else 0


def _bareiss(m: IntMatrix) -> tuple[int, int]:
    """Rank over Q of m and its last pivot, signed by the row swaps.

    Fraction-free (Bareiss) elimination: each column's pivot is its
    first nonzero entry at or below the pivot row, a column with none is
    skipped, and every division by the previous pivot is exact.  For a
    square m of full rank the signed last pivot is det m; with no pivot
    it is 1.
    """
    a = m.to_rows()
    rank, prev, sign = 0, 1, 1
    for col in range(m.cols):
        piv = next((i for i in range(rank, m.rows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        ar = a[rank]
        p = ar[col]
        # rows with a zero head still need the fraction-free update; column
        # col is not read again
        for ai in a[rank + 1 :]:
            head = ai[col]
            for j in range(col + 1, m.cols):
                ai[j] = (ai[j] * p - head * ar[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


class SmithDecomposition(NamedTuple):
    """U @ M @ V == D with U, V unimodular and D diagonal.

    The diagonal of D is nonnegative, each entry divides the next,
    and zeros trail.  ``V_inv`` is the exact inverse of V, built
    alongside it, so V @ V_inv == I.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    divisors: tuple[int, ...]
    V_inv: IntMatrix


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transformation matrices.

    The elimination runs on the block form [D | U]: row i of D and row i
    of U are one list, so a row swap, addition or negation is one list
    operation on both.  A column operation runs over the first ``nc``
    entries of those rows and the rows of V together, and is mirrored as
    the inverse row operation on V^-1.  Pivots are chosen by minimal
    absolute value (ties broken by scan order), which keeps intermediate
    entries small and makes the output deterministic for a fixed input.

    >>> smith_normal_form(IntMatrix.from_rows([[-1, 1], [1, -1]])).divisors
    (1, 0)
    """
    nr, nc = m.rows, m.cols
    du = [row + [0] * nr for row in m.to_rows()]
    v = [[0] * nc for _ in range(nc)]
    # U and V start as identities: row i holds its 1 at nc + i in du, at i in v
    for i, row in chain(enumerate(du, nc), enumerate(v)):
        row[i] = 1
    v_inv = [row[:] for row in v]

    def addmul_col(dst: int, src: int, q: int) -> None:
        for row in chain(du, v):
            row[dst] += q * row[src]
        v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    def pivot_to(t: int) -> bool:
        """Move the first minimal-absolute-value entry of the trailing
        block to (t, t), scanning row by row; False if the block is zero."""
        best = None
        for i in range(t, nr):
            row = du[i]
            for j in range(t, nc):
                a = row[j]
                if a and (best is None or abs(a) < best[0]):
                    best = (abs(a), i, j)
        if best is None:
            return False
        _, i, j = best
        du[t], du[i] = du[i], du[t]
        if j != t:
            for row in chain(du, v):
                row[t], row[j] = row[j], row[t]
            v_inv[t], v_inv[j] = v_inv[j], v_inv[t]
        return True

    k = min(nr, nc)
    for t in range(k):
        if not pivot_to(t):
            break
        while True:
            pivot = du[t]
            p = pivot[t]
            clear = True
            for i in range(t + 1, nr):
                row = du[i]
                if row[t]:
                    q = row[t] // p
                    if q:
                        du[i] = row = [x - q * y for x, y in zip(row, pivot)]
                    if row[t]:
                        clear = False
            for j in range(t + 1, nc):
                if pivot[j]:
                    q = pivot[j] // p
                    if q:
                        addmul_col(j, t, -q)
                    if pivot[j]:
                        clear = False
            if not clear:
                # a nonzero remainder strictly smaller than the pivot appeared
                pivot_to(t)
                continue
            offender = None
            for row in du[t + 1 :]:
                for j in range(t + 1, nc):
                    if row[j] % p:
                        offender = row
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            du[t] = [x + y for x, y in zip(pivot, offender)]

    for i in range(k):
        if du[i][i] < 0:
            du[i] = [-x for x in du[i]]

    divisors = tuple(du[i][i] for i in range(k))
    for i in range(k - 1):
        a, b = divisors[i], divisors[i + 1]
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            raise InternalInvariantError(f"divisor chain violated: {divisors}")

    return SmithDecomposition(
        U=IntMatrix(nr, nr, tuple(chain.from_iterable(row[nc:] for row in du))),
        D=IntMatrix(nr, nc, tuple(chain.from_iterable(row[:nc] for row in du))),
        V=IntMatrix(nc, nc, tuple(chain.from_iterable(v))),
        divisors=divisors,
        V_inv=IntMatrix(nc, nc, tuple(chain.from_iterable(v_inv))),
    )


def kernel_columns(snf: SmithDecomposition) -> IntMatrix:
    """The kernel basis V[:, r:] of the matrix ``snf`` decomposes.

    r counts the nonzero divisors.  The columns are columns of the
    unimodular V, so the lattice they span is saturated in Z^cols.
    """
    v = snf.V
    r = sum(1 for x in snf.divisors if x)
    entries = tuple(chain.from_iterable(row[r:] for row in v.to_rows()))
    return IntMatrix(v.rows, v.cols - r, entries)


def kernel_coordinates(snf: SmithDecomposition, vectors: IntMatrix) -> IntMatrix:
    """Solve ``kernel_columns(snf) @ X = vectors`` for integer X.

    Since V @ V_inv = I, each column y of ``vectors`` is V (V_inv y),
    and its coordinates in the basis V are unique: y lies in the kernel
    spanned by V[:, r:] exactly when rows :r of V_inv y are zero, and
    its kernel coordinates are then rows r:.  That certificate is
    checked, so the solve costs one product and no second Smith form.
    Raises ValueError for a column outside the kernel.
    """
    if snf.V.rows != vectors.rows:
        raise ValueError("ambient dimensions differ")
    r = sum(1 for x in snf.divisors if x)
    c = vectors.cols
    coords = (snf.V_inv @ vectors).entries
    if any(coords[: r * c]):
        raise ValueError("vector outside the kernel")
    return IntMatrix(vectors.rows - r, c, coords[r * c :])


class Nonzeros(NamedTuple):
    """The nonzero entries of a matrix with ``cols`` columns, row by row: row i
    holds the next ``counts[i]`` of ``values``, at the same places of ``columns``."""

    cols: int
    values: list[int]
    columns: list[int]
    counts: list[int]


def nonzeros(m: IntMatrix) -> Nonzeros:
    """The nonzeros of m, read by C-level passes over its entries."""
    e, c = m.entries, m.cols
    starts = list(map(operator.mul, range(m.rows + 1), repeat(c)))
    zeros = map(tuple.count, map(e.__getitem__, map(slice, starts, starts[1:])), repeat(0))
    counts = list(map(operator.sub, repeat(c), zeros))
    return Nonzeros(c, list(compress(e, e)), list(compress(cycle(range(c)), e)), counts)


def _row_sums(items: Iterable[int], counts: Sequence[int]) -> Iterator[int]:
    """Lazily, per row, the sum of its items: row i takes the next counts[i]."""
    return map(sum, map(islice, repeat(iter(items)), counts))


def first_row_off_identity_square(nz: Nonzeros) -> int | None:
    """Index of the first row where M·M differs from I, or None if M·M = I.

    Exact, by Kronecker substitution on the nonzeros of the square M: row
    t of M is packed into P_t = sum_j M[t][j]·2^(w·j), signed slots of
    width w = bit_length(r·m + 1) for r the largest absolute row sum of M
    and m its largest absolute entry, so sum_t M[i][t]·P_t packs row i of
    M·M.  Every entry d_j of row i of M·M - I has |d_j| <= r·m + 1 < 2^w.
    A packed sum_j d_j·2^(w·j) is 0 only if its lowest nonzero d_j is
    divisible by 2^w (the higher terms are), which no such d_j is; so the
    packed row is 2^(w·i) exactly when row i of M·M is the unit row.  The
    rows are summed lazily, up to the first bad one.
    """
    _, values, columns, counts = nz
    sizes = list(map(abs, values))
    bound = max(_row_sums(sizes, counts), default=0) * max(sizes, default=0) + 1
    w = bound.bit_length()
    shifted = map(operator.lshift, values, map(operator.mul, columns, repeat(w)))
    packed = list(_row_sums(shifted, counts))
    squared = _row_sums(map(operator.mul, values, map(packed.__getitem__, columns)), counts)
    units = map(operator.lshift, repeat(1), range(0, w * len(counts), w))
    return next(compress(range(len(counts)), map(operator.ne, squared, units)), None)


# ---------------------------------------------------------------------------
# ranks over F_2 and F_3 on bitmask rows


def _gf2_basis(vectors: Iterable[int]) -> list[int]:
    """Echelon basis (as bitmasks) of the span of the given bitmasks."""
    table: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p in table:
                v ^= table[p]
            else:
                table[p] = v
                break
    return [table[p] for p in sorted(table, reverse=True)]


def _f3_add(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Sum of two F_3 vectors, each held as (positions of 1, positions of 2)."""
    t = (u[0] | v[1]) ^ (u[1] | v[0])
    return (u[1] | v[1]) ^ t, (u[0] | v[0]) ^ t


def _f3_pivots(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Echelon table over F_3 of rows held as (positions of 1, positions of 2).

    Each stored row is keyed by its leading position, where it holds 1;
    a row is reduced only by the stored row of its current leading
    position.
    """
    table: dict[int, tuple[int, int]] = {}
    for ones, twos in rows:
        support = ones | twos
        while support:
            p = support.bit_length() - 1
            pivot = table.get(p)
            if pivot is None:
                table[p] = (ones, twos) if ones >> p & 1 else (twos, ones)
                break
            # subtract the pivot where v holds 1, add it where v holds 2;
            # the sum is _f3_add written out, as this loop is the hot path
            q1, q2 = (pivot[1], pivot[0]) if ones >> p & 1 else pivot
            t = (ones | q2) ^ (twos | q1)
            ones, twos = (twos | q2) ^ t, (ones | q1) ^ t
            support = ones | twos
    return table


def _byte_blocks(x: int, size: int, count: int) -> Iterator[int]:
    """The nonnegative x cut into count blocks of size bytes, lowest first."""
    data = x.to_bytes(size * count, "little")
    blocks = (data[i : i + size] for i in range(0, size * count, size))
    return map(int.from_bytes, blocks, repeat("little"))


def _odd_masks(nz: Nonzeros) -> list[int]:
    """Per row, the bitmask of its odd entries: bit j stands for column j."""
    odd = map(operator.and_, nz.values, repeat(1))
    return list(_row_sums(map(operator.lshift, odd, nz.columns), nz.counts))


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


def random_unimodular(n: int, seed: int, steps: int, cap: int = 32) -> tuple[IntMatrix, IntMatrix]:
    """Deterministic pseudo-random unimodular matrix P with its exact inverse.

    Applies ``steps`` seeded elementary column operations to the
    identity, skipping any operation that would push an entry of P or
    of its tracked inverse beyond ``cap``.  Returns (P, P^-1).

    >>> random_unimodular(2, seed=5, steps=0)[0] == IntMatrix.identity(2)
    True
    """
    # only verify corpora and tests draw matrices, so a cold report does not import random
    import random

    if n < 1:
        raise ValueError("dimension must be at least 1")
    rng = random.Random(seed)
    # P is held by columns and P^-1 by rows, so each step acts on both alike
    p_cols = [[int(i == j) for i in range(n)] for j in range(n)]
    pinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if n == 1:
            kind = 2
        if kind == 0:
            # column add on P mirrors a row subtract on P^-1; only the new column
            # and row can leave the cap (at cap 0 no add ever passes, as no column
            # of P is zero)
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            col = [x + s * y for x, y in zip(p_cols[j], p_cols[i])]
            row = [x - s * y for x, y in zip(pinv[i], pinv[j])]
            if max(map(abs, col + row)) <= cap:
                p_cols[j], pinv[i] = col, row
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            p_cols[i], p_cols[j] = p_cols[j], p_cols[i]
            pinv[i], pinv[j] = pinv[j], pinv[i]
        else:
            i = rng.randrange(n)
            p_cols[i] = [-x for x in p_cols[i]]
            pinv[i] = [-x for x in pinv[i]]
    return IntMatrix.from_rows(p_cols).transpose(), IntMatrix.from_rows(pinv)
