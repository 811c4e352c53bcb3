"""Independent brute-force verifiers.

Every quantity the main pipeline derives is recomputed here by a
different method at desk scale:

* the cohomology action, from the explicit signed action of A mod 3 on
  the full exterior-algebra basis, bit-sliced over subset bitmasks; the
  kernels of M - I and M + I are read from F_3 eliminations and are
  exact because A·A = I is checked over Z (no trace and no eigenvalue
  count);
* fixed-set component counts, from enumeration of rational torus
  points clustered by an exact same-component certificate; the points
  are joined from two half-grids on a shared key, and the counts and
  labels stay exact because the fixed-point condition and the
  certificate bits both split as sums of the two halves' residues;
* the module-arithmetic tables, from explicit free resolutions over
  Z[t]/(t^2 - 1) realized as integer matrices, homology via Smith
  normal form; the (1 - t) column is regenerated and checksummed with
  the others although no package code reads it;
* structure invariants, from the mod-2 quotients that define them, on
  integer kernel bases from one Smith normal form per quotient, whose
  V_inv gives the kernel coordinates;
* seeded corpora of conjugated involutions for property sweeps, built
  from seeded unimodular matrices and their exact inverses.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import lru_cache
from itertools import combinations, repeat
from math import isqrt
from typing import NamedTuple

from .errors import DimensionTooLargeError, GridTooLargeError, InternalInvariantError
from .intlin import (
    IntMatrix,
    _bareiss,
    _f3_eigenranks,
    _gf2_basis,
    _residue_masks,
    first_row_off_identity_square,
    kernel_columns,
    kernel_coordinates,
    random_unimodular,
    smith_normal_form,
)
from .lattice import (
    StructureInvariants,
    canonical_matrix,
    invariants,
    validate_involution,
)
from .repring import _SITE_KINDS, CLASS_ORDER, canonical_table_bytes, table_checksum
from .toruskt import SPEC_VERSION, CohomologyAction

__all__ = [
    "FixedGridResult",
    "exterior_power_matrix",
    "exterior_action_invariants",
    "fixed_grid_components",
    "resolution_module_class",
    "regenerate_tables",
    "render_table_file_bytes",
    "involution_corpus",
    "structure_classes",
    "tate_invariants",
    "rank_exact",
]

EXTERIOR_MAX_DIM = 10
GRID_POINT_BOUND = 1_000_000
GRID_SWEEP_BOUND = 16_777_216


# ---------------------------------------------------------------------------
# exact rank over Q, and rank over F_2 of integer rows


def rank_exact(m: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(m)[0]


def _gf2_rank_rows(m: IntMatrix) -> int:
    return len(_gf2_basis(odd for odd, _, _ in _residue_masks(m)))


# ---------------------------------------------------------------------------
# exterior-algebra action


@lru_cache(maxsize=None)
def _exterior_basis(n: int) -> tuple[list[dict[int, int]], list[list[tuple[int, int]]]]:
    """The exterior basis of Z^n, degree by degree, on subset bitmasks.

    An index set S is the bitmask sum(1 << i for i in S).  Returns, per
    degree k, the position of each mask in itertools-combinations order
    (the dict lists the masks in that order), and for each S of degree
    k >= 1 the position in degree k - 1 of S minus its largest element,
    paired with that element.
    """
    index: list[dict[int, int]] = []
    split: list[list[tuple[int, int]]] = [[]]
    for k in range(n + 1):
        masks = [sum(1 << i for i in s) for s in combinations(range(n), k)]
        index.append({m: i for i, m in enumerate(masks)})
        if k:
            lasts = [m.bit_length() - 1 for m in masks]
            split.append([(index[k - 1][m ^ 1 << last], last) for m, last in zip(masks, lasts)])
    return index, split


def _exterior_images(a: IntMatrix) -> list[list[dict[int, int]]]:
    """Images of every exterior basis vector e_S, degree by degree.

    The image of e_S maps the bitmask of each T to the coefficient of
    e_T; degree k entries follow the order of ``_exterior_basis(n)``.
    With m the largest element of S, the image of e_S is the image of
    e_(S - m) wedged with A e_m, and for i not in T,
    e_T ∧ e_i = (-1)^j e_(T + i) where j counts the elements of T above
    i: the bits of T >> i.
    """
    n = a.rows
    split = _exterior_basis(n)[1]
    # nonzero entries of each column of A, as (row, bit of the row, entry)
    columns = [[(i, 1 << i, x) for i, x in enumerate(a.column(j)) if x] for j in range(n)]
    images: list[list[dict[int, int]]] = [[{0: 1}]]
    for k in range(1, n + 1):
        prev = images[k - 1]
        level: list[dict[int, int]] = []
        for p, last in split[k]:
            col = columns[last]
            acc: dict[int, int] = {}
            for t, cf in prev[p].items():
                for i, bit, av in col:
                    if t & bit:
                        continue
                    u = t | bit
                    if (t >> i).bit_count() & 1:
                        acc[u] = acc.get(u, 0) - cf * av
                    else:
                        acc[u] = acc.get(u, 0) + cf * av
            level.append({t: c for t, c in acc.items() if c})
        images.append(level)
    return images


def _images_matrix(images: list[dict[int, int]], n: int, k: int) -> IntMatrix:
    """Matrix whose columns are the degree-k images, on the combination basis."""
    index = _exterior_basis(n)[0][k]
    rows = [[0] * len(images) for _ in images]
    for col, img in enumerate(images):
        for t, cf in img.items():
            rows[index[t]][col] = cf
    return IntMatrix.from_rows(rows)


def exterior_power_matrix(a: IntMatrix, k: int) -> IntMatrix:
    """Matrix of the k-th exterior power of A on the combination basis."""
    if not a.is_square:
        raise ValueError("square matrix required")
    n = a.rows
    if not 0 <= k <= n:
        raise ValueError("degree out of range")
    return _images_matrix(_exterior_images(a)[k], n, k)


@lru_cache(maxsize=None)
def _wedge_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Per i < n, the slots T where e_T ∧ e_i is +e_(T + i), and where it is -e_(T + i).

    Slot T holds the coefficient of e_T, T a subset bitmask; the sign is
    (-1)^j, j counting the elements of T above i, and no T holding i is in either.
    """
    out = []
    for i in range(n):
        masks = [0, 0]
        # T = high·2^(i+1) + low with low < 2^i: a block of 2^i slots per high
        for high in range(1 << (n - 1 - i)):
            masks[high.bit_count() & 1] |= (1 << (1 << i)) - 1 << (high << (i + 1))
        out.append((masks[0], masks[1]))
    return tuple(out)


def _f3_exterior_images(a: IntMatrix) -> list[tuple[int, int]]:
    """The image of e_S under Λ(A mod 3) for every subset bitmask S.

    Each image is bit-sliced as (the slots T where the coefficient of
    e_T is 1, those where it is 2).  With m = max S, the image of e_S is
    that of e_(S - m) wedged with column m of A mod 3; wedging with e_i
    shifts the ``_wedge_masks`` slots by 2^i, swapping ones and twos
    where the sign flips, and an entry 2 mod 3 swaps the two masks.
    """
    n = a.rows
    wedges = _wedge_masks(n)
    # per column of A mod 3: (shift, slots added, slots subtracted) per nonzero
    columns = [
        [(1 << i, *(wedges[i] if x % 3 == 1 else wedges[i][::-1]))
         for i, x in enumerate(a.column(j)) if x % 3]
        for j in range(n)
    ]
    images = [(1, 0)]
    for s in range(1, 1 << n):
        last = s.bit_length() - 1
        ones, twos = images[s ^ 1 << last]
        acc1 = acc2 = 0
        for shift, plus, minus in columns[last]:
            add1 = (ones & plus | twos & minus) << shift
            add2 = (twos & plus | ones & minus) << shift
            t = (acc1 | add2) ^ (acc2 | add1)  # acc += add, as ``_f3_add``
            acc1, acc2 = (acc2 | add2) ^ t, (acc1 | add1) ^ t
        images.append((acc1, acc2))
    return images


def exterior_action_invariants(a: IntMatrix) -> CohomologyAction:
    """Invariant/anti-invariant cohomology dimensions by explicit solve.

    After one exact check of A·A = I, Λ(A mod 3) is built once
    (``_f3_exterior_images``) and, for each parity of degree, the kernels
    of M - I and M + I are read from two F_3 eliminations on the columns
    of M, the sum of the Λ^k(A mod 3) of that parity.  No trace and no
    eigenvalue count enters.

    Exactness: by Cauchy-Binet Λ^k(A)² = Λ^k(A²) = I, and Λ^k(A) mod 3
    = Λ^k(A mod 3) as its entries are minors of A.  An involution over Q
    or over F_3 splits the space into its ±1 eigenspaces, so both rank
    pairs sum to C(n, k); no F_3 rank exceeds its Q rank (a minor nonzero
    mod 3 is nonzero), so the pairs agree.  The F_3 complement check is
    kept: ker(M - I) meets ker(M + I) in 0, so each degree's rank sum is
    at least C(n, k), and the parity's sum is its dimension exactly when
    every Λ^k(A mod 3) is an involution.
    """
    if not a.is_square:
        raise ValueError("square matrix required")
    n = a.rows
    if n > EXTERIOR_MAX_DIM:
        raise DimensionTooLargeError(
            f"exterior verifier bounded at n <= {EXTERIOR_MAX_DIM}, got {n}"
        )
    if first_row_off_identity_square(a.to_rows()) is not None:
        raise InternalInvariantError("exterior action is not semisimple over Q")
    rows: tuple[list, list] = ([], [])  # per parity of degree: (ones, twos, diagonal bit)
    for s, (ones, twos) in enumerate(_f3_exterior_images(a)):
        rows[s.bit_count() & 1].append((ones, twos, 1 << s))
    (even_minus, even_plus), (odd_minus, odd_plus) = map(_f3_eigenranks, rows)
    even, odd = map(len, rows)
    return CohomologyAction(even - even_minus, odd - odd_minus, even - even_plus, odd - odd_plus)


# ---------------------------------------------------------------------------
# torus grid enumeration


class FixedGridResult(NamedTuple):
    components: int
    dim_estimate: int
    count: int
    count_double: int


def fixed_grid_components(a: IntMatrix, d: int) -> FixedGridResult:
    """Fixed-set component count from rational grid enumeration.

    Enumerates all x in (1/d)Z^n mod Z^n with A x = x on the torus and
    clusters them with an exact same-component certificate: two fixed
    points lie on the same affine subtorus exactly when the integer
    vector (A - I)(x - y) lies in (A - I)Z^n + 2Z^n, a mod-2 column
    space membership.  The dimension is estimated from the growth of
    the fixed-point count between grids d and 2d.

    Both grids come from w in {0..2d-1}^n with residues r = (A - I)w
    mod 4d: w is fixed on the 2d grid when r = 0 mod 2d, and at the
    even points w = 2v (the d grid) the certificate bits
    ((A - I)v / d) mod 2 are floor(r / 2d) mod 2.  Every coefficient is
    reduced with Python's %, and all arithmetic is on Python integers,
    so entries of any size are exact.

    The grid is joined from two half-grids (meet in the middle): every
    w is u + v for one u on the first side, the first n // 2
    coordinates, and one v on the second, the last n // 2; for odd n
    the middle coordinate is written as lo + step·hi, with step an even
    divisor of 2d near its square root, one digit to each side.  Since
    step is even, w is even exactly when u and v are.  With N1 the
    residue of -(A - I)u and N2 that of (A - I)v, both mod 4d,
    r = N2 - N1 mod 4d.  Write N = 2d·b + s with 0 <= s < 2d.  Then w is
    fixed exactly when s1 = s2 in every row, so s is the key on both
    sides; the fixed counts are sums over shared keys of the two sides'
    point counts (all points, and even points); and at a fixed point
    r = 2d·(b2 - b1), so the certificate bits are b1 xor b2.  Reduction
    modulo the mod-2 column space is linear, so it can follow the xor.
    The first side is held as counts per key; the second, at least as
    large, is looked up as it is generated.  Each side has about
    (2d)^(n/2) points (more for odd n when 2d has no divisor near its
    square root).

    A point's residues are packed into one integer, a slot of
    bit_length(4d) + 2 bits per row, wide enough for the sum of two
    residues: the slot-wise test x >= c is (x + top - c·ones) & top,
    and reduction mod c subtracts c where that bit is set.

    ``d`` must be even so that every component (an affine translate by
    a half-integer vector) meets the grid.
    """
    if not a.is_square or a.rows == 0:
        raise ValueError(f"need a square matrix of positive size, got {a.rows}x{a.cols}")
    n = a.rows
    if d < 2 or d % 2:
        raise ValueError("grid denominator must be an even integer >= 2")
    if d**n > GRID_POINT_BOUND:
        raise GridTooLargeError(f"d^n = {d**n} exceeds {GRID_POINT_BOUND}")
    if (2 * d) ** n > GRID_SWEEP_BOUND:
        raise GridTooLargeError("doubled grid for the dimension estimate is too large")
    m_int = a - IntMatrix.identity(n)
    half, mod = 2 * d, 4 * d
    width = mod.bit_length() + 2
    shift = width - 1
    ones = sum(1 << (i * width) for i in range(n))
    top = ones << shift

    # each side's digits: (column of A - I, its scale, radix, whether parity counts)
    k = n // 2
    first = [(m_int.column(j), -1, half, True) for j in range(k)]
    second = [(m_int.column(j), 1, half, True) for j in range(n - k, n)]
    if n % 2:
        # coordinate k is split as lo + step·hi with step even, so its parity
        # is that of lo; step·(2d / step) = 2d factors as near its root as it
        # can, and the larger factor goes to the second side, which is not held
        low = max(x for x in range(1, isqrt(half) + 1) if half % x == 0)
        step = low if low % 2 == 0 else half // low
        parts = sorted([(step, half // step, False), (1, step, True)], key=lambda p: p[1])
        first.append((m_int.column(k), -parts[0][0], *parts[0][1:]))
        second.insert(0, (m_int.column(k), *parts[1]))

    def side(digits, even):
        """Packed residues of one side's points: every point's mod 2d (its
        key), or the even points' mod 4d.  The later digits' points are
        held; the first digit's values are generated one at a time."""
        c = mod if even else half
        over = top - c * ones

        def add(ms, xs):
            return (s - ((s + over & top) >> shift) * c for m in ms for x in xs for s in [m + x])

        def multiples(column, scale, radix, parity):
            twice = even and parity  # the even values of a digit are 0, 2, 4, ...
            col = sum((scale << twice) * x % c << (i * width) for i, x in enumerate(column))
            x = 0
            for _ in range(radix >> twice):
                yield x
                x += col
                x -= ((x + over & top) >> shift) * c

        points = [0]
        for digit in digits[1:]:
            points = list(add(multiples(*digit), points))
        return add(multiples(*digits[0]), points)

    def halves(x):
        """Key and certificate bits of a residue mod 4d: x mod 2d, and the
        top bits of the slots where x >= 2d."""
        high = x + top - half * ones & top
        return x - (high >> shift) * half, high

    all1 = Counter(side(first, False))
    count_double = sum(map(all1.get, side(second, False), repeat(0)))
    even1: Counter[int] = Counter()
    highs1: dict[int, set[int]] = {}
    for key, high in map(halves, side(first, True)):
        even1[key] += 1
        highs1.setdefault(key, set()).add(high)
    count = 0
    components: set[int] = set()
    for key, high in map(halves, side(second, True)):
        if key in even1:
            count += even1[key]
            components.update(high ^ h for h in highs1[key])
    # reduce modulo the mod-2 column space, its bit i spread to the top of slot i
    for b in _gf2_basis(odd for odd, _, _ in _residue_masks(m_int.transpose())):
        lead = (b.bit_length() - 1) * width + shift
        b = sum(1 << (i * width + shift) for i in range(n) if b >> i & 1)
        components = {x ^ b if x >> lead & 1 else x for x in components}
    if count == 0:
        raise InternalInvariantError("origin is always a fixed point")

    ratio, rem = divmod(count_double, count)
    if rem or ratio & (ratio - 1):
        raise InternalInvariantError(
            f"fixed-point growth {count} -> {count_double} is not a power of 2"
        )
    return FixedGridResult(
        components=len(components),
        dim_estimate=ratio.bit_length() - 1,
        count=count,
        count_double=count_double,
    )


# ---------------------------------------------------------------------------
# resolutions over Z[t]/(t^2 - 1)

_T_PLUS = (1, 1)  # t + 1
_T_MINUS = (-1, 1)  # t - 1

_REPS: dict[str, IntMatrix] = {
    "FreeR": IntMatrix.from_rows([[0, 1], [1, 0]]),
    "TrivZ": IntMatrix.from_rows([[1]]),
    "SignZ": IntMatrix.from_rows([[-1]]),
}


def _res_rank(name: str, i: int) -> int:
    if name == "FreeR":
        return 1 if i == 0 else 0
    if name in ("TrivZ", "SignZ"):
        return 1
    # TorF2
    return 1 if i == 0 else 2


def _res_differential(name: str, i: int) -> list[list[tuple[int, int]]]:
    """The i-th differential (i >= 1) of the standard free resolution,
    entries recorded as (constant, t-coefficient)."""
    if name == "FreeR":
        return [[] for _ in range(_res_rank(name, i - 1))]
    if name == "TrivZ":
        entry = _T_MINUS if i % 2 else _T_PLUS
        return [[entry]]
    if name == "SignZ":
        entry = _T_PLUS if i % 2 else _T_MINUS
        return [[entry]]
    # TorF2
    if i == 1:
        return [[(2, 0), (1, 1)]]
    if i % 2 == 0:
        return [[(1, 1), (0, 0)], [(0, -2), (1, -1)]]
    return [[(1, -1), (0, 0)], [(0, 2), (1, 1)]]


def _tensor_int(rmat: list[list[tuple[int, int]]], rep: IntMatrix) -> IntMatrix:
    """Apply a matrix over the group ring to copies of an integer module."""
    dim = rep.rows
    nr = len(rmat)
    nc = len(rmat[0]) if nr else 0
    rows = [[0] * (nc * dim) for _ in range(nr * dim)]
    for bi in range(nr):
        for bj in range(nc):
            a0, a1 = rmat[bi][bj]
            if a0 == 0 and a1 == 0:
                continue
            for x in range(dim):
                for y in range(dim):
                    val = a1 * rep.entry(x, y) + (a0 if x == y else 0)
                    rows[bi * dim + x][bj * dim + y] = val
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, nc * dim, ())


def _label_free_lattice(t_action: IntMatrix) -> dict[str, int]:
    inv = invariants(validate_involution(t_action))
    out: dict[str, int] = {}
    if inv.a:
        out["TrivZ"] = inv.a
    if inv.b:
        out["SignZ"] = inv.b
    if inv.c:
        out["FreeR"] = inv.c
    return out


def _homology_label(d_out: IntMatrix, d_in: IntMatrix, t_big: IntMatrix) -> dict[str, int]:
    """Class-labelled homology ker(d_out)/im(d_in) with its t-action.

    One Smith form of d_out gives the kernel basis and, through its
    V_inv, the coordinates of im(d_in) and of t on that kernel.  A
    second, of the transposed image coordinates, splits the kernel into
    torsion and free parts, and its V'^T and V'_inv^T are that change of
    basis and its inverse.
    """
    snf_out = smith_normal_form(d_out)
    kern = kernel_columns(snf_out)
    r = kern.cols
    if r == 0:
        return {}
    x = kernel_coordinates(snf_out, d_in)
    # from U' x^T V' = D' the left transform of x is L = V'^T, with L^-1 = V'_inv^T
    snf = smith_normal_form(x.transpose())
    torsion = [d for d in snf.divisors if d >= 2]
    for d in torsion:
        if d != 2:
            raise InternalInvariantError(f"unexpected torsion {d} in module homology")
    free_idx = [
        i for i in range(r) if i >= len(snf.divisors) or snf.divisors[i] == 0
    ]
    out: dict[str, int] = {}
    if torsion:
        out["TorF2"] = len(torsion)
    if free_idx:
        t_k = kernel_coordinates(snf_out, t_big @ kern)
        t_y = snf.V.transpose() @ t_k @ snf.V_inv.transpose()
        t_h = IntMatrix.from_rows([[t_y.entry(i, j) for j in free_idx] for i in free_idx])
        for name, mult in _label_free_lattice(t_h).items():
            out[name] = out.get(name, 0) + mult
    return out


def resolution_module_class(m_class: str, n_class: str, degree: int) -> dict[str, int]:
    """Tor_degree(M, N) as class multiplicities, from explicit resolutions.

    Degree 0 is the tensor product.  Computed by resolving the first
    argument and taking homology of the tensored complex; the induced
    t-action labels the answer inside the module class.
    """
    for name in (m_class, n_class):
        if name not in CLASS_ORDER:
            raise ValueError(f"unknown class {name!r}")
    if not 0 <= degree <= 2:
        raise ValueError("degrees 0, 1, 2 only")

    if n_class == "TorF2":
        # complexes of F_2 vector spaces: t acts as 1, so each differential is
        # its integer matrix on TrivZ, of entries a0 + a1, read mod 2; degree 0
        # maps to nothing
        h = _res_rank(m_class, degree) - sum(
            _gf2_rank_rows(_tensor_int(_res_differential(m_class, i), _REPS["TrivZ"]))
            for i in (degree, degree + 1)
            if i
        )
        if h < 0:
            raise InternalInvariantError("negative homology dimension")
        return {"TorF2": h} if h else {}

    rep = _REPS[n_class]
    rank = _res_rank(m_class, degree)
    # degree 0 maps to nothing, so every chain is a cycle
    d_out = IntMatrix(0, rank * rep.rows, ())
    if degree > 0:
        d_out = _tensor_int(_res_differential(m_class, degree), rep)
    d_in = _tensor_int(_res_differential(m_class, degree + 1), rep)
    # t acting on each copy: the diagonal group-ring matrix t·I
    t_big = _tensor_int([[(0, int(i == j)) for j in range(rank)] for i in range(rank)], rep)
    return _homology_label(d_out, d_in, t_big)


# ---------------------------------------------------------------------------
# regenerated tables


def _localize_cell(name: str, kind: str) -> dict:
    if name == "TorF2":
        if kind == "Dyadic":
            return {
                "free_rank": 0,
                "torsion_flag": True,
                "note": "2-torsion survives at the dyadic point",
            }
        return {"free_rank": 0, "torsion_flag": False}
    rep = _REPS[name]
    dim = rep.rows
    ident = IntMatrix.identity(dim)
    if kind in ("MinPlus", "OddPlus"):
        coinv = smith_normal_form(rep - ident)
    elif kind in ("MinMinus", "OddMinus"):
        coinv = smith_normal_form(rep + ident)
    else:  # Dyadic: minimal generator count over the local ring
        gens = dim - _gf2_rank_rows((rep - ident).transpose())
        cell = {"free_rank": gens, "torsion_flag": False}
        if name == "FreeR":
            cell["note"] = "free of rank 1 over the dyadic local ring (Z-rank 2)"
        else:
            cell["note"] = (
                "cyclic over the dyadic local ring; Z-torsion-free but not free over it"
            )
        return cell
    for d in coinv.divisors:
        if d not in (0, 1, 2):
            raise InternalInvariantError("unexpected coinvariant torsion")
    free = sum(1 for d in coinv.divisors if d == 0)
    # all coinvariant torsion is 2-primary, so odd sites never see it
    return {"free_rank": free, "torsion_flag": False}


def _one_minus_t_cell(name: str) -> dict:
    if name == "TorF2":
        return {"kernel": {"TorF2": 1}, "image": {}}
    rep = _REPS[name]
    dim = rep.rows
    m1 = IntMatrix.identity(dim) - rep
    snf = smith_normal_form(m1)
    kern = kernel_columns(snf)
    if kern.cols:
        kernel = _label_free_lattice(kernel_coordinates(snf, rep @ kern))
    else:
        kernel = {}
    s = sum(1 for d in snf.divisors if d)
    if s:
        # (1 - t) V[:, j] = 0 for j >= s and t commutes with 1 - t, so t acts
        # on the image basis (1 - t) V[:, :s] by the top-left block of V^-1 t V
        t_v = (snf.V_inv @ rep @ snf.V).to_rows()
        image = _label_free_lattice(IntMatrix.from_rows([row[:s] for row in t_v[:s]]))
    else:
        image = {}
    cell = {"kernel": kernel, "image": image}
    if kern.cols == 0 and s == dim:
        index = 1
        for d in snf.divisors:
            index *= d
        if index != 1:
            cell["image_index"] = index
    return cell


def regenerate_tables() -> dict:
    """Recompute the full module-arithmetic tables from resolutions.

    Symmetry of the tensor and Tor tables is verified by computing
    each pair of distinct classes in both orders.
    """
    tensor_table: dict[str, dict[str, int]] = {}
    tor_table: dict[str, dict[str, int]] = {}
    for i, x in enumerate(CLASS_ORDER):
        for y in CLASS_ORDER[i:]:
            for degree, table in ((0, tensor_table), (1, tor_table)):
                fwd = resolution_module_class(x, y, degree)
                bwd = fwd if x == y else resolution_module_class(y, x, degree)
                if fwd != bwd:
                    raise InternalInvariantError(
                        f"asymmetric degree-{degree} answer for {x}, {y}: {fwd} vs {bwd}"
                    )
                table[f"{x}*{y}"] = fwd
    localize_table = {
        name: {kind: _localize_cell(name, kind) for kind in _SITE_KINDS}
        for name in CLASS_ORDER
    }
    one_minus_t = {name: _one_minus_t_cell(name) for name in CLASS_ORDER}
    return {
        "classes": list(CLASS_ORDER),
        "tensor": tensor_table,
        "tor1": tor_table,
        "localize": localize_table,
        "one_minus_t": one_minus_t,
    }


def render_table_file_bytes() -> bytes:
    """Canonical bytes of the frozen table file, checksum included."""
    tables = regenerate_tables()
    return canonical_table_bytes(
        {"spec_version": SPEC_VERSION, "sha256": table_checksum(tables), "tables": tables}
    )


# ---------------------------------------------------------------------------
# structure invariants by their defining quotients


def _tate_dimension(m: IntMatrix, image: IntMatrix) -> int:
    """Dimension over F_2 of ker(m) / (image Z^n + 2 ker(m)), from one Smith form of m.

    The columns of ``image`` must lie in ker(m); their coordinates in
    the kernel basis come with that certificate (``kernel_coordinates``).
    """
    coords = kernel_coordinates(smith_normal_form(m), image)
    return coords.rows - _gf2_rank_rows(coords)


def tate_invariants(a: IntMatrix) -> StructureInvariants:
    """(a, b, c) from the mod-2 quotients ker(A -+ I)/(A +- I)Z^n.

    Independent of the invariant-factor route used by the lattice
    module: the quotient dimensions are read off integer kernel bases
    and one mod-2 rank each.
    """
    validate_involution(a)
    n = a.rows
    ident = IntMatrix.identity(n)
    a_dim = _tate_dimension(a - ident, a + ident)
    b_dim = _tate_dimension(a + ident, a - ident)
    c2, rem = divmod(n - a_dim - b_dim, 2)
    if rem:
        raise InternalInvariantError("Tate dimensions violate a + b + 2c = n")
    return StructureInvariants(a=a_dim, b=b_dim, c=c2)


# ---------------------------------------------------------------------------
# corpora


class CorpusMember(NamedTuple):
    invariants: StructureInvariants
    matrix: IntMatrix


def structure_classes(n: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a + b + 2c = n, regular count ascending."""
    out = []
    for c in range(n // 2 + 1):
        for a in range(n - 2 * c, -1, -1):
            out.append((a, n - 2 * c - a, c))
    return out


_CORPUS_CONJUGATOR_CAP = 9
_CORPUS_MAX_ENTRY = 5000


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def involution_corpus(n: int, seed: int, count: int) -> tuple[CorpusMember, ...]:
    """Seeded corpus: ``count`` bounded conjugates of every canonical form.

    Each conjugator P and its inverse come from ``random_unimodular`` with
    3n + 2 steps and entries within ``_CORPUS_CONJUGATOR_CAP``; a conjugate
    with an entry above ``_CORPUS_MAX_ENTRY`` is redrawn, at most 64 times.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    members: list[CorpusMember] = []
    ident = IntMatrix.identity(n)
    for a, b, c in structure_classes(n):
        canon = canonical_matrix(a, b, c)
        for i in range(count):
            mat = None
            for attempt in range(64):
                draw = _derive_seed(seed, n, a, b, c, i, attempt)
                p, p_inv = random_unimodular(n, draw, 3 * n + 2, _CORPUS_CONJUGATOR_CAP)
                cand = p @ canon @ p_inv
                if cand.max_abs() <= _CORPUS_MAX_ENTRY:
                    mat = cand
                    break
            if mat is None:
                raise InternalInvariantError("no bounded conjugate found")
            if mat @ mat != ident:
                raise InternalInvariantError("conjugate lost the involution property")
            members.append(
                CorpusMember(invariants=StructureInvariants(a=a, b=b, c=c), matrix=mat)
            )
    return tuple(members)
