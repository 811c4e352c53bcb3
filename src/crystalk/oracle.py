"""Independent brute-force verifiers.

Every quantity the main pipeline derives is recomputed here by a
different method at desk scale:

* the cohomology action, from the explicit signed action of A mod 3 on
  the full exterior-algebra basis, one bit-sliced matrix built by
  doubling over blocks of subsets; one F_3 elimination per sign gives
  the rank of each Λ^k(A mod 3) -+ I as its count of degree-k pivots,
  exact because A·A = I is checked over Z (no trace and no eigenvalue
  count);
* fixed-set component counts, from enumeration of the rational torus
  points of one grid clustered by an exact same-component certificate,
  and the dimension from the count of points per component; the points
  are joined from two half-grids on a shared key, and the counts and
  labels stay exact because the fixed-point condition and the
  certificate bits both split as sums of the two halves' residues;
* the module-arithmetic tables, from one table of free resolutions
  over Z[t]/(t^2 - 1), each class's differentials as group-ring
  matrices realized as integer matrices, homology via Smith normal
  form, labelled by the action of t on its free part and on its
  2-torsion; each localize cell is read off the class's tensor answers
  with TrivZ, SignZ and TorF2;
* structure invariants, from the mod-2 quotients that define them, on
  integer kernel bases from one Smith normal form per quotient, whose
  V_inv gives the kernel coordinates;
* seeded corpora of conjugated involutions for property sweeps, built
  from seeded unimodular matrices and their exact inverses.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from typing import NamedTuple

from .errors import DimensionTooLargeError, GridTooLargeError, InternalInvariantError
from .intlin import (
    IntMatrix,
    _bareiss,
    _byte_blocks,
    _f3_add,
    _f3_pivots,
    _gf2_basis,
    _odd_masks,
    first_row_off_identity_square,
    kernel_columns,
    kernel_coordinates,
    nonzeros,
    random_unimodular,
    smith_normal_form,
)
from .lattice import (
    ActionClass,
    StructureInvariants,
    canonical_matrix,
    invariants,
    validate_involution,
)
from .repring import (
    _SITE_KINDS,
    CLASS_ORDER,
    DYADIC,
    _pair_key,
    canonical_table_bytes,
    module,
    rank,
    sha256,
    table_checksum,
)
from .toruskt import SPEC_VERSION, CohomologyAction, cohomology_invariants, hexagon_rank_sum

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
VERIFY_GRID_MAX_N = 6
VERIFY_GRID_DENOMINATOR = 4
GRID_POINT_BOUND = 1_000_000


# ---------------------------------------------------------------------------
# exact rank over Q, and rank over F_2 of integer rows


def rank_exact(m: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(m)[0]


def _gf2_rank_rows(m: IntMatrix) -> int:
    return len(_gf2_basis(_odd_masks(nonzeros(m))))


# ---------------------------------------------------------------------------
# exterior-algebra action


def _exterior_images(a: IntMatrix) -> list[dict[int, int]]:
    """The image of e_S under Λ(A) for every subset bitmask S.

    Each image maps the bitmask of each T to the coefficient of e_T.
    With m = max S, the image of e_S is that of e_(S - m) wedged with
    A e_m, and for i not in T, e_T ∧ e_i = (-1)^j e_(T + i) where j
    counts the elements of T above i: the bits of T >> i.
    """
    n = a.rows
    # nonzero entries of each column of A, as (row, bit of the row, entry)
    columns = [[(i, 1 << i, x) for i, x in enumerate(a.column(j)) if x] for j in range(n)]
    images: list[dict[int, int]] = [{0: 1}]
    for s in range(1, 1 << n):
        last = s.bit_length() - 1
        acc: dict[int, int] = {}
        for t, cf in images[s ^ 1 << last].items():
            for i, bit, av in columns[last]:
                if t & bit:
                    continue
                u = t | bit
                if (t >> i).bit_count() & 1:
                    acc[u] = acc.get(u, 0) - cf * av
                else:
                    acc[u] = acc.get(u, 0) + cf * av
        images.append({t: c for t, c in acc.items() if c})
    return images


def exterior_power_matrix(a: IntMatrix, k: int) -> IntMatrix:
    """Matrix of the k-th exterior power of A on the combination basis."""
    if not a.is_square:
        raise ValueError("square matrix required")
    n = a.rows
    if not 0 <= k <= n:
        raise ValueError("degree out of range")
    images = _exterior_images(a)
    masks = [sum(1 << i for i in s) for s in combinations(range(n), k)]
    return IntMatrix.from_rows([[images[s].get(t, 0) for s in masks] for t in masks])


def _block_width(n: int) -> int:
    """Bits per block of ``_f3_exterior_images``: one slot per subset, whole bytes."""
    return max(1 << n, 8)


def _repeat(x: int, stride: int, count: int) -> int:
    """x ORed in at offsets 0, stride, ..., (count - 1)·stride; count a power of 2."""
    while count > 1:
        x |= x << stride
        stride, count = stride << 1, count >> 1
    return x


@lru_cache(maxsize=None)
def _wedge_masks(n: int) -> tuple[tuple[int, int], ...]:
    """Per i < n, the slots T where e_T ∧ e_i is +e_(T + i), and where it is -e_(T + i).

    Slot T holds the coefficient of e_T, T a subset bitmask; the sign is
    (-1)^j, j counting the elements of T above i, and no T holding i is in
    either.  Each mask is repeated over the 2^(n-1) blocks of
    ``_block_width(n)`` bits that the last step of ``_f3_exterior_images``
    wedges.
    """
    width = _block_width(n)
    out = []
    for i in range(n):
        masks = [0, 0]
        # T = high·2^(i+1) + low with low < 2^i: a block of 2^i slots per high
        for high in range(1 << (n - 1 - i)):
            masks[high.bit_count() & 1] |= (1 << (1 << i)) - 1 << (high << (i + 1))
        out.append(tuple(_repeat(x, width, 1 << (n - 1)) for x in masks))
    return tuple(out)


def _f3_exterior_images(a: IntMatrix) -> tuple[int, int]:
    """Λ(A mod 3) as one bit-sliced matrix: (positions of 1, positions of 2).

    Block S, the bits from S·w on for w = ``_block_width(n)``, holds the
    image of e_S: its bit T is the coefficient of e_T, T and S subset
    bitmasks.  Step m wedges every built block S < 2^m at once with
    column m of A mod 3, the image of e_m, and ORs the result in as the
    blocks S + 2^m: e_(S + 2^m) = e_S ∧ e_m, as m lies above S.  Wedging
    with e_i shifts the ``_wedge_masks`` slots by 2^i, swapping ones and
    twos where the sign flips, and an entry 2 mod 3 swaps the two masks;
    no slot leaves its block, as T + 2^i < 2^n for T without i.
    """
    n = a.rows
    width = _block_width(n)
    wedges = _wedge_masks(n)
    ones, twos = 1, 0  # the image of e_∅ is e_∅
    for m in range(n):
        acc1 = acc2 = 0
        for i, x in enumerate(a.column(m)):
            if x % 3:
                plus, minus = wedges[i] if x % 3 == 1 else wedges[i][::-1]
                add1 = (ones & plus | twos & minus) << (1 << i)
                add2 = (twos & plus | ones & minus) << (1 << i)
                t = (acc1 | add2) ^ (acc2 | add1)  # acc += add, as ``_f3_add``
                acc1, acc2 = (acc2 | add2) ^ t, (acc1 | add1) ^ t
        ones, twos = ones | acc1 << (width << m), twos | acc2 << (width << m)
    return ones, twos


def exterior_action_invariants(a: IntMatrix) -> CohomologyAction:
    """Invariant/anti-invariant cohomology dimensions by explicit solve.

    After one exact check of A·A = I, Λ(A mod 3) is built once as one
    bit-sliced matrix M (``_f3_exterior_images``).  M - I and M + I are
    cut into their 2^n columns and each is reduced by one F_3
    elimination; the rank of Λ^k(A mod 3) -+ I is the number of pivots
    in degree k, and each kernel dimension is C(n, k) less it.  No trace
    and no eigenvalue count enters.

    Exactness: by Cauchy-Binet Λ^k(A)² = Λ^k(A²) = I, and Λ^k(A) mod 3
    = Λ^k(A mod 3) as its entries are minors of A.  An involution over Q
    or over F_3 splits the space into its ±1 eigenspaces, so both rank
    pairs sum to C(n, k); no F_3 rank exceeds its Q rank (a minor nonzero
    mod 3 is nonzero), so the pairs agree.

    Ranks per degree: column S of M -+ I, with |S| = k, has its support
    in the degree-k slots, so its leading position has degree k, and the
    elimination reduces it only by stored columns of that leading
    position, which by induction are supported in degree k too.  The
    table splits by degree, and its pivots of degree k span the columns
    of Λ^k(A mod 3) -+ I: their count is that block's rank.  The F_3
    complement check is kept per degree: ker(M - I) meets ker(M + I) in
    0, so each degree's rank sum is at least C(n, k), and it is C(n, k)
    exactly when Λ^k(A mod 3) is an involution.
    """
    if not a.is_square:
        raise ValueError("square matrix required")
    n = a.rows
    if n > EXTERIOR_MAX_DIM:
        raise DimensionTooLargeError(
            f"exterior verifier bounded at n <= {EXTERIOR_MAX_DIM}, got {n}"
        )
    if first_row_off_identity_square(nonzeros(a)) is not None:
        raise InternalInvariantError("exterior action is not semisimple over Q")
    images = _f3_exterior_images(a)
    width = _block_width(n)
    diagonal = _repeat(1, width + 1, 1 << n)  # bit S of block S
    ranks = []
    # subtracting I adds 2 on the diagonal, adding I adds 1
    for shifted in (_f3_add(images, (0, diagonal)), _f3_add(images, (diagonal, 0))):
        columns = zip(*(_byte_blocks(x, width >> 3, 1 << n) for x in shifted))
        ranks.append(Counter(map(int.bit_count, _f3_pivots(columns))))
    minus, plus = ranks
    dims = [0] * 4  # even_inv, odd_inv, even_anti, odd_anti
    for k in range(n + 1):
        size = comb(n, k)
        if minus[k] + plus[k] != size:
            raise InternalInvariantError(
                f"F_3 ranks {minus[k]} + {plus[k]} of M -+ I in degree {k}"
                f" do not complement to C({n}, {k}) = {size}"
            )
        dims[k % 2] += size - minus[k]
        dims[2 + k % 2] += size - plus[k]
    return CohomologyAction(*dims)


# ---------------------------------------------------------------------------
# torus grid enumeration


class FixedGridResult(NamedTuple):
    components: int
    dim_estimate: int
    count: int


def fixed_grid_components(a: IntMatrix, d: int) -> FixedGridResult:
    """Fixed-set component count and dimension from rational grid enumeration.

    Enumerates all x in (1/d)Z^n mod Z^n with A x = x on the torus and
    clusters them with an exact same-component certificate: two fixed
    points lie on the same affine subtorus exactly when the integer
    vector (A - I)(x - y) lies in (A - I)Z^n + 2Z^n, a mod-2 column
    space membership.  Each component is a translate of one subtorus by
    a half-integer vector, so for even d it meets the grid in exactly
    d^dim points, and the count must be components·d^dim.

    A point x = v/d has residues r = (A - I)v mod 2d: it is fixed when
    r = 0 mod d, and its certificate bits ((A - I)v / d) mod 2 are then
    floor(r / d); another representative v + d·e_j changes them by
    column j of A - I, which the column-space reduction removes.  All
    arithmetic is on Python integers reduced with %, so it is exact.

    The grid is joined from two half-grids (meet in the middle): every
    v is w - u for one u on the first side, the first n // 2
    coordinates, and one w on the second, the last n // 2; for odd n
    the middle coordinate is step·hi - lo, with lo < step on the first
    side, hi < d / step on the second and step the largest divisor of d
    up to its square root.  With N = d·b + s (0 <= s < d) the residues
    of (A - I)u or (A - I)w, r = N2 - N1 mod 2d: v is fixed exactly
    when s1 = s2 in every row, so s is the key on both sides, and then
    r = d·(b2 - b1), so the certificate bits are b1 xor b2 (the
    reduction is linear, so it can follow the xor).  The first side is
    held per key; the second, at least as large, is looked up as it is
    generated.  Each has about d^(n/2) points, more for odd n when d has
    no divisor near its square root.

    A point's residues are packed into one integer, a slot of
    bit_length(2d) + 2 bits per row, wide enough for the sum of two
    residues: the slot-wise test x >= c is (x + top - c·ones) & top,
    and reduction mod c subtracts c where that bit is set.
    """
    if not a.is_square or a.rows == 0:
        raise ValueError(f"need a square matrix of positive size, got {a.rows}x{a.cols}")
    n = a.rows
    if d < 2 or d % 2:
        raise ValueError("grid denominator must be an even integer >= 2")
    if d**n > GRID_POINT_BOUND:
        raise GridTooLargeError(f"d^n = {d**n} exceeds {GRID_POINT_BOUND}")
    m_int = a - IntMatrix.identity(n)
    mod = 2 * d
    width = mod.bit_length() + 2
    shift = width - 1
    ones = sum(1 << (i * width) for i in range(n))
    top = ones << shift
    over = top - mod * ones

    # each side's digits: (column of A - I, its scale, radix)
    k = n // 2
    first = [(m_int.column(j), 1, d) for j in range(k)]
    second = [(m_int.column(j), 1, d) for j in range(n - k, n)]
    if n % 2:
        # the larger radix d / step >= step goes to the second side, which is not held
        step = max(x for x in range(1, isqrt(d) + 1) if d % x == 0)
        first.append((m_int.column(k), 1, step))
        second.insert(0, (m_int.column(k), step, d // step))

    def add(ms, xs):
        return (s - ((s + over & top) >> shift) * mod for m in ms for x in xs for s in [m + x])

    def multiples(column, scale, radix):
        col = sum(scale * x % mod << (i * width) for i, x in enumerate(column))
        x = 0
        for _ in range(radix):
            yield x
            x += col
            x -= ((x + over & top) >> shift) * mod

    def side(digits):
        """Key (residues mod d) and certificate bits (top bits of the slots
        >= d) of each point; all but the first digit's points are held."""
        points = [0]
        for digit in digits[1:]:
            points = list(add(multiples(*digit), points))
        for x in add(multiples(*digits[0]), points):
            high = x + top - d * ones & top
            yield x - (high >> shift) * d, high

    counts1: Counter[int] = Counter()
    highs1: dict[int, set[int]] = {}
    for key, high in side(first):
        counts1[key] += 1
        highs1.setdefault(key, set()).add(high)
    count = 0
    components: set[int] = set()
    for key, high in side(second):
        if key in counts1:
            count += counts1[key]
            components.update(high ^ h for h in highs1[key])
    # reduce modulo the mod-2 column space, its bit i spread to the top of slot i
    for b in _gf2_basis(_odd_masks(nonzeros(m_int.transpose()))):
        lead = (b.bit_length() - 1) * width + shift
        b = sum(1 << (i * width + shift) for i in range(n) if b >> i & 1)
        components = {x ^ b if x >> lead & 1 else x for x in components}
    dim, size = 0, len(components)
    while size < count:
        dim, size = dim + 1, size * d
    if count == 0 or size != count:  # the origin is always fixed
        raise InternalInvariantError(
            f"{count} fixed points are not {len(components)} components of {d}^dim points"
        )
    return FixedGridResult(components=len(components), dim_estimate=dim, count=count)


# ---------------------------------------------------------------------------
# resolutions over Z[t]/(t^2 - 1)

# group-ring entries as (constant, t-coefficient)
_ZERO, _T_PLUS, _T_MINUS = (0, 0), (1, 1), (-1, 1)  # 0, t + 1, t - 1

# each class's free resolution: d_1, then d_i for odd i >= 3 and for even i,
# each as a matrix over the group ring; F_i has one R per row of d_(i+1)
_RESOLUTIONS = {
    "FreeR": ([[]], [], []),
    "TrivZ": ([[_T_MINUS]], [[_T_MINUS]], [[_T_PLUS]]),
    "SignZ": ([[_T_PLUS]], [[_T_PLUS]], [[_T_MINUS]]),
    "TorF2": (
        [[(2, 0), _T_PLUS]],
        [[(1, -1), _ZERO], [(0, 2), _T_PLUS]],
        [[_T_PLUS, _ZERO], [(0, -2), (1, -1)]],
    ),
}

_REPS: dict[str, IntMatrix] = {
    "FreeR": IntMatrix.from_rows([[0, 1], [1, 0]]),
    "TrivZ": IntMatrix.from_rows([[1]]),
    "SignZ": IntMatrix.from_rows([[-1]]),
}


def _tensor_int(rmat: list[list[tuple[int, int]]], rep: IntMatrix) -> IntMatrix:
    """Apply a matrix over the group ring to copies of an integer module."""
    dim = range(rep.rows)
    return IntMatrix.from_rows(
        [
            [a1 * rep.entry(x, y) + a0 * (x == y) for a0, a1 in row for y in dim]
            for row in rmat
            for x in dim
        ]
    )


def _homology_label(d_out: IntMatrix, d_in: IntMatrix, t_big: IntMatrix) -> dict[str, int]:
    """Class-labelled homology ker(d_out)/im(d_in) with its t-action.

    One Smith form of d_out gives the kernel basis and, through its
    V_inv, the coordinates of im(d_in) and of t on that kernel.  A
    second, of the transposed image coordinates, splits the kernel into
    torsion and free parts, and its V'^T and V'_inv^T are that change of
    basis and its inverse.  The 2-torsion is TorF2 only where t acts on
    it as 1; the free part's (a, b, c) counts its TrivZ, SignZ and FreeR.
    """
    snf_out = smith_normal_form(d_out)
    kern = kernel_columns(snf_out)
    r = kern.cols
    if r == 0:
        return {}
    x = kernel_coordinates(snf_out, d_in)
    # from U' x^T V' = D' the left transform of x is L = V'^T, with L^-1 = V'_inv^T
    snf = smith_normal_form(x.transpose())
    divisors = snf.divisors + (0,) * (r - len(snf.divisors))
    if max(divisors) > 2:
        raise InternalInvariantError(f"unexpected torsion {max(divisors)} in module homology")
    # coordinate i of y = L k is Z/2 where divisors[i] is 2 and Z where it is 0
    torsion = [i for i, d in enumerate(divisors) if d == 2]
    free = [i for i, d in enumerate(divisors) if d == 0]
    if not torsion and not free:
        return {}
    t_k = kernel_coordinates(snf_out, t_big @ kern)
    t_y = snf.V.transpose() @ t_k @ snf.V_inv.transpose()
    if any((t_y.entry(i, j) - (i == j)) % 2 for i in torsion for j in torsion):
        raise InternalInvariantError("t does not act as 1 on the 2-torsion of module homology")
    out = {"TorF2": len(torsion)} if torsion else {}
    if free:
        t_h = IntMatrix.from_rows([[t_y.entry(i, j) for j in free] for i in free])
        abc = invariants(validate_involution(t_h))
        out.update((name, m) for name, m in zip(("TrivZ", "SignZ", "FreeR"), abc) if m)
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

    first, odd, even = _RESOLUTIONS[m_class]
    # d_0 maps F_0 to nothing, written as one zero row
    d_out, d_in = ([[_ZERO] * len(first)], first, even, odd)[degree : degree + 2]
    rank = len(d_in)
    if n_class == "TorF2":
        # complexes of F_2 vector spaces: t acts as 1, so each differential is
        # its integer matrix on TrivZ, of entries a0 + a1, read mod 2
        h = rank - sum(_gf2_rank_rows(_tensor_int(d, _REPS["TrivZ"])) for d in (d_out, d_in))
        if h < 0:
            raise InternalInvariantError("negative homology dimension")
        return {"TorF2": h} if h else {}

    rep = _REPS[n_class]
    # t acting on each copy: the diagonal group-ring matrix t·I
    t_big = _tensor_int([[(0, int(i == j)) for j in range(rank)] for i in range(rank)], rep)
    return _homology_label(_tensor_int(d_out, rep), _tensor_int(d_in, rep), t_big)


# ---------------------------------------------------------------------------
# regenerated tables


def _localize_cell(answers: dict[str, dict[str, int]], kind: str) -> dict:
    """A class M localized at a site kind, read off ``answers[y]`` = M ⊗ y.

    2 is a unit at a minimal or odd site, where t acts as a sign s: the
    free rank is the Z-rank of M ⊗ R/(t - s), TrivZ's answer on the Plus
    branch and SignZ's on the Minus one.  At the dyadic point M ⊗ TorF2 =
    M/(t - 1, 2)M counts the generators (Nakayama), and the two branch
    ranks add up to M's Z-rank: 0 leaves only 2-torsion, which survives
    there alone, and a Z-torsion-free M on `gens` generators is free
    exactly when its Z-rank is 2·gens.
    """
    plus, minus = (rank(module(**answers[y])) for y in ("TrivZ", "SignZ"))
    if kind != DYADIC:
        return {"free_rank": plus if kind.endswith("Plus") else minus, "torsion_flag": False}
    gens, z_rank = answers["TorF2"].get("TorF2", 0), plus + minus
    if z_rank == 0:
        note = "2-torsion survives at the dyadic point"
        return {"free_rank": 0, "torsion_flag": True, "note": note}
    if z_rank == 2 * gens:
        note = f"free of rank {gens} over the dyadic local ring (Z-rank {z_rank})"
    elif gens == 1:
        note = "cyclic over the dyadic local ring; Z-torsion-free but not free over it"
    else:
        raise InternalInvariantError(f"Z-rank {z_rank} on {gens} dyadic generators, not free")
    return {"free_rank": gens, "torsion_flag": False, "note": note}


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
                table[_pair_key(x, y)] = fwd
    localize_table = {}
    for name in CLASS_ORDER:
        answers = {y: tensor_table[_pair_key(name, y)] for y in ("TrivZ", "SignZ", "TorF2")}
        localize_table[name] = {kind: _localize_cell(answers, kind) for kind in _SITE_KINDS}
    return {
        "classes": list(CLASS_ORDER),
        "tensor": tensor_table,
        "tor1": tor_table,
        "localize": localize_table,
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
    digest = sha256(":".join(str(p) for p in parts).encode()).digest()
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
            if first_row_off_identity_square(nonzeros(mat)) is not None:
                raise InternalInvariantError("conjugate lost the involution property")
            members.append(
                CorpusMember(invariants=StructureInvariants(a=a, b=b, c=c), matrix=mat)
            )
    return tuple(members)


# ---------------------------------------------------------------------------
# verify's checks: each returns whether the member passes, or None where it
# does not apply to the member's class, and calls the verifiers at call time


def _check_invariants(member, analysis, report, first_ranks):
    """(a, b, c) from the trace and an F_2 rank, against the corpus's canonical form."""
    return analysis.invariants == member.invariants


def _check_tate(member, analysis, report, first_ranks):
    """(a, b, c) from the mod-2 quotients ker(A -+ I)/(A +- I)Z^n (``tate_invariants``)."""
    return tate_invariants(member.matrix) == member.invariants


def _check_conjugation(member, analysis, report, first_ranks):
    """Ranks against those of the class's first member: conjugates share their K-theory."""
    return report["ranks"] == first_ranks


def _check_hexagon(member, analysis, report, first_ranks):
    """The alternating rank sum around the six-term exact sequence (``hexagon_rank_sum``)."""
    return hexagon_rank_sum(analysis) == 0


def _check_routes(member, analysis, report, first_ranks):
    """The Kunneth assembly against the delocalized route, which it compares or raises."""
    return True if analysis.action_class is ActionClass.MIXED_SPLIT else None


def _check_exterior(member, analysis, report, first_ranks):
    """The cohomology action from Λ(A mod 3) on the exterior algebra, over F_3."""
    return exterior_action_invariants(member.matrix) == cohomology_invariants(analysis)


def _check_grid(member, analysis, report, first_ranks):
    """Fixed-set components and dimension from enumerated rational torus points."""
    grid = fixed_grid_components(member.matrix, VERIFY_GRID_DENOMINATOR)
    return (grid.components, grid.dim_estimate) == (analysis.fixed_components, analysis.fixed_dim)


# one (name, check) row per check, each called as check(member, analysis, report, first_ranks)
VERIFY_CHECKS = (
    ("invariants", _check_invariants),
    ("tate", _check_tate),
    ("conjugation", _check_conjugation),
    ("hexagon", _check_hexagon),
    ("routes", _check_routes),
    ("exterior", _check_exterior),
    ("grid", _check_grid),
)


def verify_checks(n: int, skip_grid: bool) -> tuple:
    """The rows a sweep at rank n runs: no ``exterior`` above its bound, no skipped ``grid``."""
    if n > VERIFY_GRID_MAX_N and not skip_grid:
        raise GridTooLargeError(
            f"grid verifier is bounded at n <= {VERIFY_GRID_MAX_N}; "
            f"pass --skip-grid to sweep n = {n} without it"
        )
    left_out = {"exterior": n > EXTERIOR_MAX_DIM, "grid": skip_grid}
    return tuple(row for row in VERIFY_CHECKS if not left_out.get(row[0]))
