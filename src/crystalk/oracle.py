"""Independent brute-force verifiers.

Every quantity the main pipeline derives from Smith normal form is
recomputed here by a different method at desk scale:

* the cohomology action, from the explicit signed action on the full
  exterior-algebra basis (exact rank computations, no eigenvalue count);
* fixed-set component counts, from enumeration of rational torus
  points clustered by an exact same-component certificate;
* the module-arithmetic tables, from explicit free resolutions over
  Z[t]/(t^2 - 1) realized as integer matrices, homology via Smith
  normal form;
* structure invariants, from the mod-2 quotients that define them;
* seeded corpora of conjugated involutions for property sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionTooLargeError, GridTooLargeError, InternalInvariantError
from .intlin import (
    IntMatrix,
    _unimodular_with_inverse,
    express_in_basis,
    inv_unimodular,
    kernel_basis,
    smith_normal_form,
)
from .lattice import (
    StructureInvariants,
    canonical_matrix,
    invariants,
    validate_involution,
)
from .repring import _SITE_KINDS, CLASS_ORDER, table_checksum
from .toruskt import SPEC_VERSION, CohomologyAction

__all__ = [
    "AbelianShape",
    "FixedGridResult",
    "Corpus",
    "CorpusMember",
    "exterior_power_matrix",
    "exterior_action_invariants",
    "fixed_grid_components",
    "resolution_tor",
    "resolution_module_class",
    "regenerate_tables",
    "render_table_file_bytes",
    "involution_corpus",
    "structure_classes",
    "tate_invariants",
    "rank_exact",
    "corpus_to_json",
    "corpus_from_json",
]

EXTERIOR_MAX_DIM = 8
GRID_POINT_BOUND = 1_000_000
GRID_SWEEP_BOUND = 16_777_216


# ---------------------------------------------------------------------------
# exact rank and GF(2) helpers


def rank_exact(m: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    a = m.to_rows()
    nr, nc = m.rows, m.cols
    rank = 0
    row = 0
    prev = 1
    for col in range(nc):
        piv = None
        for i in range(row, nr):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        for i in range(row + 1, nr):
            # rows with a zero head still need the fraction-free update
            head = a[i][col]
            ai, ar = a[i], a[row]
            for j in range(col + 1, nc):
                ai[j] = (ai[j] * p - head * ar[j]) // prev
            ai[col] = 0
        prev = p
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


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


def _gf2_rank_rows(m: IntMatrix) -> int:
    masks = []
    for row in m.to_rows():
        bits = 0
        for j, x in enumerate(row):
            if x % 2:
                bits |= 1 << j
        masks.append(bits)
    return len(_gf2_basis(masks))


# ---------------------------------------------------------------------------
# exterior-algebra action


def _exterior_images(a: IntMatrix) -> list[list[dict[tuple[int, ...], int]]]:
    """Images of every exterior basis vector e_S, degree by degree.

    Degree k entries are aligned with itertools-combinations order of
    the index sets S.
    """
    from itertools import combinations

    n = a.rows
    combos = [list(combinations(range(n), k)) for k in range(n + 1)]
    index = [{s: i for i, s in enumerate(combos[k])} for k in range(n + 1)]
    images: list[list[dict[tuple[int, ...], int]]] = [[{(): 1}]]
    for k in range(1, n + 1):
        level: list[dict[tuple[int, ...], int]] = []
        for s in combos[k]:
            prefix, last = s[:-1], s[-1]
            acc: dict[tuple[int, ...], int] = {}
            for t, cf in images[k - 1][index[k - 1][prefix]].items():
                for i in range(n):
                    av = a.entry(i, last)
                    if not av or i in t:
                        continue
                    pos = 0
                    while pos < len(t) and t[pos] < i:
                        pos += 1
                    sign = -1 if (len(t) - pos) % 2 else 1
                    new_t = t[:pos] + (i,) + t[pos:]
                    acc[new_t] = acc.get(new_t, 0) + sign * cf * av
            level.append({t: c for t, c in acc.items() if c})
        images.append(level)
    return images


def _images_matrix(images: list[dict[tuple[int, ...], int]], n: int, k: int) -> IntMatrix:
    """Matrix whose columns are the degree-k images, on the combination basis."""
    from itertools import combinations

    index = {s: i for i, s in enumerate(combinations(range(n), k))}
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


def exterior_action_invariants(a: IntMatrix) -> CohomologyAction:
    """Invariant/anti-invariant cohomology dimensions by explicit solve.

    Builds the full exterior action once and computes exact kernel
    dimensions of (M - I) and (M + I) per degree.  Independent of the
    eigenvalue-count route.
    """
    if not a.is_square:
        raise ValueError("square matrix required")
    n = a.rows
    if n > EXTERIOR_MAX_DIM:
        raise DimensionTooLargeError(
            f"exterior verifier bounded at n <= {EXTERIOR_MAX_DIM}, got {n}"
        )
    images = _exterior_images(a)
    even_inv = odd_inv = even_anti = odd_anti = 0
    for k in range(n + 1):
        m = _images_matrix(images[k], n, k)
        dim = m.rows
        ident = IntMatrix.identity(dim)
        inv_dim = dim - rank_exact(m - ident)
        anti_dim = dim - rank_exact(m + ident)
        if inv_dim + anti_dim != dim:
            raise InternalInvariantError("exterior action is not semisimple over Q")
        if k % 2 == 0:
            even_inv += inv_dim
            even_anti += anti_dim
        else:
            odd_inv += inv_dim
            odd_anti += anti_dim
    return CohomologyAction(
        even_inv=even_inv, odd_inv=odd_inv, even_anti=even_anti, odd_anti=odd_anti
    )


# ---------------------------------------------------------------------------
# torus grid enumeration


@dataclass(frozen=True)
class FixedGridResult:
    components: int
    dim_estimate: int
    count: int
    count_double: int


def _grid_chunks(n: int, d: int, chunk: int = 1 << 18):
    total = d**n
    powers = (d ** np.arange(n - 1, -1, -1)).astype(np.int64)
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        yield (idx[:, None] // powers) % d
        start = stop


def _count_fixed(m: np.ndarray, n: int, d: int) -> int:
    count = 0
    for v in _grid_chunks(n, d):
        prod = v @ m.T
        count += int(((prod % d) == 0).all(axis=1).sum())
    return count


def fixed_grid_components(a: IntMatrix, d: int) -> FixedGridResult:
    """Fixed-set component count from rational grid enumeration.

    Enumerates all x in (1/d)Z^n mod Z^n with A x = x on the torus and
    clusters them with an exact same-component certificate: two fixed
    points lie on the same affine subtorus exactly when the integer
    vector (A - I)(x - y) lies in (A - I)Z^n + 2Z^n, a mod-2 column
    space membership.  The dimension is estimated from the growth of
    the fixed-point count between grids d and 2d.

    ``d`` must be even so that every component (an affine translate by
    a half-integer vector) meets the grid.
    """
    if not a.is_square:
        raise ValueError("square matrix required")
    n = a.rows
    if d < 2 or d % 2:
        raise ValueError("grid denominator must be an even integer >= 2")
    if d**n > GRID_POINT_BOUND:
        raise GridTooLargeError(f"d^n = {d**n} exceeds {GRID_POINT_BOUND}")
    if (2 * d) ** n > GRID_SWEEP_BOUND:
        raise GridTooLargeError("doubled grid for the dimension estimate is too large")
    m_int = a - IntMatrix.identity(n)
    if m_int.max_abs() * d * n >= 2**62:
        raise GridTooLargeError("entries too large for exact 64-bit enumeration")
    m = np.array(m_int.to_rows(), dtype=np.int64)

    # column space of (A - I) mod 2, as bitmasks
    basis = _gf2_basis(
        [
            sum((abs(m_int.entry(i, j)) % 2) << i for i in range(n))
            for j in range(n)
        ]
    )

    labels: set[int] = set()
    count = 0
    bit_weights = (1 << np.arange(n)).astype(np.int64)
    for v in _grid_chunks(n, d):
        prod = v @ m.T
        mask = ((prod % d) == 0).all(axis=1)
        if not mask.any():
            continue
        count += int(mask.sum())
        mv = prod[mask] // d
        bits = ((mv % 2) * bit_weights).sum(axis=1)
        for b in basis:
            p = b.bit_length() - 1
            hit = ((bits >> p) & 1).astype(bool)
            bits[hit] ^= b
        labels.update(int(x) for x in np.unique(bits))
    if count == 0:
        raise InternalInvariantError("origin is always a fixed point")

    count_double = _count_fixed(m, n, 2 * d)
    ratio, rem = divmod(count_double, count)
    if rem or ratio & (ratio - 1):
        raise InternalInvariantError(
            f"fixed-point growth {count} -> {count_double} is not a power of 2"
        )
    return FixedGridResult(
        components=len(labels),
        dim_estimate=ratio.bit_length() - 1,
        count=count,
        count_double=count_double,
    )


# ---------------------------------------------------------------------------
# resolutions over Z[t]/(t^2 - 1)

_T_PLUS = (1, 1)  # t + 1
_T_MINUS = (-1, 1)  # t - 1
_ONE_MINUS_T = (1, -1)
_ONE_PLUS_T = (1, 1)

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
    if name == "TorF2":
        return 1 if i == 0 else 2
    raise ValueError(f"unknown class {name!r}")


def _res_differential(name: str, i: int) -> list[list[tuple[int, int]]]:
    """The i-th differential (i >= 1) of the standard free resolution,
    entries recorded as (constant, t-coefficient)."""
    if i < 1:
        raise ValueError("differentials start at degree 1")
    if name == "FreeR":
        return [[] for _ in range(_res_rank(name, i - 1))]
    if name == "TrivZ":
        entry = _T_MINUS if i % 2 else _T_PLUS
        return [[entry]]
    if name == "SignZ":
        entry = _T_PLUS if i % 2 else _T_MINUS
        return [[entry]]
    if name == "TorF2":
        if i == 1:
            return [[(2, 0), (1, 1)]]
        if i % 2 == 0:
            return [[(1, 1), (0, 0)], [(0, -2), (1, -1)]]
        return [[(1, -1), (0, 0)], [(0, 2), (1, 1)]]
    raise ValueError(f"unknown class {name!r}")


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


def _tensor_f2_masks(rmat: list[list[tuple[int, int]]]) -> list[int]:
    """Rows of the induced F_2 matrix (t acts as 1, char 2), as bitmasks."""
    masks = []
    for row in rmat:
        bits = 0
        for j, (a0, a1) in enumerate(row):
            if (a0 + a1) % 2:
                bits |= 1 << j
        masks.append(bits)
    return masks


def _block_diag(rep: IntMatrix, copies: int) -> IntMatrix:
    dim = rep.rows
    size = dim * copies
    rows = [[0] * size for _ in range(size)]
    for c in range(copies):
        for x in range(dim):
            for y in range(dim):
                rows[c * dim + x][c * dim + y] = rep.entry(x, y)
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, 0, ())


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


def _homology_label(
    dim: int, d_out: IntMatrix | None, d_in: IntMatrix, t_big: IntMatrix
) -> dict[str, int]:
    """Class-labelled homology ker(d_out)/im(d_in) with its t-action."""
    if d_out is None:
        kern = IntMatrix.identity(dim)
    else:
        kern = kernel_basis(d_out)
    r = kern.cols
    if r == 0:
        return {}
    if d_in.cols == 0:
        x = IntMatrix(r, 0, ())
    else:
        x = express_in_basis(kern, d_in)
    snf = smith_normal_form(x)
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
        t_k = express_in_basis(kern, t_big @ kern)
        t_y = snf.U @ t_k @ inv_unimodular(snf.U)
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
        # complexes of F_2 vector spaces
        d_out_rank = 0
        if degree > 0:
            d_out_rank = len(_gf2_basis(_tensor_f2_masks(_res_differential(m_class, degree))))
        d_in_rank = len(_gf2_basis(_tensor_f2_masks(_res_differential(m_class, degree + 1))))
        dim = _res_rank(m_class, degree)
        h = (dim - d_out_rank) - d_in_rank
        if h < 0:
            raise InternalInvariantError("negative homology dimension")
        return {"TorF2": h} if h else {}

    rep = _REPS[n_class]
    dim = _res_rank(m_class, degree) * rep.rows
    d_out = None
    if degree > 0:
        d_out = _tensor_int(_res_differential(m_class, degree), rep)
    d_in = _tensor_int(_res_differential(m_class, degree + 1), rep)
    t_big = _block_diag(rep, _res_rank(m_class, degree))
    return _homology_label(dim, d_out, d_in, t_big)


@dataclass(frozen=True)
class AbelianShape:
    """Underlying abelian group of a module-class answer."""

    free_rank: int
    torsion: tuple[int, ...]


def resolution_tor(m_class: str, n_class: str, degree: int) -> AbelianShape:
    """Tor_degree(M, N) as an abelian group."""
    label = resolution_module_class(m_class, n_class, degree)
    free = 2 * label.get("FreeR", 0) + label.get("TrivZ", 0) + label.get("SignZ", 0)
    torsion = (2,) * label.get("TorF2", 0)
    return AbelianShape(free_rank=free, torsion=torsion)


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
    kern = kernel_basis(m1)
    if kern.cols:
        kernel = _label_free_lattice(express_in_basis(kern, rep @ kern))
    else:
        kernel = {}
    snf = smith_normal_form(m1)
    s = sum(1 for d in snf.divisors if d)
    if s:
        mv = m1 @ snf.V
        image_basis = IntMatrix.from_rows(
            [[mv.entry(i, j) for j in range(s)] for i in range(dim)]
        )
        image = _label_free_lattice(express_in_basis(image_basis, rep @ image_basis))
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
    each pair in both orders.
    """
    tensor_table: dict[str, dict[str, int]] = {}
    tor_table: dict[str, dict[str, int]] = {}
    for i, x in enumerate(CLASS_ORDER):
        for y in CLASS_ORDER[i:]:
            for degree, table in ((0, tensor_table), (1, tor_table)):
                fwd = resolution_module_class(x, y, degree)
                bwd = resolution_module_class(y, x, degree)
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
    doc = {
        "spec_version": SPEC_VERSION,
        "sha256": table_checksum(tables),
        "tables": tables,
    }
    return json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"


# ---------------------------------------------------------------------------
# structure invariants by their defining quotients


def tate_invariants(a: IntMatrix) -> StructureInvariants:
    """(a, b, c) from the mod-2 quotients ker(A -+ I)/(A +- I)Z^n.

    Independent of the invariant-factor route used by the lattice
    module: the quotient dimensions are read off integer kernel bases
    and one mod-2 rank each.
    """
    validate_involution(a)
    n = a.rows
    ident = IntMatrix.identity(n)
    fixed = kernel_basis(a - ident)
    norm_in_fixed = express_in_basis(fixed, a + ident)
    a_dim = fixed.cols - _gf2_rank_rows(norm_in_fixed)
    anti = kernel_basis(a + ident)
    twist_in_anti = express_in_basis(anti, a - ident)
    b_dim = anti.cols - _gf2_rank_rows(twist_in_anti)
    c2, rem = divmod(n - a_dim - b_dim, 2)
    if rem:
        raise InternalInvariantError("Tate dimensions violate a + b + 2c = n")
    return StructureInvariants(a=a_dim, b=b_dim, c=c2)


# ---------------------------------------------------------------------------
# corpora


@dataclass(frozen=True)
class CorpusMember:
    invariants: StructureInvariants
    matrix: IntMatrix


@dataclass(frozen=True)
class Corpus:
    n: int
    seed: int
    members: tuple[CorpusMember, ...]


def structure_classes(n: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a + b + 2c = n, regular count ascending."""
    out = []
    for c in range(n // 2 + 1):
        for a in range(n - 2 * c, -1, -1):
            out.append((a, n - 2 * c - a, c))
    return out


def _derive_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def involution_corpus(
    n: int,
    seed: int,
    count: int,
    steps: int | None = None,
    cap: int = 9,
    max_entry: int = 5000,
) -> Corpus:
    """Seeded corpus: ``count`` bounded conjugates of every canonical form."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    if steps is None:
        steps = 3 * n + 2
    members: list[CorpusMember] = []
    ident = IntMatrix.identity(n)
    for a, b, c in structure_classes(n):
        canon = canonical_matrix(a, b, c)
        for i in range(count):
            mat = None
            for attempt in range(64):
                p, p_inv = _unimodular_with_inverse(
                    n, _derive_seed(seed, n, a, b, c, i, attempt), steps, cap
                )
                cand = p @ canon @ p_inv
                if cand.max_abs() <= max_entry:
                    mat = cand
                    break
            if mat is None:
                raise InternalInvariantError("no bounded conjugate found")
            if mat @ mat != ident:
                raise InternalInvariantError("conjugate lost the involution property")
            members.append(
                CorpusMember(invariants=StructureInvariants(a=a, b=b, c=c), matrix=mat)
            )
    return Corpus(n=n, seed=seed, members=tuple(members))


def corpus_to_json(corpus: Corpus) -> str:
    return json.dumps(
        {
            "spec_version": SPEC_VERSION,
            "n": corpus.n,
            "seed": corpus.seed,
            "members": [
                {
                    "invariants": m.invariants.as_dict(),
                    "matrix": m.matrix.to_rows(),
                }
                for m in corpus.members
            ],
        },
        sort_keys=True,
    )


def corpus_from_json(text: str) -> Corpus:
    doc = json.loads(text)
    members = tuple(
        CorpusMember(
            invariants=StructureInvariants(**m["invariants"]),
            matrix=IntMatrix.from_rows(m["matrix"]),
        )
        for m in doc["members"]
    )
    return Corpus(n=doc["n"], seed=doc["seed"], members=members)
