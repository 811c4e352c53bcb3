"""Torus fixed-point geometry and the two K-theory rank pipelines.

For an involution A on Z^n acting on the n-torus, this module computes

* the fixed set (a disjoint union of affine subtori),
* the action on torus cohomology from the eigenvalue counts of A,
* equivariant K-theory ranks by the delocalized fixed-point formula,
* the same ranks again, for split actions, by the Kunneth/localization
  assembly with a replayable torsion-freeness certificate, and
* the K-theory of the reduced C*-algebra of Z^n x| Z/2 by dualizing.

The two routes are independent, and :func:`integral_k_theory` checks
them against each other where both apply.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .errors import InternalInvariantError, ScopeError
from .lattice import ActionClass, InvolutiveLattice
from .repring import (
    DYADIC,
    MIN_MINUS,
    MIN_PLUS,
    ODD_MINUS,
    ODD_PLUS,
    SITE_LABELS,
    localize,
    module,
    rank as module_rank,
    tensor,
    tor1,
)

__all__ = [
    "SPEC_VERSION",
    "FixedSetDescription",
    "CohomologyAction",
    "fixed_set",
    "cohomology_invariants",
    "twisted_ranks",
    "k_ranks_delocalized",
    "kunneth_assembly",
    "integral_k_theory",
    "hexagon_rank_sum",
    "structure_report",
    "build_report",
    "collect_torsion_flags",
]

SPEC_VERSION = "1.0"

# the prime sites of the two branches the Kunneth certificate localizes at
_J_BRANCH_SITES = (MIN_MINUS, ODD_MINUS)
_I_BRANCH_SITES = (MIN_PLUS, ODD_PLUS, DYADIC)

# the report's scope_flag values
_INTEGRAL_CERTIFIED = "IntegralCertified"
_RATIONAL_ONLY = "RationalOnly"


class FixedSetDescription(NamedTuple):
    """Fixed set of the torus involution: 2^b affine subtori of dimension a+c."""

    dim: int
    components: int


class CohomologyAction(NamedTuple):
    """Dimensions of the (anti-)invariant parts of even/odd torus cohomology."""

    even_inv: int
    odd_inv: int
    even_anti: int
    odd_anti: int


def _rank_fields(ranks: tuple[int, int], scope_flag: str, **extra: dict) -> dict:
    """The rank fields of a report: ``ranks``, ``scope_flag`` and any of
    ``module_structure`` and ``certificate``."""
    return {"ranks": {"k0": ranks[0], "k1": ranks[1]}, "scope_flag": scope_flag, **extra}


def fixed_set(lat: InvolutiveLattice) -> FixedSetDescription:
    """Dimension a + c and component count 2^b of the fixed subtorus.

    Both come from the lattice analysis, which reads a + c off the trace
    of A and c off the rank of A - I over F_2; the components are the
    elements of the torsion (Z/2)^b of coker(A - I).
    """
    analysis = lat.analysis
    return FixedSetDescription(dim=analysis.fixed_dim, components=analysis.fixed_components)


def _exterior_even_odd(m: int) -> tuple[int, int]:
    """(even, odd) total dimensions of the exterior algebra on Q^m."""
    return (2 ** (m - 1), 2 ** (m - 1)) if m else (1, 0)


def cohomology_invariants(lat: InvolutiveLattice) -> CohomologyAction:
    """Invariant/anti-invariant dimensions of H*(T^n) under the involution.

    Over Q the involution splits as V+ + V- with p = dim V+ = a + c,
    which the lattice analysis reads off the trace as (n + tr A)/2, and
    q = n - p.  H*(T^n) = Lambda(V+) (x) Lambda(V-) and A acts on
    Lambda^i(V+) (x) Lambda^j(V-) by (-1)^j, so each dimension is a
    product of the even/odd parts of the two exterior algebras.
    """
    n = lat.n
    inv = lat.analysis.invariants
    p = inv.a + inv.c
    even_p, odd_p = _exterior_even_odd(p)
    even_q, odd_q = _exterior_even_odd(n - p)
    even_inv, odd_inv = even_p * even_q, odd_p * even_q
    even_anti, odd_anti = odd_p * odd_q, even_p * odd_q
    half = 2 ** (n - 1)
    if even_inv + even_anti != half or odd_inv + odd_anti != half:
        raise InternalInvariantError("cohomology dimensions do not sum to 2^(n-1)")
    return CohomologyAction(
        even_inv=even_inv, odd_inv=odd_inv, even_anti=even_anti, odd_anti=odd_anti
    )


def _fixed_cohomology_ranks(lat: InvolutiveLattice) -> tuple[int, int]:
    """(even, odd) cohomology ranks of the fixed set, a disjoint union of
    affine subtori."""
    desc = fixed_set(lat)
    even, odd = _exterior_even_odd(desc.dim)
    return desc.components * even, desc.components * odd


def twisted_ranks(lat: InvolutiveLattice) -> tuple[int, int]:
    """Ranks of the sign-twisted equivariant theory of the torus.

    Recipe: the identity contribution comes from anti-invariant torus
    cohomology of the opposite parity (the sign line carries a
    degree shift and the flip acts by -1 on its compactly supported
    cohomology); the involution contribution is the cohomology of the
    fixed set.  The recipe is enforced by the six-term alternating
    rank identity, see :func:`hexagon_rank_sum`.
    """
    action = cohomology_invariants(lat)
    h_even, h_odd = _fixed_cohomology_ranks(lat)
    return (action.odd_anti + h_even, action.even_anti + h_odd)


def k_ranks_delocalized(lat: InvolutiveLattice) -> tuple[int, int]:
    """Equivariant K-theory ranks (k0, k1) via the fixed-point (delocalized) formula.

    Degree-0 rank is the invariant even cohomology plus the even
    cohomology of the fixed set; degree 1 likewise with odd parts.
    This route produces rational ranks only.
    """
    action = cohomology_invariants(lat)
    h_even, h_odd = _fixed_cohomology_ranks(lat)
    return (action.even_inv + h_even, action.odd_inv + h_odd)


def hexagon_rank_sum(lat: InvolutiveLattice) -> int:
    """Alternating rank sum around the six-term exact sequence.

    rk K^1(T^n) - k0_twisted + k0 - rk K^0(T^n) + k1_twisted - k1.
    Exactness forces this to vanish; callers assert == 0.

    The 2^(n-1) terms cancel, and so do the fixed-set terms; what is
    left, (even_inv + even_anti) - (odd_inv + odd_anti), is 0 or
    ``cohomology_invariants`` raises.  So the sum is nonzero only if
    ``twisted_ranks`` and ``k_ranks_delocalized`` are edited out of step.
    """
    half = 2 ** (lat.n - 1)
    k0m, k1m = twisted_ranks(lat)
    k0, k1 = k_ranks_delocalized(lat)
    return half - k0m + k0 - half + k1m - k1


def _step(step: str, inputs: dict, outputs: dict, anchor: str) -> dict:
    """One certificate step as the report emits it."""
    return {"step": step, "input": inputs, "output": outputs, "anchor": anchor}


def _require_split(lat: InvolutiveLattice) -> None:
    """Raise ScopeError unless the Kunneth assembly applies to ``lat``."""
    cls = lat.analysis.action_class
    if cls is not ActionClass.MIXED_SPLIT:
        inv = lat.analysis.invariants
        raise ScopeError(
            f"Kunneth assembly applies to the split mixed class only, got {cls.value} "
            f"with (a, b, c) = ({inv.a}, {inv.b}, {inv.c})"
        )


def kunneth_assembly(lat: InvolutiveLattice) -> dict:
    """Rank computation through the Kunneth/localization pipeline.

    Valid exactly for the split mixed class (c = 0, 1 <= a <= n-1).
    The torus factors as a trivially-acted factor of dimension r = a
    and a factor of dimension n - r on which the action is free away
    from the origin.  The five recorded steps:

    1. decomposition: factor the torus and write down both factor
       theories (the trivial factor is free over the coefficient ring,
       the free factor is a known sum of the two rank-1 ideals).
    2. localized_kunneth: at primes containing (1 + t) other than the
       dyadic point, the graded tensor product computes the product
       theory; record its localized shapes.
    3. tor_vanishing: the Tor term vanishes there because the trivial
       factor localizes to a free module.
    4. zt_argument: at primes containing (1 - t), including the dyadic
       point, the theory embeds in the ordinary K-theory of the torus,
       so every localization is Z-torsion-free and the global
       Z-torsion submodule vanishes.
    5. rank_formula: the delocalized formula evaluates the rank, and
       the two routes are compared entry by entry.

    Returns the report's rank fields with the five steps as its certificate.
    Raises ScopeError for trivial, free, or non-split actions.
    """
    _require_split(lat)
    inv = lat.analysis.invariants
    n = lat.n
    r = inv.a
    m = n - r

    kx = module(FreeR=2 ** (r - 1))  # per degree
    ky0 = module(TrivZ=2 ** (m - 1), SignZ=2**m)
    ky1 = module()
    step1 = _step(
        "decomposition",
        {"n": n, "a": inv.a, "b": inv.b, "c": inv.c},
        {
            "trivial_factor_dim": r,
            "free_factor_dim": m,
            "kx_degree0": kx,
            "kx_degree1": kx,
            "ky_degree0": ky0,
            "ky_degree1": ky1,
        },
        "R^n models the proper classifying space; the torus splits as a "
        "trivially-acted factor times a factor acted on freely away from the origin",
    )

    # the graded tensor product: kx is the same in both degrees, so each
    # degree is kx (x) (ky0 + ky1)
    product = tensor(kx, {name: mult + ky1[name] for name, mult in ky0.items()})
    j_locs = []
    for s in _J_BRANCH_SITES:
        loc = localize(product, s)  # the same module in both degrees
        j_locs.append({"site": SITE_LABELS[s], "degree0": loc, "degree1": loc})
    step2 = _step(
        "localized_kunneth",
        {"degree0": product, "degree1": product},
        {"sites": j_locs},
        "Kunneth short exact sequence for the product at primes containing "
        "(1 + t), dyadic point excluded",
    )

    tor_deg0 = tor1(kx, ky1)
    tor_deg1 = tor1(kx, ky0)
    if any(tor_deg0.values()) or any(tor_deg1.values()):
        raise InternalInvariantError("Tor term failed to vanish on a free factor")
    step3 = _step(
        "tor_vanishing",
        {"left_factor": kx},
        {
            "sites": [SITE_LABELS[s] for s in _J_BRANCH_SITES],
            "tor1_degree0": tor_deg0,
            "tor1_degree1": tor_deg1,
        },
        "Tor_1 vanishes because the trivial-factor theory localizes to a free module",
    )

    ambient = module(TrivZ=2 ** (n - 1))  # ordinary K-theory of T^n per degree
    step4 = _step(
        "zt_argument",
        {"ambient_per_degree": ambient},
        {
            "sites": [localize(ambient, s) for s in _I_BRANCH_SITES],
            "conclusion": (
                "the equivariant theory embeds in the ordinary theory at these "
                "sites; every localization is Z-torsion-free, so the global "
                "Z-torsion submodule vanishes"
            ),
        },
        "at primes containing (1 - t) the twisted comparison maps vanish "
        "after localization, giving the submodule embedding",
    )

    ranks = (module_rank(product),) * 2
    deloc = k_ranks_delocalized(lat)
    if deloc != ranks:
        raise InternalInvariantError(f"route disagreement: assembly {ranks}, delocalized {deloc}")
    step5 = _step(
        "rank_formula",
        {
            "ordinary_rank_trivial_factor": 2 ** (r - 1),
            "equivariant_rank_free_factor": module_rank(ky0),
        },
        {
            "k0": ranks[0],
            "k1": ranks[1],
            "delocalized": {"k0": deloc[0], "k1": deloc[1]},
            "routes_agree": True,
        },
        "rank equals the sum over group elements of invariant cohomology ranks of fixed sets",
    )

    certificate = {"steps": [step1, step2, step3, step4, step5]}
    if any(collect_torsion_flags(certificate)):
        raise InternalInvariantError("torsion flag raised inside a split-case certificate")
    return _rank_fields(ranks, _INTEGRAL_CERTIFIED, certificate=certificate)


def collect_torsion_flags(certificate: dict) -> list[bool]:
    """All torsion flags recorded anywhere in a certificate."""
    flags: list[bool] = []

    def walk(obj: Any) -> None:
        if isinstance(obj, dict):
            for key, val in obj.items():
                if key == "torsion_flag":
                    flags.append(bool(val))
                else:
                    walk(val)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(certificate)
    return flags


def integral_k_theory(lat: InvolutiveLattice) -> dict:
    """Equivariant K-theory of the torus, dispatched by action class, as
    the rank fields of the report.

    Trivial and free actions get closed-form module structures, checked
    against the delocalized ranks; the split mixed class goes through
    the certified Kunneth assembly; the non-split class is reported with
    rational ranks only.
    """
    cls = lat.analysis.action_class
    if cls is ActionClass.MIXED_SPLIT:
        return kunneth_assembly(lat)
    if cls is ActionClass.MIXED_NONSPLIT:
        return _rank_fields(k_ranks_delocalized(lat), _RATIONAL_ONLY)
    n = lat.n
    if cls is ActionClass.TRIVIAL:
        case, modules = "trivial", (module(FreeR=2 ** (n - 1)),) * 2
        anchor = (
            "for a trivial action the equivariant theory is the coefficient "
            "ring tensored with the ordinary theory, a free module"
        )
    else:
        case, modules = "free", (module(TrivZ=2 ** (n - 1), SignZ=2**n), module())
        anchor = (
            "for an action free away from the origin, degree 0 is a split "
            "extension of the two rank-1 ideals and degree 1 vanishes"
        )
    ranks = module_rank(modules[0]), module_rank(modules[1])
    if k_ranks_delocalized(lat) != ranks:
        raise InternalInvariantError(f"{case}-case ranks disagree with delocalized route")
    structure = {"k0": modules[0], "k1": modules[1]}
    step = _step(
        f"{case}_action_structure",
        {"n": n},
        {"k0_module": structure["k0"], "k1_module": structure["k1"], "torsion_flag": False},
        anchor,
    )
    return _rank_fields(
        ranks, _INTEGRAL_CERTIFIED, module_structure=structure, certificate={"steps": [step]}
    )


def structure_report(lat: InvolutiveLattice) -> dict:
    """The JSON-ready structure header shared by every lattice report."""
    analysis = lat.analysis
    return {
        "spec_version": SPEC_VERSION,
        "input": {"n": lat.n, "matrix": lat.matrix.to_rows()},
        "invariants": analysis.invariants._asdict(),
        "class": analysis.action_class.value,
        "fixed_set": {"dim": analysis.fixed_dim, "components": analysis.fixed_components},
    }


def build_report(lat: InvolutiveLattice, kind: str = "torus") -> dict:
    """Assemble the JSON-ready report for a lattice.

    ``kind`` selects the equivariant torus theory ("torus") or the
    group C*-algebra K-theory ("cstar"); the numeric content is dual.

    For "cstar", the equivariant K-homology of the proper classifying
    space is the degree-preserving dual of the cohomology computed by
    :func:`integral_k_theory`.  When the torsion-freeness certificate
    is present the dual of each degree is free of the same rank; for
    the rational-only class the same numbers are reported as rational
    ranks.
    """
    if kind not in ("torus", "cstar"):
        raise ValueError(f"unknown report kind {kind!r}")
    out = structure_report(lat)
    out["theory"] = "equivariant-torus" if kind == "torus" else "group-cstar"
    out.update(integral_k_theory(lat))
    notes: list[str] = []
    if out["scope_flag"] == _RATIONAL_ONLY:
        notes.append(
            "the split-case closed form 3*2^(n-2) is not validated for actions "
            "with regular summands; the reported ranks are rational ranks agreed "
            "on by two independent routes"
        )
    if kind == "cstar" and out["scope_flag"] == _INTEGRAL_CERTIFIED:
        notes.append(
            "homology ranks equal cohomology ranks per degree: the certified "
            "theory is finitely generated free, so dualizing preserves them"
        )
    if notes:
        out["notes"] = notes
    return out
