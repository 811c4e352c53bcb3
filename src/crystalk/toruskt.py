"""Torus fixed-point geometry and the two K-theory rank pipelines.

For an involution A on Z^n acting on the n-torus, this module computes

* the fixed set (a disjoint union of affine subtori),
* the action on torus cohomology from the eigenvalue counts of A,
* equivariant K-theory ranks by the delocalized fixed-point formula,
* the same ranks a second time through the Kunneth/localization
  assembly with a replayable torsion-freeness certificate, and
* the K-theory of the reduced C*-algebra of Z^n x| Z/2 by dualizing.

The two routes are independent and every public entry point checks
them against each other where both apply.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from .errors import InternalInvariantError, ScopeError
from .lattice import ActionClass, InvolutiveLattice
from .repring import (
    DYADIC,
    MIN_MINUS,
    MIN_PLUS,
    LocalizedShape,
    PrimeSite,
    RModuleSum,
    localize,
    odd_minus,
    odd_plus,
    rank as module_rank,
    tensor,
    tor1,
)

__all__ = [
    "SPEC_VERSION",
    "ScopeFlag",
    "FixedSetDescription",
    "CohomologyAction",
    "KRankReport",
    "CertificateStep",
    "CertificateTrace",
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

# one witness odd prime per branch; the localization tables do not
# depend on which odd prime is chosen
_WITNESS_ODD_PRIME = 3


class ScopeFlag(enum.Enum):
    INTEGRAL_CERTIFIED = "IntegralCertified"
    RATIONAL_ONLY = "RationalOnly"


@dataclass(frozen=True)
class FixedSetDescription:
    """Fixed set of the torus involution: 2^b affine subtori of dimension a+c."""

    dim: int
    components: int


@dataclass(frozen=True)
class CohomologyAction:
    """Dimensions of the (anti-)invariant parts of even/odd torus cohomology."""

    even_inv: int
    odd_inv: int
    even_anti: int
    odd_anti: int


@dataclass(frozen=True)
class CertificateStep:
    step: str
    inputs: dict
    outputs: dict
    anchor: str

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "input": self.inputs,
            "output": self.outputs,
            "anchor": self.anchor,
        }


@dataclass(frozen=True)
class CertificateTrace:
    steps: tuple[CertificateStep, ...]

    def as_dict(self) -> dict:
        return {"steps": [s.as_dict() for s in self.steps]}


@dataclass(frozen=True)
class KRankReport:
    """Per-degree ranks plus, where validated, integral structure."""

    k0: int
    k1: int
    scope_flag: ScopeFlag
    module_structure: tuple[RModuleSum, RModuleSum] | None = None
    torsion_free_certificate: CertificateTrace | None = None

    @property
    def ranks(self) -> tuple[int, int]:
        return (self.k0, self.k1)


def fixed_set(lat: InvolutiveLattice) -> FixedSetDescription:
    """Dimension and component count of the fixed subtorus.

    The component count is the torsion order of coker(A - I); the
    lattice analysis checks it against 2^b and the dimension against
    a + c.
    """
    analysis = lat.analysis
    return FixedSetDescription(dim=analysis.fixed_dim, components=analysis.fixed_components)


def _exterior_even_odd(m: int) -> tuple[int, int]:
    """(even, odd) total dimensions of the exterior algebra on Q^m."""
    return (2 ** (m - 1), 2 ** (m - 1)) if m else (1, 0)


def cohomology_invariants(lat: InvolutiveLattice) -> CohomologyAction:
    """Invariant/anti-invariant dimensions of H*(T^n) under the involution.

    Over Q the involution splits as V+ + V- with p = (n + tr A)/2 and
    q = n - p; tr A is read off the diagonal, not from the lattice
    analysis.  H*(T^n) = Lambda(V+) (x) Lambda(V-) and A acts on
    Lambda^i(V+) (x) Lambda^j(V-) by (-1)^j, so each dimension is a
    product of the even/odd parts of the two exterior algebras.
    """
    n = lat.n
    trace = sum(lat.matrix.entry(i, i) for i in range(n))
    p, odd = divmod(n + trace, 2)
    if odd or not 0 <= p <= n:
        raise InternalInvariantError(f"trace {trace} is not that of an involution on Z^{n}")
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


def _fixed_cohomology_ranks(desc: FixedSetDescription) -> tuple[int, int]:
    """(even, odd) cohomology ranks of a disjoint union of affine subtori."""
    if desc.dim >= 1:
        per = 2 ** (desc.dim - 1)
        return desc.components * per, desc.components * per
    return desc.components, 0


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
    desc = fixed_set(lat)
    h_even, h_odd = _fixed_cohomology_ranks(desc)
    return (action.odd_anti + h_even, action.even_anti + h_odd)


def k_ranks_delocalized(lat: InvolutiveLattice) -> KRankReport:
    """Equivariant K-theory ranks via the fixed-point (delocalized) formula.

    Degree-0 rank is the invariant even cohomology plus the even
    cohomology of the fixed set; degree 1 likewise with odd parts.
    This route produces rational ranks only.
    """
    action = cohomology_invariants(lat)
    desc = fixed_set(lat)
    h_even, h_odd = _fixed_cohomology_ranks(desc)
    return KRankReport(
        k0=action.even_inv + h_even,
        k1=action.odd_inv + h_odd,
        scope_flag=ScopeFlag.RATIONAL_ONLY,
    )


def hexagon_rank_sum(lat: InvolutiveLattice) -> int:
    """Alternating rank sum around the six-term exact sequence.

    rk K^1(T^n) - k0_twisted + k0 - rk K^0(T^n) + k1_twisted - k1.
    Exactness forces this to vanish; callers assert == 0.
    """
    half = 2 ** (lat.n - 1)
    k0m, k1m = twisted_ranks(lat)
    deloc = k_ranks_delocalized(lat)
    return half - k0m + deloc.k0 - half + k1m - deloc.k1


def _j_branch_sites() -> list[PrimeSite]:
    return [MIN_MINUS, odd_minus(_WITNESS_ODD_PRIME)]


def _i_branch_sites() -> list[PrimeSite]:
    return [MIN_PLUS, odd_plus(_WITNESS_ODD_PRIME), DYADIC]


def _loc_dict(shape: LocalizedShape) -> dict:
    out: dict[str, Any] = {
        "site": shape.site.label(),
        "free_rank": shape.free_rank,
        "torsion_flag": shape.torsion_flag,
    }
    if shape.note:
        out["note"] = shape.note
    return out


def kunneth_assembly(lat: InvolutiveLattice) -> KRankReport:
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

    Raises ScopeError for trivial, free, or non-split actions.
    """
    inv = lat.analysis.invariants
    cls = lat.analysis.action_class
    if cls is not ActionClass.MIXED_SPLIT:
        raise ScopeError(
            f"Kunneth assembly applies to the split mixed class only, got {cls.value} "
            f"with (a, b, c) = ({inv.a}, {inv.b}, {inv.c})"
        )
    n = lat.n
    r = inv.a
    m = n - r

    kx = RModuleSum(free=2 ** (r - 1))  # per degree
    ky0 = RModuleSum(triv=2 ** (m - 1), sign=2**m)
    ky1 = RModuleSum()
    step1 = CertificateStep(
        step="decomposition",
        inputs={"n": n, "a": inv.a, "b": inv.b, "c": inv.c},
        outputs={
            "trivial_factor_dim": r,
            "free_factor_dim": m,
            "kx_degree0": kx.as_dict(),
            "kx_degree1": kx.as_dict(),
            "ky_degree0": ky0.as_dict(),
            "ky_degree1": ky1.as_dict(),
        },
        anchor=(
            "R^n models the proper classifying space; the torus splits as a "
            "trivially-acted factor times a factor acted on freely away from the origin"
        ),
    )

    # graded tensor product, identical in both degrees because ky1 = 0
    t_deg0 = tensor(kx, ky0) + tensor(kx, ky1)
    t_deg1 = tensor(kx, ky1) + tensor(kx, ky0)
    j_sites = _j_branch_sites()
    j_locs = [
        {
            "site": s.label(),
            "degree0": _loc_dict(localize(t_deg0, s)),
            "degree1": _loc_dict(localize(t_deg1, s)),
        }
        for s in j_sites
    ]
    step2 = CertificateStep(
        step="localized_kunneth",
        inputs={"degree0": t_deg0.as_dict(), "degree1": t_deg1.as_dict()},
        outputs={"sites": j_locs},
        anchor=(
            "Kunneth short exact sequence for the product at primes containing "
            "(1 + t), dyadic point excluded"
        ),
    )

    tor_deg0 = tor1(kx, ky1)
    tor_deg1 = tor1(kx, ky0)
    if not (tor_deg0.is_zero and tor_deg1.is_zero):
        raise InternalInvariantError("Tor term failed to vanish on a free factor")
    step3 = CertificateStep(
        step="tor_vanishing",
        inputs={"left_factor": kx.as_dict()},
        outputs={
            "sites": [s.label() for s in j_sites],
            "tor1_degree0": tor_deg0.as_dict(),
            "tor1_degree1": tor_deg1.as_dict(),
        },
        anchor="Tor_1 vanishes because the trivial-factor theory localizes to a free module",
    )

    ambient = RModuleSum(triv=2 ** (n - 1))  # ordinary K-theory of T^n per degree
    i_sites = _i_branch_sites()
    i_locs = [_loc_dict(localize(ambient, s)) for s in i_sites]
    step4 = CertificateStep(
        step="zt_argument",
        inputs={"ambient_per_degree": ambient.as_dict()},
        outputs={
            "sites": i_locs,
            "conclusion": (
                "the equivariant theory embeds in the ordinary theory at these "
                "sites; every localization is Z-torsion-free, so the global "
                "Z-torsion submodule vanishes"
            ),
        },
        anchor=(
            "at primes containing (1 - t) the twisted comparison maps vanish "
            "after localization, giving the submodule embedding"
        ),
    )

    k_value = 3 * 2 ** (n - 2)
    deloc = k_ranks_delocalized(lat)
    if deloc.ranks != (k_value, k_value):
        raise InternalInvariantError(
            f"route disagreement: assembly {(k_value, k_value)}, delocalized {deloc.ranks}"
        )
    step5 = CertificateStep(
        step="rank_formula",
        inputs={
            "ordinary_rank_trivial_factor": 2 ** (r - 1),
            "equivariant_rank_free_factor": module_rank(ky0),
        },
        outputs={
            "k0": k_value,
            "k1": k_value,
            "delocalized": {"k0": deloc.k0, "k1": deloc.k1},
            "routes_agree": True,
        },
        anchor="rank equals the sum over group elements of invariant cohomology ranks of fixed sets",
    )

    trace = CertificateTrace(steps=(step1, step2, step3, step4, step5))
    for flag in collect_torsion_flags(trace):
        if flag:
            raise InternalInvariantError("torsion flag raised inside a split-case certificate")
    return KRankReport(
        k0=k_value,
        k1=k_value,
        scope_flag=ScopeFlag.INTEGRAL_CERTIFIED,
        module_structure=None,
        torsion_free_certificate=trace,
    )


def collect_torsion_flags(trace: CertificateTrace) -> list[bool]:
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

    walk(trace.as_dict())
    return flags


def _trivial_case(n: int) -> KRankReport:
    per_degree = RModuleSum(free=2 ** (n - 1))
    step = CertificateStep(
        step="trivial_action_structure",
        inputs={"n": n},
        outputs={
            "k0_module": per_degree.as_dict(),
            "k1_module": per_degree.as_dict(),
            "torsion_flag": False,
        },
        anchor=(
            "for a trivial action the equivariant theory is the coefficient "
            "ring tensored with the ordinary theory, a free module"
        ),
    )
    return KRankReport(
        k0=2**n,
        k1=2**n,
        scope_flag=ScopeFlag.INTEGRAL_CERTIFIED,
        module_structure=(per_degree, per_degree),
        torsion_free_certificate=CertificateTrace(steps=(step,)),
    )


def _free_case(n: int) -> KRankReport:
    k0_module = RModuleSum(triv=2 ** (n - 1), sign=2**n)
    k1_module = RModuleSum()
    step = CertificateStep(
        step="free_action_structure",
        inputs={"n": n},
        outputs={
            "k0_module": k0_module.as_dict(),
            "k1_module": k1_module.as_dict(),
            "torsion_flag": False,
        },
        anchor=(
            "for an action free away from the origin, degree 0 is a split "
            "extension of the two rank-1 ideals and degree 1 vanishes"
        ),
    )
    return KRankReport(
        k0=module_rank(k0_module),
        k1=0,
        scope_flag=ScopeFlag.INTEGRAL_CERTIFIED,
        module_structure=(k0_module, k1_module),
        torsion_free_certificate=CertificateTrace(steps=(step,)),
    )


def integral_k_theory(lat: InvolutiveLattice) -> KRankReport:
    """Equivariant K-theory of the torus, dispatched by action class.

    Trivial and free actions get closed-form module structures; the
    split mixed class goes through the certified Kunneth assembly; the
    non-split class is reported with rational ranks only.
    """
    cls = lat.analysis.action_class
    if cls is ActionClass.TRIVIAL:
        report = _trivial_case(lat.n)
        deloc = k_ranks_delocalized(lat)
        if deloc.ranks != report.ranks:
            raise InternalInvariantError("trivial-case ranks disagree with delocalized route")
        return report
    if cls is ActionClass.FREE_OUTSIDE_ORIGIN:
        report = _free_case(lat.n)
        deloc = k_ranks_delocalized(lat)
        if deloc.ranks != report.ranks:
            raise InternalInvariantError("free-case ranks disagree with delocalized route")
        return report
    if cls is ActionClass.MIXED_SPLIT:
        return kunneth_assembly(lat)
    return k_ranks_delocalized(lat)


def structure_report(lat: InvolutiveLattice) -> dict:
    """The JSON-ready structure header shared by every lattice report."""
    analysis = lat.analysis
    return {
        "spec_version": SPEC_VERSION,
        "input": {"n": lat.n, "matrix": lat.matrix.to_rows()},
        "invariants": analysis.invariants.as_dict(),
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
    report = integral_k_theory(lat)
    out = structure_report(lat)
    out["theory"] = "equivariant-torus" if kind == "torus" else "group-cstar"
    out["ranks"] = {"k0": report.k0, "k1": report.k1}
    out["scope_flag"] = report.scope_flag.value
    if report.module_structure is not None:
        out["module_structure"] = {
            "k0": report.module_structure[0].as_dict(),
            "k1": report.module_structure[1].as_dict(),
        }
    if report.torsion_free_certificate is not None:
        out["certificate"] = report.torsion_free_certificate.as_dict()
    notes: list[str] = []
    if report.scope_flag is ScopeFlag.RATIONAL_ONLY:
        notes.append(
            "the split-case closed form 3*2^(n-2) is not validated for actions "
            "with regular summands; the reported ranks are rational ranks agreed "
            "on by two independent routes"
        )
    if kind == "cstar" and report.scope_flag is ScopeFlag.INTEGRAL_CERTIFIED:
        notes.append(
            "homology ranks equal cohomology ranks per degree: the certified "
            "theory is finitely generated free, so dualizing preserves them"
        )
    if notes:
        out["notes"] = notes
    return out
