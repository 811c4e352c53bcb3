import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from crystalk import toruskt
from crystalk.errors import InternalInvariantError, ScopeError
from crystalk.intlin import IntMatrix, exterior_trace_poly, random_unimodular
from crystalk.lattice import (
    ActionClass,
    StructureInvariants,
    canonical_matrix,
    classify,
    validate_involution,
)
from crystalk.oracle import involution_corpus, structure_classes, tate_invariants
from crystalk.repring import RModuleSum
from crystalk.toruskt import (
    CohomologyAction,
    FixedSetDescription,
    build_report,
    cohomology_invariants,
    collect_torsion_flags,
    fixed_set,
    hexagon_rank_sum,
    integral_k_theory,
    k_ranks_delocalized,
    kunneth_assembly,
    twisted_ranks,
)


def lat(rows):
    return validate_involution(IntMatrix.from_rows(rows))


def split_lat(n, r):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 if i < r else -1
    return lat(rows)


MINUS_1 = lat([[-1]])
PLUS_1 = lat([[1]])
SWAP = lat([[0, 1], [1, 0]])
PM = split_lat(2, 1)

# one small lattice per action class
CLASS_CASES = [
    ([[1, 0], [0, 1]], ActionClass.TRIVIAL),
    ([[-1, 0], [0, -1]], ActionClass.FREE_OUTSIDE_ORIGIN),
    ([[1, 0], [2, -1]], ActionClass.MIXED_SPLIT),
    ([[0, 1, 0], [1, 0, 0], [0, 0, -1]], ActionClass.MIXED_NONSPLIT),
]


def trace_route(matrix):
    """The cohomology action from the traces of every exterior power of A."""
    n = matrix.rows
    dims = [0, 0, 0, 0]  # even_inv, odd_inv, even_anti, odd_anti
    for k, tr in enumerate(exterior_trace_poly(matrix)):
        total = math.comb(n, k)
        assert (total + tr) % 2 == 0
        dims[k % 2] += (total + tr) // 2
        dims[2 + k % 2] += (total - tr) // 2
    return CohomologyAction(*dims)


class TestFixedSet:
    def test_point_reflection_of_circle(self):
        # solutions of 2x in Z on the circle: {0, 1/2}
        assert fixed_set(MINUS_1) == FixedSetDescription(dim=0, components=2)

    def test_swap_diagonal_circle(self):
        assert fixed_set(SWAP) == FixedSetDescription(dim=1, components=1)

    def test_trivial_action(self):
        assert fixed_set(lat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == FixedSetDescription(
            dim=3, components=1
        )

    def test_component_count_is_power_of_two(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                desc = fixed_set(validate_involution(member.matrix))
                assert desc.components == 2**member.invariants.b
                assert desc.dim == member.invariants.a + member.invariants.c


class TestCohomologyInvariants:
    def test_split_reflection(self):
        assert cohomology_invariants(PM) == CohomologyAction(
            even_inv=1, odd_inv=1, even_anti=1, odd_anti=1
        )

    def test_point_reflection(self):
        assert cohomology_invariants(lat([[-1, 0], [0, -1]])) == CohomologyAction(
            even_inv=2, odd_inv=0, even_anti=0, odd_anti=2
        )

    def test_trivial_action(self):
        for n in (1, 2, 5):
            act = cohomology_invariants(lat([[1 if i == j else 0 for j in range(n)] for i in range(n)]))
            assert (act.even_inv, act.odd_inv) == (2 ** (n - 1), 2 ** (n - 1))
            assert (act.even_anti, act.odd_anti) == (0, 0)

    def test_halves_sum_correctly(self, small_corpora):
        for n, corpus in small_corpora.items():
            for member in corpus:
                act = cohomology_invariants(validate_involution(member.matrix))
                assert act.even_inv + act.even_anti == 2 ** (n - 1)
                assert act.odd_inv + act.odd_anti == 2 ** (n - 1)

    def test_matches_exterior_traces_beyond_oracle_bound(self):
        for n in range(9, 17):
            for member in involution_corpus(n, seed=n, count=1):
                lattice = validate_involution(member.matrix)
                assert cohomology_invariants(lattice) == trace_route(member.matrix), n


class TestTwistedRanks:
    def test_infinite_dihedral(self):
        assert twisted_ranks(MINUS_1) == (3, 0)

    def test_trivial_circle_hexagon(self):
        # the recipe gives (1, 1) here; the enforced check is exactness
        assert twisted_ranks(PLUS_1) == (1, 1)
        assert hexagon_rank_sum(PLUS_1) == 0

    def test_hexagon_vanishes_on_corpora(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                assert hexagon_rank_sum(validate_involution(member.matrix)) == 0


class TestDelocalizedRanks:
    def test_split_closed_form(self):
        for n in range(2, 9):
            for r in range(1, n):
                ranks = k_ranks_delocalized(split_lat(n, r))
                assert ranks == (3 * 2 ** (n - 2), 3 * 2 ** (n - 2))

    def test_free_closed_form(self):
        for n in range(1, 9):
            ranks = k_ranks_delocalized(lat([[-1 if i == j else 0 for j in range(n)] for i in range(n)]))
            assert ranks == (3 * 2 ** (n - 1), 0)

    def test_swap(self):
        assert k_ranks_delocalized(SWAP) == (2, 2)

    def test_conjugation_invariance(self, small_corpora):
        for corpus in small_corpora.values():
            by_class = {}
            for member in corpus:
                key = (member.invariants.a, member.invariants.b, member.invariants.c)
                ranks = k_ranks_delocalized(validate_involution(member.matrix))
                by_class.setdefault(key, set()).add(ranks)
            for key, values in by_class.items():
                assert len(values) == 1, (key, values)


def closed_form_ranks(a, b, c):
    """The README's closed forms, or None for the non-split class."""
    n = a + b + 2 * c
    if c:
        return None
    if b == 0:
        return (2**n, 2**n)
    if a == 0:
        return (3 * 2 ** (n - 1), 0)
    return (3 * 2 ** (n - 2), 3 * 2 ** (n - 2))


class TestSweepToRank12:
    # an n = 12 corpus takes about 40 ms to build, so 40 examples keep
    # the sweep within a couple of seconds
    @settings(max_examples=40)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(st.sampled_from(structure_classes(n)), st.integers(0, 2**16))
        )
    )
    def test_corpus_member_matches_its_class(self, case):
        (a, b, c), seed = case
        n = a + b + 2 * c
        expected = StructureInvariants(a, b, c)
        member = next(m for m in involution_corpus(n, seed, 1) if m.invariants == expected)
        l = validate_involution(member.matrix)
        assert l.analysis.invariants == expected
        assert tate_invariants(member.matrix) == expected
        ranks = closed_form_ranks(a, b, c)
        if ranks is not None:
            assert k_ranks_delocalized(l) == ranks
        flag = "RationalOnly" if c else "IntegralCertified"
        assert integral_k_theory(l)["scope_flag"] == flag


class TestKunnethAssembly:
    def test_rank_two_split(self):
        report = kunneth_assembly(PM)
        assert report["ranks"] == {"k0": 3, "k1": 3}
        assert report["scope_flag"] == "IntegralCertified"
        assert len(report["certificate"]["steps"]) == 5

    def test_rank_three(self):
        assert kunneth_assembly(split_lat(3, 2))["ranks"] == {"k0": 6, "k1": 6}

    def test_step_names_in_order(self):
        names = [s["step"] for s in kunneth_assembly(PM)["certificate"]["steps"]]
        assert names == [
            "decomposition",
            "localized_kunneth",
            "tor_vanishing",
            "zt_argument",
            "rank_formula",
        ]

    def test_out_of_scope(self):
        with pytest.raises(ScopeError):
            kunneth_assembly(SWAP)
        with pytest.raises(ScopeError):
            kunneth_assembly(PLUS_1)
        with pytest.raises(ScopeError):
            kunneth_assembly(MINUS_1)

    def test_certificate_is_torsion_free(self):
        for n in range(2, 7):
            for r in range(1, n):
                certificate = kunneth_assembly(split_lat(n, r))["certificate"]
                flags = collect_torsion_flags(certificate)
                assert flags and not any(flags)

    def test_certificate_replays_identically(self):
        first = kunneth_assembly(split_lat(4, 2))
        second = kunneth_assembly(split_lat(4, 2))
        assert first == second
        assert json.dumps(first["certificate"]) == json.dumps(second["certificate"])

    def test_certificate_depends_only_on_invariants(self):
        p, p_inv = random_unimodular(3, seed=23, steps=12)
        conj = validate_involution(p @ split_lat(3, 1).matrix @ p_inv)
        assert kunneth_assembly(conj) == kunneth_assembly(split_lat(3, 1))

    def test_matches_delocalized_route(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                l = validate_involution(member.matrix)
                if classify(l) is ActionClass.MIXED_SPLIT:
                    k0, k1 = k_ranks_delocalized(l)
                    assert kunneth_assembly(l)["ranks"] == {"k0": k0, "k1": k1}

    def test_rank_is_read_off_the_assembled_modules(self, monkeypatch):
        # one extra trivial summand in every tensor cell: the assembled rank
        # moves, and the comparison with the delocalized route must see it
        real = toruskt.tensor
        monkeypatch.setattr(toruskt, "tensor", lambda m, n: real(m, n) + RModuleSum(triv=1))
        with pytest.raises(InternalInvariantError, match="route disagreement"):
            kunneth_assembly(PM)


class TestIntegralKTheory:
    def test_infinite_dihedral(self):
        report = integral_k_theory(MINUS_1)
        assert report["ranks"] == {"k0": 3, "k1": 0}
        assert report["scope_flag"] == "IntegralCertified"

    def test_split_rank_four(self):
        assert integral_k_theory(split_lat(4, 1))["ranks"] == {"k0": 12, "k1": 12}

    def test_swap_is_rational_only(self):
        report = integral_k_theory(SWAP)
        assert report == {"ranks": {"k0": 2, "k1": 2}, "scope_flag": "RationalOnly"}

    def test_trivial_module_structure(self):
        for n in (1, 3):
            report = integral_k_theory(lat([[1 if i == j else 0 for j in range(n)] for i in range(n)]))
            assert report["module_structure"] == {
                "k0": RModuleSum(free=2 ** (n - 1)).as_dict(),
                "k1": RModuleSum(free=2 ** (n - 1)).as_dict(),
            }
            assert report["ranks"] == {"k0": 2**n, "k1": 2**n}

    def test_free_module_structure(self):
        report = integral_k_theory(lat([[-1, 0], [0, -1]]))
        assert report["module_structure"] == {
            "k0": RModuleSum(triv=2, sign=4).as_dict(),
            "k1": RModuleSum().as_dict(),
        }
        assert report["ranks"] == {"k0": 6, "k1": 0}

    def test_free_class_has_no_odd_part(self, small_corpora):
        for n, corpus in small_corpora.items():
            for member in corpus:
                if member.invariants.b == n:
                    assert integral_k_theory(validate_involution(member.matrix))["ranks"]["k1"] == 0


class TestGroupCstarK:
    def test_point_reflection_of_torus(self):
        report = build_report(lat([[-1, 0], [0, -1]]), "cstar")
        assert report["ranks"] == {"k0": 6, "k1": 0}

    def test_split_reflection(self):
        assert build_report(PM, "cstar")["ranks"] == {"k0": 3, "k1": 3}

    def test_trivial_actions(self):
        for n in (1, 2, 4):
            l = lat([[1 if i == j else 0 for j in range(n)] for i in range(n)])
            assert build_report(l, "cstar")["ranks"] == {"k0": 2**n, "k1": 2**n}

    def test_duality_preserves_certified_ranks(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                l = validate_involution(member.matrix)
                torus = integral_k_theory(l)
                cstar = build_report(l, "cstar")
                if "certificate" in torus:
                    assert cstar["ranks"] == torus["ranks"]
                    assert cstar["scope_flag"] == torus["scope_flag"]


class TestReports:
    def test_schema_fields(self):
        report = build_report(PM)
        for key in (
            "spec_version",
            "input",
            "invariants",
            "class",
            "fixed_set",
            "ranks",
            "scope_flag",
            "certificate",
        ):
            assert key in report
        assert report["spec_version"] == "1.0"
        assert report["class"] == "MixedSplit"
        assert report["ranks"] == {"k0": 3, "k1": 3}

    def test_json_roundtrip_identity(self):
        for l in (PM, SWAP, MINUS_1, PLUS_1):
            for kind in ("torus", "cstar"):
                report = build_report(l, kind=kind)
                assert json.loads(json.dumps(report)) == report

    def test_rational_only_reports_carry_a_caveat(self):
        report = build_report(SWAP, kind="cstar")
        assert report["scope_flag"] == "RationalOnly"
        assert any("closed form" in note for note in report["notes"])

    def test_module_structure_only_for_extreme_classes(self):
        assert "module_structure" in build_report(PLUS_1)
        assert "module_structure" in build_report(MINUS_1)
        assert "module_structure" not in build_report(PM)
        assert "module_structure" not in build_report(SWAP)

    @pytest.mark.parametrize("kind", ["torus", "cstar"])
    @pytest.mark.parametrize("rows, cls", CLASS_CASES)
    def test_no_smith_form_per_report(self, rows, cls, kind, snf_calls):
        report = build_report(lat(rows), kind=kind)
        assert report["class"] == cls.value
        assert snf_calls == []

    @pytest.mark.parametrize("kind", ["torus", "cstar"])
    @pytest.mark.parametrize("rows, cls", CLASS_CASES)
    def test_no_matrix_products_per_report(self, rows, cls, kind, count_calls, monkeypatch):
        lattice = lat(rows)  # validation squares A; the report must not multiply
        traces = count_calls(exterior_trace_poly)
        products = []
        matmul = IntMatrix.__matmul__
        monkeypatch.setattr(
            IntMatrix, "__matmul__", lambda x, y: products.append(y) or matmul(x, y)
        )
        report = build_report(lattice, kind=kind)
        assert report["class"] == cls.value
        assert (len(products), len(traces)) == (0, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_report(PM, kind="other")

    def test_reports_conjugation_invariant_outside_input_echo(self, small_corpora):
        for corpus in small_corpora.values():
            seen: dict[tuple[int, int, int], dict] = {}
            for member in corpus:
                report = build_report(validate_involution(member.matrix), kind="cstar")
                report.pop("input")
                key = (member.invariants.a, member.invariants.b, member.invariants.c)
                assert seen.setdefault(key, report) == report, key
