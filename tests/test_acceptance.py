"""Acceptance suite.

Each test enforces one numbered criterion exactly, at its stated
tolerance and time budget, and prints one status line.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time
from contextlib import contextmanager

from crystalk import oracle
from crystalk.intlin import IntMatrix
from crystalk.lattice import ActionClass, classify, validate_involution
from crystalk.repring import table_checksum
from crystalk.toruskt import (
    build_report,
    cohomology_invariants,
    collect_torsion_flags,
    fixed_set,
    hexagon_rank_sum,
    integral_k_theory,
    k_ranks_delocalized,
    kunneth_assembly,
)


@contextmanager
def criterion(num: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {num}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {num} exceeded its budget: {elapsed:.2f}s >= {budget_s:.0f}s"
    )
    print(f"\ncriterion {num}: PASS ({description}) [{elapsed:.2f}s < {budget_s:.0f}s]")


def minus_identity(n: int) -> IntMatrix:
    return -IntMatrix.identity(n)


def split_matrix(n: int, r: int) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 if i < r else -1
    return IntMatrix.from_rows(rows)


_corpus_cache: dict[tuple[int, int], tuple[oracle.CorpusMember, ...]] = {}


def corpus(n: int, count: int) -> tuple[oracle.CorpusMember, ...]:
    key = (n, count)
    if key not in _corpus_cache:
        _corpus_cache[key] = oracle.involution_corpus(n, seed=777 + n, count=count)
    return _corpus_cache[key]


def test_criterion_1_free_case():
    with criterion(1, 1.0, "free case: C*-algebra ranks (3*2^(n-1), 0) for n = 1..10"):
        for n in range(1, 11):
            report = build_report(validate_involution(minus_identity(n)), "cstar")
            assert report["ranks"] == {"k0": 3 * 2 ** (n - 1), "k1": 0}, n
            assert report["scope_flag"] == "IntegralCertified"


def test_criterion_2_split_mixed_case():
    with criterion(
        2, 10.0, "split case: both routes give (3*2^(n-2), 3*2^(n-2)) for n = 2..10, r = 1..n-1"
    ):
        for n in range(2, 11):
            expected = (3 * 2 ** (n - 2), 3 * 2 ** (n - 2))
            for r in range(1, n):
                lat = validate_involution(split_matrix(n, r))
                assembled = kunneth_assembly(lat.analysis)
                assert assembled["ranks"] == {"k0": expected[0], "k1": expected[1]}, (n, r)
                assert k_ranks_delocalized(lat.analysis) == expected, (n, r)
                assert len(assembled["certificate"]["steps"]) == 5


def test_criterion_3_infinite_dihedral():
    with criterion(3, 1.0, "infinite dihedral: K0 = Z^3, K1 = 0"):
        report = build_report(validate_involution(IntMatrix.from_rows([[-1]])), "cstar")
        assert report["ranks"] == {"k0": 3, "k1": 0}
        assert report["scope_flag"] == "IntegralCertified"


def test_criterion_4_route_agreement_on_corpora():
    with criterion(
        4, 60.0, "route agreement and conjugation invariance, 25 conjugates per class, n <= 6"
    ):
        for n in range(1, 7):
            by_class: dict[tuple[int, int, int], tuple[int, int]] = {}
            for member in corpus(n, 25):
                lat = validate_involution(member.matrix)
                inv = member.invariants
                ranks = k_ranks_delocalized(lat.analysis)
                key = (inv.a, inv.b, inv.c)
                expected = by_class.setdefault(key, ranks)
                assert ranks == expected, (n, key)
                if classify(lat) is ActionClass.MIXED_SPLIT:
                    assembled = kunneth_assembly(lat.analysis)["ranks"]
                    assert (assembled["k0"], assembled["k1"]) == ranks, (n, key)


def test_criterion_5_oracle_equivalence():
    with criterion(
        5,
        300.0,
        "oracle equivalence: exterior action (n <= 8) and grid components (n <= 6, d = 4)",
    ):
        for n in range(1, 7):
            for member in corpus(n, 3):
                lat = validate_involution(member.matrix)
                assert oracle.exterior_action_invariants(member.matrix) == (
                    cohomology_invariants(lat.analysis)
                ), (n, member.invariants)
                grid = oracle.fixed_grid_components(member.matrix, 4)
                desc = fixed_set(lat.analysis)
                assert grid.components == desc.components, (n, member.invariants)
                assert grid.dim_estimate == desc.dim, (n, member.invariants)
        for n in (7, 8):
            for member in corpus(n, 2):
                lat = validate_involution(member.matrix)
                assert oracle.exterior_action_invariants(member.matrix) == (
                    cohomology_invariants(lat.analysis)
                ), (n, member.invariants)


def test_criterion_6_module_table_certification():
    with criterion(6, 5.0, "frozen tables regenerate byte-identically; Tor values certified"):
        from crystalk.repring import _load_table_bytes

        assert oracle.render_table_file_bytes() == _load_table_bytes()
        tables = oracle.regenerate_tables()
        assert table_checksum(tables) == table_checksum(tables)
        assert oracle.resolution_module_class("TrivZ", "TrivZ", 1) == {"TorF2": 1}
        assert oracle.resolution_module_class("TrivZ", "SignZ", 1) == {}


def test_criterion_7_torsion_freeness_certificates():
    with criterion(
        7, 30.0, "every split-case run emits a certificate with all torsion flags false"
    ):
        runs = []
        for n in range(2, 11):
            for r in range(1, n):
                runs.append(validate_involution(split_matrix(n, r)))
        for n in range(2, 7):
            for member in corpus(n, 25):
                lat = validate_involution(member.matrix)
                if classify(lat) is ActionClass.MIXED_SPLIT:
                    runs.append(lat)
        assert runs
        for lat in runs:
            certificate = integral_k_theory(lat.analysis)["certificate"]
            flags = collect_torsion_flags(certificate)
            assert flags, "certificate must record localized shapes"
            assert not any(flags)
            steps = {s["step"]: s for s in certificate["steps"]}
            tor_sites = steps["tor_vanishing"]["output"]["sites"]
            assert tor_sites == ["MinMinus", "OddMinus(3)"]
            zt_sites = [entry["site"] for entry in steps["zt_argument"]["output"]["sites"]]
            assert zt_sites == ["MinPlus", "OddPlus(3)", "Dyadic"]


def test_criterion_8_hexagon_rank_consistency():
    with criterion(8, 30.0, "six-term alternating rank sum vanishes on every corpus member, n <= 6"):
        for n in range(1, 7):
            for member in corpus(n, 25):
                assert hexagon_rank_sum(validate_involution(member.matrix).analysis) == 0, (
                    n,
                    member.invariants,
                )


def test_criterion_9_out_of_scope_honesty():
    with criterion(
        9, 10.0, "swap lattice: two independent rational routes give (2, 2), flagged RationalOnly"
    ):
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        lat = validate_involution(swap)

        assert k_ranks_delocalized(lat.analysis) == (2, 2)

        # second route composed purely from the brute-force verifiers
        action = oracle.exterior_action_invariants(swap)
        grid = oracle.fixed_grid_components(swap, 4)
        if grid.dim_estimate >= 1:
            h_even = grid.components * 2 ** (grid.dim_estimate - 1)
            h_odd = h_even
        else:
            h_even, h_odd = grid.components, 0
        assert (action.even_inv + h_even, action.odd_inv + h_odd) == (2, 2)

        report = build_report(lat, kind="cstar")
        assert report["ranks"] == {"k0": 2, "k1": 2}
        assert report["scope_flag"] == "RationalOnly"
        assert any("closed form" in note and "not validated" in note for note in report["notes"])
        # the split-case closed form would give 3 per degree; it does not apply
        assert 3 * 2 ** (lat.n - 2) != report["ranks"]["k0"]
