import pytest

from crystalk.errors import DimensionTooLargeError, GridTooLargeError
from crystalk.intlin import IntMatrix, random_unimodular
from crystalk.lattice import canonical_matrix, invariants, validate_involution
from crystalk.oracle import (
    AbelianShape,
    Corpus,
    corpus_from_json,
    corpus_to_json,
    exterior_action_invariants,
    exterior_power_matrix,
    fixed_grid_components,
    involution_corpus,
    rank_exact,
    regenerate_tables,
    render_table_file_bytes,
    resolution_module_class,
    resolution_tor,
    structure_classes,
    tate_invariants,
)
from crystalk.repring import _load_table_bytes, table_checksum
from crystalk.toruskt import CohomologyAction, cohomology_invariants, fixed_set


def mat(rows):
    return IntMatrix.from_rows(rows)


SWAP = mat([[0, 1], [1, 0]])


class TestRankExact:
    def test_basic(self):
        assert rank_exact(IntMatrix.identity(3)) == 3
        assert rank_exact(IntMatrix.zeros(2, 5)) == 0
        assert rank_exact(mat([[1, 2], [2, 4], [3, 6]])) == 1
        assert rank_exact(mat([[2, 0, 1], [0, 3, 1]])) == 2


class TestExteriorAction:
    def test_swap(self):
        assert exterior_action_invariants(SWAP) == CohomologyAction(
            even_inv=1, odd_inv=1, even_anti=1, odd_anti=1
        )

    def test_identity(self):
        assert exterior_action_invariants(IntMatrix.identity(2)) == CohomologyAction(
            even_inv=2, odd_inv=2, even_anti=0, odd_anti=0
        )

    def test_point_reflection(self):
        assert exterior_action_invariants(-IntMatrix.identity(2)) == CohomologyAction(
            even_inv=2, odd_inv=0, even_anti=0, odd_anti=2
        )

    def test_dimension_bound(self):
        with pytest.raises(DimensionTooLargeError):
            exterior_action_invariants(IntMatrix.identity(9))

    def test_top_power_is_determinant(self):
        m = random_unimodular(4, seed=3, steps=15)
        top = exterior_power_matrix(m, 4)
        assert top.to_rows() == [[m.det()]]

    def test_degree_one_is_the_matrix(self):
        m = mat([[1, 2], [0, -1]])
        assert exterior_power_matrix(m, 1) == m

    def test_builds_exterior_images_once(self, count_calls):
        from crystalk import oracle

        calls = count_calls(oracle._exterior_images)
        m = canonical_matrix(1, 2, 1)
        exterior_action_invariants(m)
        assert calls == [(m,)]

    def test_agrees_with_trace_route(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus.members:
                assert exterior_action_invariants(member.matrix) == cohomology_invariants(
                    validate_involution(member.matrix)
                )


class TestFixedGrid:
    def test_point_reflection_of_circle(self):
        result = fixed_grid_components(mat([[-1]]), 4)
        assert (result.components, result.dim_estimate) == (2, 0)

    def test_swap_diagonal(self):
        result = fixed_grid_components(SWAP, 4)
        assert (result.components, result.dim_estimate) == (1, 1)

    def test_whole_torus(self):
        result = fixed_grid_components(IntMatrix.identity(2), 2)
        assert (result.components, result.dim_estimate) == (1, 2)

    def test_sheared_reflection_separates_components(self):
        # two skew circles whose grid points interleave at spacing 1/4;
        # the exact same-component certificate keeps them apart
        result = fixed_grid_components(mat([[1, 0], [2, -1]]), 4)
        assert (result.components, result.dim_estimate) == (2, 1)

    def test_rejects_odd_denominator(self):
        with pytest.raises(ValueError):
            fixed_grid_components(SWAP, 3)

    def test_grid_bound(self):
        with pytest.raises(GridTooLargeError):
            fixed_grid_components(IntMatrix.identity(21), 2)

    def test_agrees_with_invariant_route(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus.members:
                desc = fixed_set(validate_involution(member.matrix))
                grid = fixed_grid_components(member.matrix, 4)
                assert grid.components == desc.components
                assert grid.dim_estimate == desc.dim


class TestResolutionTor:
    def test_tor1_of_trivial_with_itself(self):
        assert resolution_tor("TrivZ", "TrivZ", 1) == AbelianShape(0, (2,))

    def test_tor1_of_opposite_classes(self):
        assert resolution_tor("TrivZ", "SignZ", 1) == AbelianShape(0, ())

    def test_tensor_of_opposite_classes(self):
        assert resolution_tor("TrivZ", "SignZ", 0) == AbelianShape(0, (2,))

    def test_ring_is_flat(self):
        for name in ("FreeR", "TrivZ", "SignZ", "TorF2"):
            assert resolution_tor("FreeR", name, 1) == AbelianShape(0, ())
            assert resolution_tor(name, "FreeR", 1) == AbelianShape(0, ())

    def test_tensor_keeps_module_labels(self):
        assert resolution_module_class("FreeR", "FreeR", 0) == {"FreeR": 1}
        assert resolution_module_class("SignZ", "SignZ", 0) == {"SignZ": 1}
        assert resolution_module_class("TorF2", "TorF2", 0) == {"TorF2": 1}

    def test_degree_two_periodicity(self):
        assert resolution_tor("TrivZ", "SignZ", 2) == AbelianShape(0, (2,))
        assert resolution_tor("TrivZ", "TrivZ", 2) == AbelianShape(0, ())
        assert resolution_module_class("TorF2", "TorF2", 2) == {"TorF2": 2}

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            resolution_tor("TrivZ", "TrivZ", 3)

    def test_regenerates_packaged_file_byte_identically(self):
        assert render_table_file_bytes() == _load_table_bytes()

    def test_checksum_matches_payload(self):
        tables = regenerate_tables()
        import json

        doc = json.loads(render_table_file_bytes())
        assert doc["sha256"] == table_checksum(tables)


class TestCorpus:
    def test_rank_one_has_two_classes(self):
        corpus = involution_corpus(1, seed=0, count=1)
        mats = sorted(m.matrix.entries for m in corpus.members)
        assert mats == [(-1,), (1,)]

    def test_rank_two_class_list(self):
        assert structure_classes(2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]

    def test_rank_three_member_count_and_validity(self):
        corpus = involution_corpus(3, seed=11, count=5)
        assert len(corpus.members) == 30
        ident = IntMatrix.identity(3)
        for member in corpus.members:
            assert member.matrix @ member.matrix == ident
            assert invariants(validate_involution(member.matrix)) == member.invariants

    def test_deterministic(self):
        assert involution_corpus(4, seed=9, count=2) == involution_corpus(4, seed=9, count=2)

    def test_json_roundtrip(self):
        corpus = involution_corpus(2, seed=5, count=2)
        assert corpus_from_json(corpus_to_json(corpus)) == corpus

    def test_uses_no_smith_forms(self, snf_calls):
        involution_corpus(4, seed=9, count=2)
        assert snf_calls == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            involution_corpus(0, seed=1, count=1)
        with pytest.raises(ValueError):
            involution_corpus(2, seed=1, count=0)


class TestTateInvariants:
    def test_canonical_forms(self):
        for a, b, c in structure_classes(4):
            m = canonical_matrix(a, b, c)
            got = tate_invariants(m)
            assert (got.a, got.b, got.c) == (a, b, c)

    def test_matches_divisor_route(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus.members:
                assert tate_invariants(member.matrix) == invariants(
                    validate_involution(member.matrix)
                )
