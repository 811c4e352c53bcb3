import hashlib
import itertools
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from crystalk import oracle
from crystalk.errors import DimensionTooLargeError, GridTooLargeError, InternalInvariantError
from crystalk.intlin import IntMatrix, _f3_pivots, random_unimodular
from crystalk.lattice import (
    StructureInvariants,
    canonical_matrix,
    invariants,
    validate_involution,
)
from crystalk.oracle import (
    FixedGridResult,
    exterior_action_invariants,
    exterior_power_matrix,
    fixed_grid_components,
    involution_corpus,
    rank_exact,
    regenerate_tables,
    render_table_file_bytes,
    resolution_module_class,
    structure_classes,
    tate_invariants,
)
from crystalk.repring import _SITE_KINDS, _load_table_bytes, table_checksum
from crystalk.toruskt import CohomologyAction, cohomology_invariants, fixed_set


def mat(rows):
    return IntMatrix.from_rows(rows)


SWAP = mat([[0, 1], [1, 0]])

# involutions of rank <= 3, with negative entries and entries beyond 64 bits,
# which the grid verifier reduces mod 2d before it packs them
ENUMERATION_MATRICES = [
    [[-1]],
    [[1]],
    [[0, 1], [1, 0]],
    [[1, 0], [2, -1]],
    [[1, 0], [-7, -1]],
    [[-1, 0], [10**17 + 3, 1]],
    [[1, -2 * 10**16], [0, -1]],
    [[-1, 0], [2**70 + 1, 1]],
    [[1, -(2**70) - 1], [0, -1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
    [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    [[-1, 0, 0], [1 - 10**17, 1, 0], [0, 0, -1]],
    [[-1, 0, 0], [0, 1, 0], [2**70 + 1, 0, 1]],
    [[1, 0, 0], [5, -1, 0], [-3, 0, -1]],
]


def grid_by_enumeration(a, d):
    """The grid verifier's answer by plain enumeration of both grids.

    Two fixed points v, v' of the d grid share a component exactly when
    ((A - I)v / d) and ((A - I)v' / d) agree mod 2 up to the column
    space of (A - I) mod 2; each label is replaced by its whole coset.
    """
    n = a.rows
    m = (a - IntMatrix.identity(n)).to_rows()

    def image(v):
        return [sum(x * y for x, y in zip(row, v)) for row in m]

    def fixed(grid):
        points = itertools.product(range(grid), repeat=n)
        return [
            v for v in points if all(sum(map(operator.mul, row, v)) % grid == 0 for row in m)
        ]

    span = {
        tuple(sum(c * x for c, x in zip(coeffs, row)) % 2 for row in m)
        for coeffs in itertools.product((0, 1), repeat=n)
    }
    points = fixed(d)
    cosets = {
        frozenset(tuple((x // d + s) % 2 for x, s in zip(image(v), shift)) for shift in span)
        for v in points
    }
    count, count_double = len(points), len(fixed(2 * d))
    ratio = count_double // count
    assert ratio * count == count_double and ratio & (ratio - 1) == 0
    return FixedGridResult(
        components=len(cosets),
        dim_estimate=ratio.bit_length() - 1,
        count=count,
    )


class TestRankExact:
    def test_basic(self):
        assert rank_exact(IntMatrix.identity(3)) == 3
        assert rank_exact(IntMatrix(2, 5, (0,) * 10)) == 0
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
            exterior_action_invariants(IntMatrix.identity(11))

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(
                        st.integers(-3, 3),
                        st.integers(-(2**70), 2**70),
                        st.sampled_from([2**70, -(2**70)]),
                    ),
                    min_size=n,
                    max_size=n,
                ),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_images_are_the_minors(self, rows):
        # the coefficient of e_T in the image of e_S is det A[T, S]; index
        # sets are bitmasks, and the exact builder indexes its images by the
        # mask of S; block S of the one F_3 matrix holds the same minors mod 3
        n = len(rows)
        images = oracle._exterior_images(mat(rows))
        ones, twos = oracle._f3_exterior_images(mat(rows))
        width = oracle._block_width(n)
        assert len(images) == 1 << n
        assert max(ones, twos).bit_length() <= width << n
        for k in range(n + 1):
            subsets = list(itertools.combinations(range(n), k))
            for s in subsets:
                minors = {
                    sum(1 << i for i in t): mat([[rows[i][j] for j in s] for i in t]).det()
                    for t in subsets
                }
                mask = sum(1 << i for i in s)
                assert images[mask] == {t: d for t, d in minors.items() if d}
                block = (1 << width) - 1 << (mask * width)
                assert ((ones & block) >> (mask * width), (twos & block) >> (mask * width)) == (
                    sum(1 << t for t, d in minors.items() if d % 3 == 1),
                    sum(1 << t for t, d in minors.items() if d % 3 == 2),
                )

    def test_top_power_is_determinant(self):
        m, _ = random_unimodular(4, seed=3, steps=15)
        top = exterior_power_matrix(m, 4)
        assert top.to_rows() == [[m.det()]]

    def test_degree_one_is_the_matrix(self):
        m = mat([[1, 2], [0, -1]])
        assert exterior_power_matrix(m, 1) == m

    def test_degree_zero_is_the_unit(self):
        assert exterior_power_matrix(mat([[0, 1], [1, 0]]), 0).to_rows() == [[1]]

    def test_power_entries_are_minors_in_combination_order(self):
        # row T, column S of Λ^k(A) is det A[T, S], both in
        # itertools.combinations order
        rows = [[2, -1, 0], [1, 3, 5], [-4, 0, 7]]
        for k in range(4):
            subsets = list(itertools.combinations(range(3), k))
            assert exterior_power_matrix(mat(rows), k).to_rows() == [
                [mat([[rows[i][j] for j in s] for i in t]).det() for s in subsets]
                for t in subsets
            ]

    @pytest.mark.parametrize(
        "rows, k, message",
        [
            ([[1, 0]], 1, "square matrix required"),
            ([[1, 0], [0, 1]], -1, "degree out of range"),
            ([[1, 0], [0, 1]], 3, "degree out of range"),
        ],
        ids=["non-square", "negative-degree", "degree-above-n"],
    )
    def test_power_rejects(self, rows, k, message):
        with pytest.raises(ValueError, match=message):
            exterior_power_matrix(mat(rows), k)

    def test_builds_exterior_images_once(self, count_calls):
        # the F_3 action once, and no exact integer image at all
        f3_calls = count_calls(oracle._f3_exterior_images)
        exact_calls = count_calls(oracle._exterior_images)
        m = canonical_matrix(1, 2, 1)
        exterior_action_invariants(m)
        assert f3_calls == [(m,)]
        assert exact_calls == []

    def test_f3_ranks_match_rank_exact(self, monkeypatch):
        # differential: each kernel dimension is C(n, k) - rank over Q of
        # Λ^k(A) -+ I, by Bareiss on the exact integer exterior powers, read
        # from images built once per member and indexed by the mask of S;
        # the verifier's two F_3 eliminations (M - I, then M + I) have, in
        # each degree k, as many pivots as that Bareiss rank
        pivots, tables = oracle._f3_pivots, []

        def recording(rows):
            tables.append(pivots(rows))
            return tables[-1]

        monkeypatch.setattr(oracle, "_f3_pivots", recording)
        for n in range(1, 9):
            for member in involution_corpus(n, seed=3, count=1):
                images = oracle._exterior_images(member.matrix)
                dims = [0] * 4  # even_inv, odd_inv, even_anti, odd_anti
                ranks = []
                for k in range(n + 1):
                    masks = [sum(1 << i for i in s) for s in itertools.combinations(range(n), k)]
                    m = mat([[images[s].get(t, 0) for s in masks] for t in masks])
                    ident = IntMatrix.identity(m.rows)
                    assert m.rows == math.comb(n, k)
                    ranks.append((rank_exact(m - ident), rank_exact(m + ident)))
                    dims[k % 2] += m.rows - ranks[-1][0]
                    dims[2 + k % 2] += m.rows - ranks[-1][1]
                tables.clear()
                assert exterior_action_invariants(member.matrix) == CohomologyAction(*dims)
                minus, plus = ([p.bit_count() for p in table] for table in tables)
                assert ranks == [(minus.count(k), plus.count(k)) for k in range(n + 1)]

    def test_wedge_masks_split_the_slots_without_i(self):
        # the same split in each of the 2^(n-1) blocks, and nothing above them
        for n in range(1, 7):
            width = oracle._block_width(n)
            for i, (keep, flip) in enumerate(oracle._wedge_masks(n)):
                assert max(keep, flip).bit_length() <= width << (n - 1)
                for t in range(width << (n - 1)):
                    slot = t % width
                    above = (slot >> i).bit_count() & 1
                    assert (keep >> t & 1, flip >> t & 1) == (
                        (0, 0) if slot >> n or slot >> i & 1 else (1 - above, above)
                    )

    def test_zero_dimensional_torus(self):
        # Λ of the 0 x 0 matrix is Λ^0 = Z, fixed: one invariant class in degree 0
        assert exterior_action_invariants(IntMatrix(0, 0, ())) == CohomologyAction(1, 0, 0, 0)

    def test_makes_no_rank_exact_call(self, count_calls):
        calls = count_calls(rank_exact)
        member = involution_corpus(4, seed=3, count=1)[5]
        assert exterior_action_invariants(member.matrix) == cohomology_invariants(
            validate_involution(member.matrix)
        )
        assert calls == []

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 3], [0, 1]],  # unipotent, and I mod 3
            [[1, 0, 0], [0, 1, 3], [0, 0, 1]],
            [[-1, 0], [0, 4]],  # an involution mod 3
            [[0, -1], [1, -1]],  # order 3
            [[0, -1], [1, 0]],  # order 4
        ],
    )
    def test_rejects_non_involutions(self, rows):
        message = "^exterior action is not semisimple over Q$"
        with pytest.raises(InternalInvariantError, match=message):
            exterior_action_invariants(mat(rows))

    def test_mod_three_ranks_alone_would_accept_a_unipotent(self):
        # A = [[1, 3], [0, 1]]: over F_3, A - I = 0 and A + I = 2I have ranks
        # summing to 2, but over Q rank(A - I) = 1; only the integer check of
        # A·A = I refuses it (test_rejects_non_involutions)
        def f3_rows(rows):
            return [
                (
                    sum(1 << j for j, x in enumerate(r) if x % 3 == 1),
                    sum(1 << j for j, x in enumerate(r) if x % 3 == 2),
                )
                for r in rows
            ]

        minus, plus = [[0, 3], [0, 0]], [[2, 3], [0, 2]]
        assert len(_f3_pivots(f3_rows(minus))) + len(_f3_pivots(f3_rows(plus))) == 2
        assert rank_exact(mat(minus)) + rank_exact(mat(plus)) == 3

    def test_agrees_with_trace_route(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
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

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="^need a square matrix of positive size, got 0x0$"):
            fixed_grid_components(IntMatrix(0, 0, ()), 4)

    def test_agrees_with_invariant_route(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                desc = fixed_set(validate_involution(member.matrix))
                grid = fixed_grid_components(member.matrix, 4)
                assert grid.components == desc.components
                assert grid.dim_estimate == desc.dim

    @pytest.mark.parametrize(
        "rows, d",
        [(rows, d) for rows in ENUMERATION_MATRICES for d in (2, 4, 6)]
        # residues of two coordinates mod 2d = 200 sum past 255
        + [([[0, 1], [1, 0]], 100), ([[1, 0], [-7, -1]], 100)]
        # d = 10 = 2·5 and d = 22 = 2·11, the most unbalanced split: odd n
        # takes step 2 on the first side and the cofactor on the second
        + [(rows, d) for rows in ENUMERATION_MATRICES for d in (10, 22)]
        # d = 18 = 3·6: odd n takes the odd step 3
        + [(rows, 18) for rows in ENUMERATION_MATRICES if len(rows) % 2],
    )
    def test_grid_counts_match_pure_enumeration(self, rows, d):
        a = mat(rows)
        assert validate_involution(a).n == len(rows)
        assert grid_by_enumeration(a, d) == fixed_grid_components(a, d)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 10),
                # an elementary conjugator I + t·E_ij with t above 2^64
                st.none()
                | st.tuples(
                    st.integers(2**64 + 1, 2**70),
                    st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]),
                )
                if n > 1
                else st.none(),
                st.just(n),
            )
        ),
        st.sampled_from([2, 4, 6]),
    )
    def test_grid_matches_enumeration_on_corpus_members(self, draw, d):
        seed, index, conjugator, n = draw
        corpus = involution_corpus(n, seed, 1)
        a = corpus[index % len(corpus)].matrix
        if conjugator:
            t, (i, j) = conjugator
            p = [[int(r == c) for c in range(n)] for r in range(n)]
            p_inv = [row[:] for row in p]
            p[i][j], p_inv[i][j] = t, -t
            a = mat(p) @ a @ mat(p_inv)
        assert fixed_grid_components(a, d) == grid_by_enumeration(a, d)

    @pytest.mark.parametrize(
        "a, d, expected",
        [
            # d = 10^6 is split into two digits of 1000 values
            (mat([[-1]]), 10**6, FixedGridResult(2, 0, 2)),
            (mat([[1]]), 10**6, FixedGridResult(1, 1, 10**6)),
            # every point of the grid is fixed, and every label is 0
            (IntMatrix.identity(8), 4, FixedGridResult(1, 8, 4**8)),
            # 4^9 points are within the point bound
            (IntMatrix.identity(9), 4, FixedGridResult(1, 9, 4**9)),
        ],
        ids=["reflection-n1", "identity-n1", "identity-n8", "identity-n9"],
    )
    def test_extreme_grids(self, a, d, expected):
        assert fixed_grid_components(a, d) == expected

    def test_rank_seven_corpus_member(self):
        # 4^7 points, joined from two sides of 4^3·2 points
        corpus = involution_corpus(7, seed=7, count=1)
        member = next(m for m in corpus if m.invariants == StructureInvariants(1, 2, 2))
        analysis = validate_involution(member.matrix).analysis
        grid = fixed_grid_components(member.matrix, 4)
        assert (grid.components, grid.dim_estimate) == (
            analysis.fixed_components,
            analysis.fixed_dim,
        )
        assert grid.count == analysis.fixed_components * 4**analysis.fixed_dim


class TestResolutionTor:
    def test_tor1_of_trivial_with_itself(self):
        assert resolution_module_class("TrivZ", "TrivZ", 1) == {"TorF2": 1}

    def test_tor1_of_opposite_classes(self):
        assert resolution_module_class("TrivZ", "SignZ", 1) == {}

    def test_tensor_of_opposite_classes(self):
        assert resolution_module_class("TrivZ", "SignZ", 0) == {"TorF2": 1}

    def test_ring_is_flat(self):
        for name in ("FreeR", "TrivZ", "SignZ", "TorF2"):
            for degree in (1, 2):
                assert resolution_module_class("FreeR", name, degree) == {}
                assert resolution_module_class(name, "FreeR", degree) == {}

    def test_tensor_keeps_module_labels(self):
        # M ⊗ R = M, read off each class's own resolution
        for name in ("FreeR", "TrivZ", "SignZ", "TorF2"):
            assert resolution_module_class(name, "FreeR", 0) == {name: 1}
        assert resolution_module_class("SignZ", "SignZ", 0) == {"SignZ": 1}
        assert resolution_module_class("TorF2", "TorF2", 0) == {"TorF2": 1}

    def test_two_torsion_is_labelled_only_where_t_acts_as_one(self):
        # R/2 = Z/2 ⊕ Z/2 with t swapping the summands is not a sum of TorF2
        cycles = IntMatrix(0, 2, ())
        twice = IntMatrix.from_rows([[2, 0], [0, 2]])
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(InternalInvariantError):
            oracle._homology_label(cycles, twice, swap)
        assert oracle._homology_label(cycles, twice, IntMatrix.identity(2)) == {"TorF2": 2}

    def test_degree_two_periodicity(self):
        assert resolution_module_class("TrivZ", "SignZ", 2) == {"TorF2": 1}
        assert resolution_module_class("TrivZ", "TrivZ", 2) == {}
        assert resolution_module_class("TorF2", "TorF2", 2) == {"TorF2": 2}

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            resolution_module_class("TrivZ", "TrivZ", 3)

    def test_localize_cells_read_off_tensor_answers(self):
        # made-up answers: Z-rank 3 on two dyadic generators is neither free
        # nor cyclic, and no note describes it
        answers = {"TrivZ": {"TrivZ": 2}, "SignZ": {"SignZ": 1}, "TorF2": {"TorF2": 2}}
        assert oracle._localize_cell(answers, "MinPlus")["free_rank"] == 2
        assert oracle._localize_cell(answers, "OddMinus")["free_rank"] == 1
        with pytest.raises(InternalInvariantError):
            oracle._localize_cell(answers, "Dyadic")
        # Z-rank 0 is all 2-torsion, which survives only at the dyadic point
        torsion = {"TrivZ": {"TorF2": 3}, "SignZ": {"TorF2": 3}, "TorF2": {"TorF2": 3}}
        cells = {kind: oracle._localize_cell(torsion, kind) for kind in _SITE_KINDS}
        assert {kind for kind, cell in cells.items() if cell["torsion_flag"]} == {"Dyadic"}
        assert all(cell["free_rank"] == 0 for cell in cells.values())

    def test_regenerates_packaged_file_byte_identically(self):
        assert render_table_file_bytes() == _load_table_bytes()

    def test_checksum_matches_payload(self):
        tables = regenerate_tables()
        import json

        doc = json.loads(render_table_file_bytes())
        assert doc["sha256"] == table_checksum(tables)
        assert sorted(tables) == ["classes", "localize", "tensor", "tor1"]


class TestCorpus:
    def test_rank_one_has_two_classes(self):
        corpus = involution_corpus(1, seed=0, count=1)
        mats = sorted(m.matrix.entries for m in corpus)
        assert mats == [(-1,), (1,)]

    def test_rank_two_class_list(self):
        assert structure_classes(2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]

    def test_rank_three_member_count_and_validity(self):
        corpus = involution_corpus(3, seed=11, count=5)
        assert len(corpus) == 30
        ident = IntMatrix.identity(3)
        for member in corpus:
            assert member.matrix @ member.matrix == ident
            assert invariants(validate_involution(member.matrix)) == member.invariants

    def test_deterministic(self):
        assert involution_corpus(4, seed=9, count=2) == involution_corpus(4, seed=9, count=2)

    def test_stream_is_pinned(self):
        # recorded before the corpus walk was rewritten; the exterior
        # verifier's cost depends on these matrices
        digest = hashlib.sha256()
        for n in range(1, 11):
            for member in involution_corpus(n, seed=7, count=1):
                digest.update(repr(member.matrix.entries).encode())
        for cap in (0, 1, 2, 9, 32):
            for seed in range(5):
                p, p_inv = random_unimodular(6, seed, steps=40, cap=cap)
                digest.update(repr((p.entries, p_inv.entries)).encode())
        assert digest.hexdigest() == (
            "acc97e81fd7b62c0394d009c7e9c182b520fea6d0835daf8b5509b39bba4ff02"
        )

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
            for member in corpus:
                assert tate_invariants(member.matrix) == invariants(
                    validate_involution(member.matrix)
                )
