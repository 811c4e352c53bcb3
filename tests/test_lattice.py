import pytest
from hypothesis import given, strategies as st

from crystalk import oracle
from crystalk.errors import InternalInvariantError, NotInvolutionError, NotSquareError
from crystalk.intlin import (
    IntMatrix,
    _f3_pivots,
    kernel_columns,
    random_unimodular,
    smith_normal_form,
)
from crystalk.lattice import (
    ActionClass,
    Block,
    LatticeAnalysis,
    StructureInvariants,
    canonical_matrix,
    classify,
    decompose,
    invariants,
    validate_involution,
)
from crystalk.oracle import involution_corpus, structure_classes, tate_invariants


def mat(rows):
    return IntMatrix.from_rows(rows)


def lat(rows):
    return validate_involution(mat(rows))


SWAP = [[0, 1], [1, 0]]


def assert_conjugates(a, u, target):
    """U is unimodular with U^-1 A U = target, checked without an inverse."""
    assert a @ u == u @ target
    assert abs(u.det()) == 1


class TestValidate:
    def test_swap_is_valid(self):
        assert lat(SWAP).n == 2

    def test_shear_is_rejected(self):
        with pytest.raises(NotInvolutionError) as err:
            lat([[1, 1], [0, 1]])
        assert (err.value.row, err.value.col) == (0, 1)
        assert "expected 0" in str(err.value)

    def test_doubling_is_rejected(self):
        with pytest.raises(NotInvolutionError) as err:
            lat([[2]])
        assert err.value.value == 4

    @given(st.lists(st.integers(-2, 2), min_size=16, max_size=16))
    def test_names_first_wrong_entry_in_row_major_order(self, flat):
        m = IntMatrix(4, 4, tuple(flat))
        square = m @ m
        wrong = [
            (i, j, square.entry(i, j), int(i == j))
            for i in range(4)
            for j in range(4)
            if square.entry(i, j) != int(i == j)
        ]
        if not wrong:
            assert validate_involution(m).matrix == m
            return
        with pytest.raises(NotInvolutionError) as err:
            validate_involution(m)
        e = err.value
        assert (e.row, e.col, e.value, e.expected) == wrong[0]

    def test_forms_no_matrix_product(self, monkeypatch):
        def no_product(self, other):
            raise AssertionError("validate_involution multiplied matrices")

        monkeypatch.setattr(IntMatrix, "__matmul__", no_product)
        assert lat([[0, 1, 0], [1, 0, 0], [0, 0, -1]]).n == 3
        with pytest.raises(NotInvolutionError):
            lat([[1, 1], [0, 1]])

    def test_analysis_reads_no_rows(self, count_calls):
        # validation reads the matrix once, as its nonzeros, and the analysis
        # reuses that form
        calls = count_calls(IntMatrix.to_rows)
        validate_involution(mat([[0, 1, 0], [1, 0, 0], [0, 0, -1]])).analysis
        assert calls == []
        mat(SWAP).to_rows()
        assert len(calls) == 1

    def test_dense_conjugate_and_one_moved_entry(self):
        # 86% of the entries of this conjugate are nonzero
        n = 120
        p, p_inv = random_unimodular(n, seed=3, steps=1800, cap=9)
        a = p @ canonical_matrix(40, 30, 25) @ p_inv
        assert invariants(validate_involution(a)) == StructureInvariants(40, 30, 25)
        entries = list(a.entries)
        entries[57 * n + 88] += 1
        moved = IntMatrix(n, n, tuple(entries))
        # the first wrong entry of A*A in row-major order, by dot products
        square = moved @ moved
        want = next(
            NotInvolutionError(i, j, square.entry(i, j), int(i == j))
            for i in range(n)
            for j in range(n)
            if square.entry(i, j) != int(i == j)
        )
        with pytest.raises(NotInvolutionError) as err:
            validate_involution(moved)
        e = err.value
        assert (e.row, e.col, e.value, e.expected, str(e)) == (
            want.row,
            want.col,
            want.value,
            want.expected,
            str(want),
        )

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_involution(IntMatrix(2, 3, (0,) * 6))

    def test_empty_is_rejected(self):
        with pytest.raises(NotSquareError):
            validate_involution(IntMatrix(0, 0, ()))


class TestInvariants:
    def test_split_reflection(self):
        # one trivial summand contributes Z/2 to coker(A + I), one sign
        # summand contributes Z/2 to coker(A - I)
        assert invariants(lat([[1, 0], [0, -1]])) == StructureInvariants(1, 1, 0)
        assert tate_invariants(mat([[1, 0], [0, -1]])) == StructureInvariants(1, 1, 0)

    def test_swap_is_regular(self):
        assert invariants(lat(SWAP)) == StructureInvariants(0, 0, 1)

    def test_pure_sign(self):
        assert invariants(lat([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])) == (
            StructureInvariants(0, 3, 0)
        )

    def test_matches_quotient_route_on_mixed_example(self):
        m = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert invariants(validate_involution(m)) == tate_invariants(m)
        assert invariants(validate_involution(m)) == StructureInvariants(1, 0, 1)

    def test_analysis_is_cached_outside_equality(self):
        rows = [[0, 1, 0], [1, 0, 0], [0, 0, -1]]
        first, second = lat(rows), lat(rows)
        assert first.analysis is first.analysis
        assert first.analysis == LatticeAnalysis(
            StructureInvariants(0, 1, 1),
            ActionClass.MIXED_NONSPLIT,
            fixed_dim=1,
            fixed_components=2,
        )
        assert first == second and hash(first) == hash(second)


class TestClassify:
    def test_free_outside_origin(self):
        assert classify(lat([[-1 if i == j else 0 for j in range(5)] for i in range(5)])) is (
            ActionClass.FREE_OUTSIDE_ORIGIN
        )

    def test_mixed_split(self):
        rows = [[0] * 5 for _ in range(5)]
        for i in range(2):
            rows[i][i] = 1
        for i in range(2, 5):
            rows[i][i] = -1
        assert classify(lat(rows)) is ActionClass.MIXED_SPLIT

    def test_swap_plus_trivial_is_nonsplit(self):
        assert classify(lat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])) is ActionClass.MIXED_NONSPLIT

    def test_trivial(self):
        assert classify(lat([[1]])) is ActionClass.TRIVIAL

    def test_rank_one_classes(self):
        assert classify(lat([[-1]])) is ActionClass.FREE_OUTSIDE_ORIGIN


class TestDecompose:
    def test_already_canonical(self):
        a = canonical_matrix(1, 1, 1)
        u, blocks = decompose(validate_involution(a))
        assert u == IntMatrix.identity(4)
        assert blocks == (Block.TRIV, Block.SIGN, Block.REG)

    def test_conjugated_swap(self):
        p, p_inv = random_unimodular(2, seed=17, steps=12)
        a = p @ mat(SWAP) @ p_inv
        u, blocks = decompose(validate_involution(a))
        assert blocks == (Block.REG,)
        assert_conjugates(a, u, canonical_matrix(0, 0, 1))

    def test_reordering_permutation(self):
        u, blocks = decompose(lat([[-1, 0], [0, 1]]))
        assert blocks == (Block.TRIV, Block.SIGN)
        assert sorted(abs(x) for x in u.entries) == [0, 0, 1, 1]
        assert_conjugates(mat([[-1, 0], [0, 1]]), u, canonical_matrix(1, 1, 0))

    def test_sheared_reflection(self):
        a = mat([[1, 0], [2, -1]])
        u, blocks = decompose(validate_involution(a))
        assert blocks == (Block.TRIV, Block.SIGN)
        assert_conjugates(a, u, canonical_matrix(1, 1, 0))

    def test_two_smith_forms_and_none_when_canonical(self, snf_calls):
        decompose(validate_involution(canonical_matrix(2, 1, 1)))
        assert snf_calls == []
        for n in range(2, 7):
            for member in involution_corpus(n, seed=7, count=2):
                inv = member.invariants
                if member.matrix == canonical_matrix(inv.a, inv.b, inv.c):
                    continue
                snf_calls.clear()
                decompose(validate_involution(member.matrix))
                assert len(snf_calls) == 2


class TestConjugationProperties:
    def test_corpus_invariance(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                l = validate_involution(member.matrix)
                assert invariants(l) == member.invariants
                canon = validate_involution(
                    canonical_matrix(
                        member.invariants.a, member.invariants.b, member.invariants.c
                    )
                )
                assert classify(l) is classify(canon)

    def test_corpus_decompose_roundtrip(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus:
                l = validate_involution(member.matrix)
                u, blocks = decompose(l)
                inv = member.invariants
                assert blocks == (
                    (Block.TRIV,) * inv.a + (Block.SIGN,) * inv.b + (Block.REG,) * inv.c
                )
                assert_conjugates(member.matrix, u, canonical_matrix(inv.a, inv.b, inv.c))

    @given(
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**16),
        st.none() | st.tuples(st.integers(0, 7), st.integers(1, 7), st.integers(2**64 + 1, 2**70)),
    )
    def test_decompose_certificate_on_corpus_members(self, n, seed, index, shear):
        corpus = involution_corpus(n, seed, count=1)
        member = corpus[index % len(corpus)]
        a = member.matrix
        if shear and n > 1:
            # conjugate by I + t E_ij, whose inverse is I - t E_ij
            i, step, t = shear
            i %= n
            j = (i + step % (n - 1) + 1) % n
            rows = IntMatrix.identity(n).to_rows()
            rows[i][j] = t
            p = mat(rows)
            rows[i][j] = -t
            a = p @ a @ mat(rows)
        inv = member.invariants
        u, blocks = decompose(validate_involution(a))
        assert blocks == (Block.TRIV,) * inv.a + (Block.SIGN,) * inv.b + (Block.REG,) * inv.c
        assert_conjugates(a, u, canonical_matrix(inv.a, inv.b, inv.c))

    def test_corpus_kernel_and_torsion_bookkeeping(self, small_corpora):
        for n, corpus in small_corpora.items():
            ident = IntMatrix.identity(n)
            for member in corpus:
                inv = member.invariants
                a = member.matrix
                assert kernel_columns(smith_normal_form(a - ident)).cols == inv.a + inv.c
                assert kernel_columns(smith_normal_form(a + ident)).cols == inv.b + inv.c
                # the torsion of coker(A -+ I) is its nonunit nonzero divisors
                assert [d for d in smith_normal_form(a - ident).divisors if d > 1] == [2] * inv.b
                assert [d for d in smith_normal_form(a + ident).divisors if d > 1] == [2] * inv.a

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.sampled_from(structure_classes(n)),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    def test_random_conjugates_recover_invariants(self, case):
        (a, b, c), seed = case
        n = a + b + 2 * c
        p, p_inv = random_unimodular(n, seed, steps=3 * n)
        conj = p @ canonical_matrix(a, b, c) @ p_inv
        assert invariants(validate_involution(conj)) == StructureInvariants(a, b, c)
        assert tate_invariants(conj) == StructureInvariants(a, b, c)


class TestAnalysisRoutes:
    def test_ranks_agree_with_corpus_and_tate_route(self):
        for n in range(1, 13):
            for member in involution_corpus(n, seed=11, count=1):
                analysis = validate_involution(member.matrix).analysis
                inv = member.invariants
                assert analysis.invariants == inv == tate_invariants(member.matrix)
                assert analysis.fixed_components == 2**inv.b
                assert analysis.fixed_dim == inv.a + inv.c

    def test_non_involution_fails_the_f3_complement_check(self, monkeypatch):
        # A = I passes the integer check, but its stand-in Λ(A mod 3) has the
        # unipotent [[1, 1], [0, 1]] in degree 1: ranks 1 + 2 over F_3; block S
        # of the images, 8 bits wide at n = 2, holds the image of e_S
        images = 1 | 1 << (8 + 1) | 1 << (16 + 1) | 1 << (16 + 2) | 1 << (24 + 3), 0
        monkeypatch.setattr(oracle, "_f3_exterior_images", lambda a: images)
        message = r"^F_3 ranks 1 \+ 2 of M -\+ I in degree 1 do not complement to C\(2, 1\) = 2$"
        with pytest.raises(InternalInvariantError, match=message):
            oracle.exterior_action_invariants(IntMatrix.identity(2))

    def test_analysis_runs_no_f3_elimination(self, count_calls):
        # b + c is read off the trace, so no rank over F_3 is taken
        calls = count_calls(_f3_pivots)
        assert validate_involution(canonical_matrix(1, 2, 1)).analysis.invariants == (1, 2, 1)
        assert calls == []
