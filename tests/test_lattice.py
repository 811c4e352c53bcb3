import pytest
from hypothesis import given, strategies as st

from crystalk.errors import NotInvolutionError, NotSquareError
from crystalk.intlin import (
    IntMatrix,
    cokernel,
    inv_unimodular,
    kernel_basis,
    random_unimodular,
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
from crystalk.oracle import structure_classes, tate_invariants


def mat(rows):
    return IntMatrix.from_rows(rows)


def lat(rows):
    return validate_involution(mat(rows))


SWAP = [[0, 1], [1, 0]]


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

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_involution(IntMatrix.zeros(2, 3))

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
        p = random_unimodular(2, seed=17, steps=12)
        a = p @ mat(SWAP) @ inv_unimodular(p)
        u, blocks = decompose(validate_involution(a))
        assert blocks == (Block.REG,)
        assert inv_unimodular(u) @ a @ u == canonical_matrix(0, 0, 1)

    def test_reordering_permutation(self):
        u, blocks = decompose(lat([[-1, 0], [0, 1]]))
        assert blocks == (Block.TRIV, Block.SIGN)
        assert sorted(abs(x) for x in u.entries) == [0, 0, 1, 1]
        assert inv_unimodular(u) @ mat([[-1, 0], [0, 1]]) @ u == canonical_matrix(1, 1, 0)

    def test_sheared_reflection(self):
        a = mat([[1, 0], [2, -1]])
        u, blocks = decompose(validate_involution(a))
        assert blocks == (Block.TRIV, Block.SIGN)
        assert inv_unimodular(u) @ a @ u == canonical_matrix(1, 1, 0)


class TestConjugationProperties:
    def test_corpus_invariance(self, small_corpora):
        for corpus in small_corpora.values():
            for member in corpus.members:
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
            for member in corpus.members:
                l = validate_involution(member.matrix)
                u, blocks = decompose(l)
                assert abs(u.det()) == 1
                inv = member.invariants
                assert blocks == (
                    (Block.TRIV,) * inv.a + (Block.SIGN,) * inv.b + (Block.REG,) * inv.c
                )
                assert inv_unimodular(u) @ member.matrix @ u == canonical_matrix(
                    inv.a, inv.b, inv.c
                )

    def test_corpus_kernel_and_torsion_bookkeeping(self, small_corpora):
        for n, corpus in small_corpora.items():
            ident = IntMatrix.identity(n)
            for member in corpus.members:
                inv = member.invariants
                a = member.matrix
                assert kernel_basis(a - ident).cols == inv.a + inv.c
                assert kernel_basis(a + ident).cols == inv.b + inv.c
                assert cokernel(a - ident).torsion == (2,) * inv.b
                assert cokernel(a + ident).torsion == (2,) * inv.a

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
        p = random_unimodular(n, seed, steps=3 * n)
        conj = p @ canonical_matrix(a, b, c) @ inv_unimodular(p)
        assert invariants(validate_involution(conj)) == StructureInvariants(a, b, c)
        assert tate_invariants(conj) == StructureInvariants(a, b, c)
