import pytest
from hypothesis import given, strategies as st

from crystalk.errors import InternalInvariantError
from crystalk.intlin import (
    IntMatrix,
    exterior_trace_poly,
    first_row_off_identity_square,
    kernel_columns,
    kernel_coordinates,
    random_unimodular,
    smith_normal_form,
)
from crystalk.oracle import exterior_power_matrix, involution_corpus


def mat(rows):
    return IntMatrix.from_rows(rows)


SWAP = mat([[0, 1], [1, 0]])


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        ).map(mat)
    )
)


class TestIntMatrix:
    def test_from_rows_rejects_floats(self):
        with pytest.raises(TypeError):
            mat([[1.5]])

    def test_from_rows_rejects_bools(self):
        with pytest.raises(TypeError, match="^matrix entries must be integers, got True$"):
            mat([[True]])

    def test_from_rows_rejects_ragged(self):
        with pytest.raises(ValueError):
            mat([[1, 2], [3]])

    def test_matmul_identity(self):
        m = mat([[3, -2], [7, 5]])
        assert IntMatrix.identity(2) @ m == m
        assert m @ IntMatrix.identity(2) == m

    def test_det(self):
        assert mat([[2, 1], [1, 1]]).det() == 1
        assert mat([[2, 0], [0, 3]]).det() == 6
        assert mat([[1, 2], [2, 4]]).det() == 0
        assert IntMatrix.identity(0).det() == 1

    def test_big_integers_stay_exact(self):
        big = 10**40
        m = mat([[big, 1], [0, 1]])
        assert (m @ m).entry(0, 0) == big * big


class TestSmithNormalForm:
    def test_rank_one_difference(self):
        # hand reduction: add row 1 to row 2, add column 1 to column 2
        assert smith_normal_form(mat([[-1, 1], [1, -1]])).divisors == (1, 0)

    def test_single_negative_entry(self):
        assert smith_normal_form(mat([[-2]])).divisors == (2,)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix(2, 2, (0,) * 4)).divisors == (0, 0)

    @pytest.mark.parametrize("m", [IntMatrix(0, 3, ()), IntMatrix(3, 0, ())])
    def test_empty_shapes(self, m):
        snf = smith_normal_form(m)
        assert (snf.D.rows, snf.D.cols) == (m.rows, m.cols)
        assert snf.U @ m @ snf.V == snf.D
        assert snf.V @ snf.V_inv == IntMatrix.identity(m.cols)
        assert snf.divisors == ()

    @given(small_matrices, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_unimodular_invariance(self, m, s1, s2):
        u, _ = random_unimodular(m.rows, s1, steps=8)
        v, _ = random_unimodular(m.cols, s2, steps=8)
        assert smith_normal_form(u @ m @ v).divisors == smith_normal_form(m).divisors

    def test_divisor_chain_nontrivial(self):
        assert smith_normal_form(mat([[2, 0], [0, 3]])).divisors == (1, 6)

    def test_deterministic(self):
        m = mat([[4, -6, 2], [6, 12, 9], [0, 3, 3]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first == second

    @given(small_matrices)
    def test_decomposition_properties(self, m):
        snf = smith_normal_form(m)
        assert snf.U @ m @ snf.V == snf.D
        assert snf.V @ snf.V_inv == IntMatrix.identity(m.cols)
        assert abs(snf.U.det()) == 1
        assert abs(snf.V.det()) == 1
        divs = snf.divisors
        assert all(d >= 0 for d in divs)
        for i in range(len(divs) - 1):
            if divs[i] == 0:
                assert divs[i + 1] == 0
            else:
                assert divs[i + 1] % divs[i] == 0
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D.entry(i, j) == 0


class TestKernelBasis:
    def test_swap_fixed_line(self):
        k = kernel_columns(smith_normal_form(SWAP - IntMatrix.identity(2)))
        assert k.cols == 1
        # the kernel lattice is exactly the span of (1, 1)
        col = k.column(0)
        assert col in ((1, 1), (-1, -1))

    def test_injective(self):
        assert kernel_columns(smith_normal_form(mat([[-2, 0], [0, -2]]))).cols == 0

    def test_zero_map(self):
        assert kernel_columns(smith_normal_form(IntMatrix(3, 3, (0,) * 9))).cols == 3

    @given(small_matrices)
    def test_kernel_is_saturated(self, m):
        k = kernel_columns(smith_normal_form(m))
        assert m @ k == IntMatrix(m.rows, k.cols, (0,) * (m.rows * k.cols))
        if k.cols:
            # primitive basis: all invariant factors are 1
            assert smith_normal_form(k).divisors == (1,) * k.cols


class TestKernelCoordinates:
    @given(small_matrices, st.lists(st.integers(-9, 9), min_size=8, max_size=8))
    def test_match_express_in_basis(self, m, coeffs):
        snf = smith_normal_form(m)
        k = kernel_columns(snf)
        # two combinations of the kernel basis, read back through V_inv
        x = IntMatrix(k.cols, 2, tuple(coeffs[: 2 * k.cols]))
        assert kernel_coordinates(snf, k @ x) == x

    def test_outside_the_kernel_raises(self):
        snf = smith_normal_form(SWAP - IntMatrix.identity(2))
        assert kernel_coordinates(snf, mat([[3], [3]])).to_rows() in ([[3]], [[-3]])
        with pytest.raises(ValueError, match="^vector outside the kernel$"):
            kernel_coordinates(snf, mat([[1, 1], [1, 0]]))

    def test_ambient_dimensions_must_agree(self):
        with pytest.raises(ValueError):
            kernel_coordinates(smith_normal_form(SWAP), mat([[1]]))


class TestExteriorTracePoly:
    def test_identity_binomials(self):
        assert exterior_trace_poly(IntMatrix.identity(2)) == (1, 2, 1)

    def test_swap(self):
        # det(I + t*swap) = 1 - t^2
        assert exterior_trace_poly(SWAP) == (1, 0, -1)

    def test_minus_identity(self):
        assert exterior_trace_poly(-IntMatrix.identity(2)) == (1, -2, 1)

    def test_top_coefficient_is_determinant(self):
        m = mat([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
        assert exterior_trace_poly(m)[3] == m.det()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_product_traces_match_exterior_matrices(self, s1, s2, n):
        a, _ = random_unimodular(n, s1, steps=10)
        b, _ = random_unimodular(n, s2, steps=10)
        coeffs = exterior_trace_poly(a @ b)
        for k in range(n + 1):
            prod = exterior_power_matrix(a, k) @ exterior_power_matrix(b, k)
            trace = sum(prod.entry(i, i) for i in range(prod.rows))
            assert coeffs[k] == trace


class TestRandomUnimodular:
    def test_dimension_one_is_a_unit(self):
        for seed in range(5):
            m, m_inv = random_unimodular(1, seed, steps=10)
            assert m.entries in ((1,), (-1,))
            assert m_inv == m

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            random_unimodular(0, 1, 1)

    def test_zero_steps_is_identity(self):
        assert random_unimodular(2, seed=99, steps=0) == (IntMatrix.identity(2),) * 2

    def test_seeded_determinism(self):
        a = random_unimodular(4, seed=11, steps=20)
        b = random_unimodular(4, seed=11, steps=20)
        assert a == b

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([1, 9, 32]))
    def test_determinant_is_a_unit(self, n, seed, cap):
        p, p_inv = random_unimodular(n, seed, steps=20, cap=cap)
        assert abs(p.det()) == 1
        assert p @ p_inv == IntMatrix.identity(n)
        assert max(p.max_abs(), p_inv.max_abs()) <= cap


def first_row_off_identity_by_dot_products(m):
    square = m @ m
    for i in range(m.rows):
        if any(square.entry(i, j) != int(i == j) for j in range(m.cols)):
            return i
    return None


def shear(n, c):
    """I + c·E_01, whose inverse is shear(n, -c)."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[0][1] = c
    return mat(rows)


@st.composite
def near_involutions(draw):
    """P·D·P^-1 for a signed diagonal D, sometimes with one entry moved.

    P is a seeded unimodular matrix, optionally times a shear with a
    huge entry, so both exact involutions and their near misses carry
    entries far beyond 64 bits.
    """
    n = draw(st.integers(1, 5))
    p, p_inv = random_unimodular(n, draw(st.integers(0, 2**32 - 1)), 3 * n + 2, 9)
    if n > 1:
        c = draw(st.sampled_from([1, 2**40 + 1, -(2**70)]))
        p = p @ shear(n, c)
        p_inv = shear(n, -c) @ p_inv
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    diag = mat([[signs[i] if i == j else 0 for j in range(n)] for i in range(n)])
    rows = (p @ diag @ p_inv).to_rows()
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += draw(st.sampled_from([1, -1, 3, 2**64, -(2**70)]))
    return mat(rows)


# dim·max² = (2^k - 1)·4^j sits just below a power of two
below_power_of_two = st.tuples(st.sampled_from([1, 3, 7]), st.integers(0, 40)).flatmap(
    lambda dm: st.lists(
        st.lists(st.sampled_from([-(2 ** dm[1]), 0, 2 ** dm[1]]), min_size=dm[0], max_size=dm[0]),
        min_size=dm[0],
        max_size=dm[0],
    )
)

wide_entries = st.one_of(
    st.integers(-2, 2),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**62, -(2**63), 2**64 - 1]),
)


class TestSquareIsIdentity:
    @given(
        st.one_of(
            near_involutions(),
            below_power_of_two.map(mat),
            st.integers(1, 5).flatmap(
                lambda n: st.lists(
                    st.lists(wide_entries, min_size=n, max_size=n), min_size=n, max_size=n
                )
            ).map(mat),
        )
    )
    def test_matches_dot_products(self, m):
        got = first_row_off_identity_square(m.to_rows())
        assert got == first_row_off_identity_by_dot_products(m)

    def test_involutions_and_first_bad_row(self):
        assert first_row_off_identity_square([]) is None
        assert first_row_off_identity_square([[0, 1], [1, 0]]) is None
        assert first_row_off_identity_square([[1, 0], [2**70 + 1, -1]]) is None
        assert first_row_off_identity_square([[1, 0], [0, 1 + 3**40]]) == 1
        # row 0 of A·A is (1, 0) but row 1 is not
        assert first_row_off_identity_square([[1, 0], [1, 1]]) == 1
        # row 0 of A·A is (9, -1, 0, ..., 0): with 3-bit slots (sized by the
        # largest entry alone) it would pack to 9 - 2^3 = 1, like a unit row
        rows = [[1] * 10] + [
            [int(r <= 8), -int(r <= 2)] + [-int(r == j - 1) for j in range(2, 10)]
            for r in range(1, 10)
        ]
        assert first_row_off_identity_by_dot_products(mat(rows)) == 0
        assert first_row_off_identity_square(rows) == 0

    def test_matches_dot_products_on_exterior_powers(self):
        # Λ^k(A) of an involution, and copies with one entry moved: set to
        # zero, made nonzero, or pushed past 64 bits
        for n in (3, 5):
            for member in involution_corpus(n, seed=5, count=1):
                for k in range(n + 1):
                    m = exterior_power_matrix(member.matrix, k)
                    dim = m.rows
                    cases = [m.to_rows()]
                    for i, j, delta in ((0, 0, 1), (dim - 1, 0, -3), (dim // 2, dim - 1, 2**64)):
                        rows = m.to_rows()
                        rows[i][j] += delta
                        cases.append(rows)
                        rows = m.to_rows()
                        rows[i][j] = 0
                        cases.append(rows)
                    for rows in cases:
                        want = first_row_off_identity_by_dot_products(mat(rows))
                        assert first_row_off_identity_square(rows) == want
