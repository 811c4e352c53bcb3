"""Differential tests against sympy: Smith normal form, determinant and the ranks."""

import pytest

pytest.importorskip("sympy")

from hypothesis import given, strategies as st  # noqa: E402
from sympy import GF, ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from crystalk.intlin import IntMatrix, _f3_pivots, smith_normal_form  # noqa: E402
from crystalk.oracle import _gf2_rank_rows, involution_corpus, rank_exact  # noqa: E402

# small, zero, negative and wide (beyond 64-bit) entries
entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))


def matrices(entry, max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@st.composite
def elimination_inputs(draw):
    """Square and rectangular matrices; in some, one row is an integer
    combination of the others, inserted so that the rank falls short."""
    c = draw(st.integers(1, 5))
    dependent = draw(st.booleans())
    r = c - dependent if draw(st.booleans()) else draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
    if dependent:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        combo = [sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(c)]
        rows.insert(draw(st.integers(0, r)), combo)
    return rows


def f3_rank(m):
    rows = [
        (
            sum(1 << j for j, x in enumerate(r) if x % 3 == 1),
            sum(1 << j for j, x in enumerate(r) if x % 3 == 2),
        )
        for r in m.to_rows()
    ]
    return len(_f3_pivots(rows))


@given(st.one_of(matrices(entries), matrices(st.just(0))))
def test_divisors_match_sympy_invariant_factors(rows):
    m = IntMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    expected = tuple(abs(int(x)) for x in invariant_factors(Matrix(rows), domain=ZZ))
    assert snf.divisors == expected
    assert snf.U @ m @ snf.V == snf.D
    assert snf.V @ snf.V_inv == IntMatrix.identity(m.cols)
    assert abs(snf.U.det()) == abs(snf.V.det()) == 1
    diag = [[snf.divisors[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)]
    assert snf.D == IntMatrix.from_rows(diag)


@pytest.mark.parametrize("rows", [[], [[0]], [[-(2**70)]]])
def test_det_and_rank_of_the_smallest_shapes(rows):
    m = IntMatrix.from_rows(rows)
    assert m.det() == Matrix(rows).det()
    assert rank_exact(m) == Matrix(rows).rank()


@given(elimination_inputs())
def test_det_and_rank_match_sympy(rows):
    m = IntMatrix.from_rows(rows)
    assert rank_exact(m) == Matrix(rows).rank()
    if m.is_square:
        assert m.det() == Matrix(rows).det()


@given(
    st.one_of(
        matrices(entries, max_dim=6),
        matrices(st.sampled_from([-(2**70), -3, -2, -1, 0, 1, 2, 3, 2**70]), max_dim=6),
    )
)
def test_modular_ranks_match_sympy(rows):
    dm = DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), len(rows[0])), ZZ)
    m = IntMatrix.from_rows(rows)
    assert _gf2_rank_rows(m) == dm.convert_to(GF(2)).rank()
    assert f3_rank(m) == dm.convert_to(GF(3)).rank()


def test_f3_ranks_of_involutions_are_the_ranks_over_q():
    for n in range(1, 7):
        ident = IntMatrix.identity(n)
        for member in involution_corpus(n, seed=5, count=1):
            for shifted in (member.matrix - ident, member.matrix + ident):
                assert f3_rank(shifted) == rank_exact(shifted)
