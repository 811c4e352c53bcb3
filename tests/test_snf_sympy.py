"""Differential tests: Smith normal form against sympy's invariant factors."""

import pytest

pytest.importorskip("sympy")

from hypothesis import given, strategies as st  # noqa: E402
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from crystalk.intlin import IntMatrix, smith_normal_form  # noqa: E402

# small, zero, negative and wide (beyond 64-bit) entries
entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))


def matrices(entry):
    return st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 5).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@given(st.one_of(matrices(entries), matrices(st.just(0))))
def test_divisors_match_sympy_invariant_factors(rows):
    m = IntMatrix.from_rows(rows)
    snf = smith_normal_form(m)
    expected = tuple(abs(int(x)) for x in invariant_factors(Matrix(rows), domain=ZZ))
    assert snf.divisors == expected
    assert snf.U @ m @ snf.V == snf.D
    assert abs(snf.U.det()) == abs(snf.V.det()) == 1
    diag = [[snf.divisors[i] if i == j else 0 for j in range(m.cols)] for i in range(m.rows)]
    assert snf.D == IntMatrix.from_rows(diag)
