"""Differential tests against sympy: Smith normal form and the F_2 / F_3 ranks."""

import pytest

pytest.importorskip("sympy")

from hypothesis import given, strategies as st  # noqa: E402
from sympy import GF, ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from crystalk.intlin import IntMatrix, _f3_rank, _residue_masks, smith_normal_form  # noqa: E402
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


def f3_rank(m):
    return _f3_rank((ones, twos) for _, ones, twos in _residue_masks(m))


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
