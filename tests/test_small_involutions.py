"""Every integer involution with small entries passes every verifier.

Bounded-exhaustive testing: the corpora elsewhere are conjugates
U^-1·canonical(a, b, c)·U drawn by a seeded generator, so an involution
it is unlikely to draw would go unchecked.  Here every n x n integer
matrix with entries in [-k, k] and A·A = I is listed and checked.
Tier-1 runs n <= 2 with k = 8 and n = 3 with k = 1; wider cases run
as a script, which also checks the count where ``COUNTS`` has one:

    PYTHONPATH=src python3 tests/test_small_involutions.py 3 2
"""

import itertools
import sys
from collections import Counter

import pytest

from crystalk.intlin import IntMatrix
from crystalk.lattice import Block, canonical_matrix, decompose, validate_involution
from crystalk.oracle import exterior_action_invariants, fixed_grid_components, tate_invariants
from crystalk.toruskt import build_report, cohomology_invariants

# involutions per (n, k), each counted by this enumerator
COUNTS = {(1, 8): 2, (2, 8): 134, (3, 1): 164, (3, 2): 644, (4, 1): 5436}


def involutions(n: int, k: int):
    """Every n x n integer matrix with entries in [-k, k] whose square is I.

    A is filled hook by hook: hook i is row i and column i from the
    diagonal on.  After hook i, rows and columns 0..i are complete, so
    every entry of A·A in that leading block is known and checked at
    once; a fill that fails one is dropped with all its completions.
    """
    values = range(-k, k + 1)
    a = [[0] * n for _ in range(n)]

    def square_is_unit(r: int, c: int) -> bool:
        return sum(a[r][t] * a[t][c] for t in range(n)) == (r == c)

    def fill(i: int):
        if i == n:
            yield IntMatrix.from_rows(a)
            return
        hook = [(i, j) for j in range(i, n)] + [(j, i) for j in range(i + 1, n)]
        # the entries of A·A that hook i completes: row i and column i, up to i
        done = [(i, j) for j in range(i + 1)] + [(j, i) for j in range(i)]
        for entries in itertools.product(values, repeat=len(hook)):
            for (r, c), x in zip(hook, entries):
                a[r][c] = x
            if all(square_is_unit(r, c) for r, c in done):
                yield from fill(i + 1)

    yield from fill(0)


def cstar_report_without_input(lat) -> dict:
    return {k: v for k, v in build_report(lat, kind="cstar").items() if k != "input"}


def failed_checks(a: IntMatrix) -> list[str]:
    """Names of the checks that A fails: each verifier against the analysis,
    and the report against the report of A's canonical form."""
    lat = validate_involution(a)
    analysis = lat.analysis
    inv = analysis.invariants
    grid = fixed_grid_components(a, 4)
    # decompose certifies A·U = U·T and |det U| = 1 itself, or raises
    blocks = Counter(decompose(lat)[1])
    canonical = validate_involution(canonical_matrix(*inv))
    checks = {
        "tate": tate_invariants(a) == inv,
        "exterior": exterior_action_invariants(a) == cohomology_invariants(lat),
        "grid": (grid.components, grid.dim_estimate)
        == (analysis.fixed_components, analysis.fixed_dim),
        "decompose": (blocks[Block.TRIV], blocks[Block.SIGN], blocks[Block.REG])
        == (inv.a, inv.b, inv.c),
        "report": cstar_report_without_input(lat) == cstar_report_without_input(canonical),
    }
    return [name for name, ok in checks.items() if not ok]


def test_enumerator_is_exhaustive_at_n_2_k_1():
    everything = (
        IntMatrix.from_rows([list(row[:2]), list(row[2:])])
        for row in itertools.product(range(-1, 2), repeat=4)
    )
    expected = [m for m in everything if m @ m == IntMatrix.identity(2)]
    assert sorted(m.entries for m in involutions(2, 1)) == sorted(m.entries for m in expected)


@pytest.mark.parametrize("n, k", [(1, 8), (2, 8), (3, 1)])
def test_every_small_involution_passes_every_check(n, k):
    matrices = list(involutions(n, k))
    assert len(matrices) == COUNTS[n, k]
    failures = [(m.to_rows(), failed) for m in matrices for failed in [failed_checks(m)] if failed]
    assert failures == []


def main(argv: list[str]) -> int:
    n, k = map(int, argv)
    count = failures = 0
    for m in involutions(n, k):
        count += 1
        failed = failed_checks(m)
        if failed:
            failures += 1
            print(f"FAIL {m.to_rows()}: {', '.join(failed)}")
    expected = COUNTS.get((n, k))
    print(f"n = {n}, entries in [-{k}, {k}]: {count} involutions, {failures} failing")
    if expected is not None and count != expected:
        print(f"expected {expected} involutions")
        return 1
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
