"""Seeded benchmark inputs and their expected answers.

This module never imports ``crystalk``: the inputs a workload feeds the
program, and the answers it checks them against, must not move when the
program changes.  Everything here is derived from the summand
multiplicities ``(a, b, c)`` with ``a + b + 2c = n`` (trivial, sign and
regular summands of an integer involution lattice).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# entry bound of the conjugating matrix and of its inverse
CONJUGATOR_CAP = 4

TRIVIAL = "Trivial"
FREE = "FreeOutsideOrigin"
SPLIT = "MixedSplit"
NONSPLIT = "MixedNonSplit"


@dataclass(frozen=True)
class Expected:
    """Every answer the program gives for a lattice with invariants (a, b, c)."""

    a: int
    b: int
    c: int
    action_class: str
    scope_flag: str
    fixed_dim: int
    components: int
    traces: tuple[int, ...]
    k0: int
    k1: int


@dataclass(frozen=True)
class Case:
    """One generated input: an involution matrix and its expected answers."""

    rows: tuple[tuple[int, ...], ...]
    expected: Expected

    def as_input(self) -> dict:
        return {"n": len(self.rows), "matrix": [list(r) for r in self.rows]}


def structure_classes(n: int) -> list[tuple[int, int, int]]:
    """All (a, b, c) with a + b + 2c = n."""
    return [(a, n - 2 * c - a, c) for c in range(n // 2 + 1) for a in range(n - 2 * c + 1)]


def category(a: int, b: int, c: int) -> str:
    if c:
        return NONSPLIT
    if b == 0:
        return TRIVIAL
    if a == 0:
        return FREE
    return SPLIT


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def expected(a: int, b: int, c: int) -> Expected:
    """Answers from (a, b, c) alone.

    The fixed subtorus has dimension a + c and 2^b components; the
    exterior-power traces are the coefficients of
    (1 + t)^(a + c) (1 - t)^(b + c); the ranks follow from the
    delocalized formula: invariant torus cohomology plus fixed-set
    cohomology, split by parity.
    """
    if min(a, b, c) < 0 or a + b + 2 * c < 1:
        raise ValueError(f"no lattice has invariants {(a, b, c)}")
    n = a + b + 2 * c
    poly = [1]
    for _ in range(a + c):
        poly = _poly_mul(poly, [1, 1])
    for _ in range(b + c):
        poly = _poly_mul(poly, [1, -1])
    inv = [0, 0]
    for k, tr in enumerate(poly):
        inv[k % 2] += (math.comb(n, k) + tr) // 2
    dim, comps = a + c, 2**b
    fixed = (comps * 2 ** (dim - 1),) * 2 if dim else (comps, 0)
    cat = category(a, b, c)
    return Expected(
        a=a,
        b=b,
        c=c,
        action_class=cat,
        scope_flag="RationalOnly" if cat == NONSPLIT else "IntegralCertified",
        fixed_dim=dim,
        components=comps,
        traces=tuple(poly),
        k0=inv[0] + fixed[0],
        k1=inv[1] + fixed[1],
    )


def canonical_rows(a: int, b: int, c: int) -> list[list[int]]:
    """diag(I_a, -I_b, S, ..., S) with S the 2x2 coordinate swap."""
    n = a + b + 2 * c
    rows = [[0] * n for _ in range(n)]
    for i in range(a):
        rows[i][i] = 1
    for i in range(a, a + b):
        rows[i][i] = -1
    for k in range(c):
        i = a + b + 2 * k
        rows[i][i + 1] = rows[i + 1][i] = 1
    return rows


def matmul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def unimodular_pair(
    n: int, rng: random.Random, steps: int, cap: int = CONJUGATOR_CAP
) -> tuple[list[list[int]], list[list[int]]]:
    """(P, P^-1) from seeded elementary operations, entries bounded by ``cap``.

    Each step is a column operation on P mirrored by the inverse row
    operation on P^-1, so P @ P^-1 = I holds exactly throughout.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return p, q
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.choice((-1, 1))
            new_col = [p[r][j] + s * p[r][i] for r in range(n)]
            new_row = [q[i][k] - s * q[j][k] for k in range(n)]
            if max(map(abs, new_col)) <= cap and max(map(abs, new_row)) <= cap:
                for r in range(n):
                    p[r][j] = new_col[r]
                q[i] = new_row
        elif kind == 1:
            for r in range(n):
                p[r][i], p[r][j] = p[r][j], p[r][i]
            q[i], q[j] = q[j], q[i]
        else:
            for r in range(n):
                p[r][i] = -p[r][i]
            q[i] = [-x for x in q[i]]
    return p, q


def make_case(a: int, b: int, c: int, rng: random.Random) -> Case:
    """A conjugate P D P^-1 of the canonical form D of (a, b, c)."""
    n = a + b + 2 * c
    p, q = unimodular_pair(n, rng, steps=3 * n + 2)
    m = matmul(matmul(p, canonical_rows(a, b, c)), q)
    return Case(rows=tuple(map(tuple, m)), expected=expected(a, b, c))


def draw_case(n: int, rng: random.Random) -> Case:
    """A case at rank n, its class drawn uniformly from all structure classes."""
    return make_case(*rng.choice(structure_classes(n)), rng)


def case_pool(n: int, length: int, seed: int) -> list[Case]:
    """``length`` cases at rank n, each class drawn uniformly."""
    rng = random.Random(seed)
    return [draw_case(n, rng) for _ in range(length)]
