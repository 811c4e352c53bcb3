#!/usr/bin/env python3
"""Sweep the closed-form families and print a rank table.

For each rank n the sweep covers the trivial action, the point
reflection (free away from the origin), every split action
diag(I_r, -I_{n-r}), and, at n = 2, the swap lattice.  Each case is
validated as a matrix, and its ranks are read off the lattice's
analysis, the summand multiplicities (a, b, c).  Both rank routes run on
every split case: ``integral_k_theory`` assembles it by
``kunneth_assembly``, which compares the two and raises on any
disagreement, aborting the sweep.
"""

from __future__ import annotations

import argparse
import sys
import time

from crystalk.intlin import IntMatrix
from crystalk.lattice import ActionClass, canonical_matrix, classify, validate_involution
from crystalk.toruskt import integral_k_theory


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    start = time.perf_counter()
    print(f"{'n':>3} {'action':<22} {'class':<18} {'k0':>6} {'k1':>6}  route check")
    for n in range(1, args.max_n + 1):
        cases: list[tuple[str, IntMatrix]] = [
            ("trivial", IntMatrix.identity(n)),
            ("point reflection", -IntMatrix.identity(n)),
        ]
        for r in range(1, n):
            cases.append((f"split r={r}", canonical_matrix(r, n - r, 0)))
        if n == 2:
            cases.append(("swap", IntMatrix.from_rows([[0, 1], [1, 0]])))
        for name, matrix in cases:
            lat = validate_involution(matrix)
            report = integral_k_theory(lat.analysis)
            cls = classify(lat)
            note = report["scope_flag"]
            if cls is ActionClass.MIXED_SPLIT:
                # integral_k_theory ran kunneth_assembly, which raises
                # InternalInvariantError unless both routes agree
                note += ", routes agree"
            print(
                f"{n:>3} {name:<22} {cls.value:<18} "
                f"{report['ranks']['k0']:>6} {report['ranks']['k1']:>6}  {note}"
            )
    print(f"\nswept ranks 1..{args.max_n} in {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
