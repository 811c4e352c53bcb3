"""Self-tests of the benchmark itself: python3 bench/selftest.py

They check the input generator and its expected answers against the
paper's headline table and the program's catalog, the failure
accounting, the tracer's patching and restoring, and that traced call
counts repeat exactly.  About ten seconds on two cores.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

# (a, b, c) of each catalog entry, worked out by hand from its matrix
CATALOG_INVARIANTS = {
    "trivial-circle": (1, 0, 0),
    "infinite-dihedral": (0, 1, 0),
    "pm-type": (1, 1, 0),
    "pm-sheared": (1, 1, 0),
    "cm-swap": (0, 0, 1),
    "p2-rotation": (0, 2, 0),
    "p2-space": (0, 3, 0),
    "pm-cube": (2, 1, 0),
}


class GeneratorTest(unittest.TestCase):
    def test_generator_does_not_import_crystalk(self):
        tree = ast.parse((BENCH / "gen.py").read_text())
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
        names += [node.module or "" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)]
        self.assertFalse([n for n in names if n.split(".")[0] == "crystalk"])

    def test_headline_table(self):
        for n in range(1, 9):
            e = gen.expected(n, 0, 0)
            self.assertEqual((e.k0, e.k1), (2**n, 2**n))
            e = gen.expected(0, n, 0)
            self.assertEqual((e.k0, e.k1), (3 * 2 ** (n - 1), 0))
            for r in range(1, n):
                e = gen.expected(r, n - r, 0)
                self.assertEqual((e.k0, e.k1), (3 * 2 ** (n - 2),) * 2)

    def test_catalog_ranks(self):
        from crystalk.cli import CATALOG
        from crystalk.lattice import invariants, validate_involution

        self.assertEqual(sorted(e.name for e in CATALOG), sorted(CATALOG_INVARIANTS))
        for entry in CATALOG:
            abc = CATALOG_INVARIANTS[entry.name]
            inv = invariants(validate_involution(entry.matrix))
            self.assertEqual((inv.a, inv.b, inv.c), abc, entry.name)
            e = gen.expected(*abc)
            self.assertEqual((e.k0, e.k1), (entry.expected_k0, entry.expected_k1), entry.name)

    def test_fixed_seed_gives_identical_inputs(self):
        self.assertEqual(gen.case_pool(12, 10, 7), gen.case_pool(12, 10, 7))
        self.assertNotEqual(gen.case_pool(12, 10, 7), gen.case_pool(12, 10, 8))
        self.assertEqual(run.VerifySweep(7).seeds, run.VerifySweep(7).seeds)

    def test_cases_are_exact_conjugates(self):
        rng = random.Random(3)
        for n in range(2, 13):
            p, q = gen.unimodular_pair(n, rng, steps=3 * n + 2)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            self.assertEqual(gen.matmul(p, q), ident)
            self.assertLessEqual(max(abs(x) for row in p + q for x in row), gen.CONJUGATOR_CAP)

    def test_expected_answers_match_the_program(self):
        from crystalk.intlin import IntMatrix, exterior_trace_poly
        from crystalk.lattice import validate_involution
        from crystalk.toruskt import build_report

        for n in (2, 5, 8):
            for case in gen.case_pool(n, 10, seed=n):
                m = IntMatrix.from_rows(case.as_input()["matrix"])
                self.assertEqual(exterior_trace_poly(m), case.expected.traces)
                run.check_report(build_report(validate_involution(m), "cstar"), case.expected)


class FailureAccountingTest(unittest.TestCase):
    def test_wrong_expectation_counts_as_failed(self):
        wl = run.ReportLarge(seed=1, n=6, pool=4)
        wl.setup()
        case = wl.cases[1]
        wrong = dataclasses.replace(case.expected, k0=case.expected.k0 + 1)
        wl.cases[1] = dataclasses.replace(case, expected=wrong)
        tally = run.measure(wl, 0.3)
        self.assertGreater(tally.failed, 0)
        self.assertGreater(tally.attempted, tally.failed)

    def test_nonzero_exit_counts_as_failed(self):
        wl = run.CliCold(seed=1, records=5)
        try:
            wl.setup()
            for path in wl.files:
                path.write_text(json.dumps({"n": 2, "matrix": [[1, 1], [0, 1]]}))
            tally = run.measure(wl, 0.5)
        finally:
            wl.close()
        self.assertGreater(tally.attempted, 0)
        self.assertGreater(tally.failed, 0)

    def test_cache_not_read_or_not_written_fails(self):
        wl = run.CliCold(seed=1, records=5)
        try:
            wl.setup()
            # ops 3 and 4 are a cache hit and a cache miss
            wl.template.write_text("")
            wl.begin()
            with self.assertRaisesRegex(run.OpFailure, "cache hit appended"):
                wl.op(3)
            wl.begin()
            wl.op(4)
            # the same miss input again is now found in the cache, so nothing is written
            wl.miss_rng = random.Random(f"{wl.seed}-miss")
            wl.seen = {c.rows for c in wl.cases}
            with self.assertRaisesRegex(run.OpFailure, "cache miss not appended"):
                wl.op(4)
        finally:
            wl.close()


class TracerTest(unittest.TestCase):
    def setUp(self):
        run.fresh_import("crystalk.cli")

    @staticmethod
    def bindings() -> dict:
        mods = {k: m for k, m in sys.modules.items() if k.startswith("crystalk")}
        out = {(k, name): val for k, m in mods.items() for name, val in vars(m).items()}
        matmul = vars(sys.modules["crystalk.intlin"].IntMatrix)["__matmul__"]
        out[("IntMatrix", "__matmul__")] = matmul
        return out

    def test_uninstall_restores_every_binding(self):
        before = self.bindings()
        tr = tracing.Tracer()
        tr.install()
        patched = self.bindings()
        changed = {key for key in before if patched[key] is not before[key]}
        # the copies made by `from .intlin import smith_normal_form` are patched too
        self.assertIn(("crystalk.lattice", "smith_normal_form"), changed)
        self.assertIn(("crystalk.oracle", "smith_normal_form"), changed)
        self.assertIn(("crystalk.cli", "build_report"), changed)
        self.assertIn(("IntMatrix", "__matmul__"), changed)
        tr.uninstall()
        after = self.bindings()
        self.assertTrue(all(after[key] is before[key] for key in before))

    def test_self_and_total_time(self):
        spans = [
            ("f", 0.0, 10.0, -1, 0),
            ("g", 1.0, 4.0, 0, 0),
            ("f", 5.0, 9.0, 0, 0),
            ("g", 6.0, 7.0, 2, 0),
        ]
        got = tracing.summarize(spans, {"m": 6}, ops=2)
        self.assertEqual(got["f.calls"], 1.0)
        self.assertAlmostEqual(got["f.self_ms"], 1000 * ((10 - 3 - 4) + (4 - 1)) / 2)
        self.assertAlmostEqual(got["f.total_ms"], 1000 * 10 / 2)
        self.assertAlmostEqual(got["g.total_ms"], 1000 * 4 / 2)
        self.assertEqual(got["m.calls"], 3.0)

    def traced_calls(self, make) -> dict:
        wl = make()
        try:
            wl.setup()
            _, traced, tr = run.traced_pass(wl, 0)
        finally:
            if isinstance(wl, run.CliCold):
                wl.close()
        self.assertEqual(traced.failed, 0)
        values = tracing.summarize(tr.spans, tr.counts, traced.attempted)
        return {k: v for k, v in values.items() if k.endswith(".calls")}

    def test_repeated_miss_slot_repeats_its_class(self):
        wl = run.CliCold(seed=4, records=5)
        try:
            wl.setup()
            first, second = (wl.command(9)[2] for _ in range(2))
        finally:
            wl.close()
        self.assertEqual(first.expected, second.expected)
        self.assertNotEqual(first.rows, second.rows)

    def test_call_counts_repeat_exactly(self):
        makers = (
            lambda: run.ReportLarge(seed=4, n=8, pool=10, trace_ops=10),
            lambda: run.VerifySweep(seed=4, sizes=((3, ()), (4, ("--skip-grid",))),
                                    trace_ops=2),
            lambda: run.CliCold(seed=4, records=10, trace_ops=5),
        )
        for make in makers:
            first = self.traced_calls(make)
            self.assertGreater(first["intlin.smith_normal_form.calls"], 0)
            self.assertEqual(first, self.traced_calls(make))


class ContractTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(BENCH.parent / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "report-large",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
