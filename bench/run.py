#!/usr/bin/env python3
"""crystalk benchmark: three seeded workloads, each a closed loop with one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload report-large --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured
with no wrappers installed.  ``--trace 1`` runs the traced pass instead
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gen
import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
PROBE_REPEATS = 5
GROWTH_SIZES = (16, 32, 64)
GROWTH_REPEATS = 3
# a hung child is killed and its op counted as failed, so a run still ends
CHILD_TIMEOUT_S = 60
# after each untraced op the reference op runs for this share of its time
REF_SHARE = 0.05
REF_WINDOW = 5
# before and after each set-up the reference op runs for this long
SETUP_REF_S = 0.2
# a fixed matrix, the same for every seed, so the reference op never changes
REF_MATRIX = [[(7 * i + 3 * j) % 19 - 9 for j in range(40)] for i in range(40)]


class OpFailure(Exception):
    """The program answered, but not with what the benchmark expects."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailure(what)


def check_answers(doc: dict, exp: gen.Expected) -> None:
    """The fields every classify, ranks and cstar answer carries."""
    check(doc["invariants"] == {"a": exp.a, "b": exp.b, "c": exp.c}, "invariants")
    check(doc["class"] == exp.action_class, "class")
    check(
        doc["fixed_set"] == {"dim": exp.fixed_dim, "components": exp.components},
        "fixed set",
    )


def check_report(doc: dict, exp: gen.Expected) -> None:
    check_answers(doc, exp)
    check(doc["ranks"] == {"k0": exp.k0, "k1": exp.k1}, "ranks")
    check(doc["scope_flag"] == exp.scope_flag, "scope flag")


def fresh_import(name: str):
    """Import ``name`` with every crystalk module executed anew.

    Set-up is repeated to report its median, and each repeat pays for
    importing the program.  numpy stays loaded, so only the first repeat
    pays for it.
    """
    for key in [k for k in sys.modules if k == "crystalk" or k.startswith("crystalk.")]:
        del sys.modules[key]
    __import__(name)
    return sys.modules[name]


def crystalk_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


# The reference ops are the benchmark's own code on fixed data, so they
# measure the host's speed at the moment and no change to crystalk moves
# them.  Each workload takes the one that slows down with its ops.


# Each reference op's time, about as it ran on a quiet host of the 2-core
# VM this benchmark was written on.  setup_s is each set-up over the
# reference time beside it, times this fixed figure: seconds at that speed.
PYTHON_REFERENCE_S = 0.005
NUMPY_REFERENCE_S = 0.0025


def python_reference() -> float:
    """Seconds for a 40 x 40 integer matrix product in pure Python."""
    start = time.perf_counter()
    gen.matmul(REF_MATRIX, REF_MATRIX)
    return time.perf_counter() - start


def numpy_reference() -> float:
    """Seconds to decode and test a 4^7-point grid in numpy, as the grid verifier does."""
    import numpy as np

    start = time.perf_counter()
    powers = 4 ** np.arange(5, -1, -1)
    grid = (np.arange(4**7, dtype=np.int64)[:, None] // powers) % 4
    m = np.array(REF_MATRIX[:6], dtype=np.int64)[:, :6]
    int(((grid @ m.T) % 4 == 0).all(axis=1).sum())
    return time.perf_counter() - start


def run_quiet(cli, args: list[str]) -> tuple[int, str]:
    """cli.main in this process; returns the exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(args)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# workloads


class ReportLarge:
    """validate_involution + build_report at n = 40, in process."""

    name = "report-large"

    def __init__(self, seed: int, n: int = 40, pool: int = 40, trace_ops: int = 20):
        self.seed, self.n, self.pool, self.trace_ops = seed, n, pool, trace_ops

    def setup(self) -> None:
        # calls go through the module attributes, which the tracer patches
        self.toruskt = fresh_import("crystalk.toruskt")
        self.lattice = sys.modules["crystalk.lattice"]
        intlin = sys.modules["crystalk.intlin"]
        self.cases = gen.case_pool(self.n, self.pool, self.seed)
        self.matrices = [intlin.IntMatrix.from_rows(c.as_input()["matrix"]) for c in self.cases]
        self.op(0)
        traces = intlin.exterior_trace_poly(self.matrices[0])
        check(traces == self.cases[0].expected.traces, "exterior traces")

    def begin(self) -> None:
        pass

    reference = staticmethod(python_reference)
    reference_s = PYTHON_REFERENCE_S

    def op(self, i: int, tr: tracing.Tracer | None = None) -> float:
        k = i % len(self.cases)
        kind = ("torus", "cstar")[i % 2]
        with traced(tr, i):
            start = time.perf_counter()
            report = self.toruskt.build_report(
                self.lattice.validate_involution(self.matrices[k]), kind
            )
            elapsed = time.perf_counter() - start
        check(report["theory"] == ("equivariant-torus", "group-cstar")[i % 2], "theory")
        check_report(report, self.cases[k].expected)
        return elapsed


class VerifySweep:
    """crystalk verify at n = 6 and at n = 8 --skip-grid on one seed, in process."""

    name = "verify-sweep"
    SIZES = ((6, ()), (8, ("--skip-grid",)))
    WARM_UP_N = 4  # small, but runs the grid and exterior verifiers both

    def __init__(self, seed: int, sizes=SIZES, trace_ops: int = 2):
        self.sizes, self.trace_ops = sizes, trace_ops
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 30) for _ in range(256)]

    def setup(self) -> None:
        self.cli = fresh_import("crystalk.cli")
        self.expected = {
            n: {abc: gen.expected(*abc) for abc in gen.structure_classes(n)}
            for n in (self.WARM_UP_N, *(n for n, _ in self.sizes))
        }
        self.verify(self.WARM_UP_N, (), self.seeds[-1])

    def begin(self) -> None:
        pass

    # its ops kept pace with this one when the pure-Python product did not
    reference = staticmethod(numpy_reference)
    reference_s = NUMPY_REFERENCE_S

    def verify(self, n: int, extra: tuple, seed: int,
               tr: tracing.Tracer | None = None, i: int = -1) -> float:
        args = ["verify", "--n", str(n), "--seed", str(seed), "--count", "1",
                "--format", "json", *extra]
        with traced(tr, i):
            start = time.perf_counter()
            rc, out = run_quiet(self.cli, args)
            elapsed = time.perf_counter() - start
        expected = self.expected[n]
        check(rc == 0, f"verify --n {n} exit code {rc}")
        doc = json.loads(out)
        check(doc["failures"] == 0, "verify failures")
        check(doc["tables_regenerate_identically"] is True, "tables regenerate")
        rows = doc["results"]
        got = [(r["invariants"]["a"], r["invariants"]["b"], r["invariants"]["c"]) for r in rows]
        check(sorted(got) == sorted(expected), "structure classes of the corpus")
        for abc, row in zip(got, rows):
            exp = expected[abc]
            check(row["ok"] is True and all(row["checks"].values()), "row checks")
            check(row["ranks"] == {"k0": exp.k0, "k1": exp.k1}, "row ranks")
            check(row["class"] == exp.action_class, "row class")
            check(row["scope_flag"] == exp.scope_flag, "row scope flag")
        return elapsed

    def op(self, i: int, tr: tracing.Tracer | None = None) -> float:
        seed = self.seeds[i % len(self.seeds)]
        return sum(self.verify(n, extra, seed, tr, i) for n, extra in self.sizes)


class CliCold:
    """One `python -m crystalk` subprocess per op, n <= 8, five calls in turn."""

    name = "cli-cold"
    KINDS = ("classify", "ranks", "cstar", "cstar_cache_hit", "cstar_cache_miss")
    MISS_SIZES = (4, 5, 6, 7, 8)

    def __init__(self, seed: int, records: int = 240, trace_ops: int = 10):
        self.seed, self.records, self.trace_ops = seed, records, trace_ops
        OUT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-cold-", dir=OUT))
        self.cache = self.work / "cache.jsonl"
        self.template = self.work / "template.jsonl"

    def setup(self) -> None:
        self.cli = fresh_import("crystalk.cli")
        rng = random.Random(self.seed)
        self.cases = [gen.draw_case(rng.randint(2, 8), rng) for _ in range(self.records)]
        self.seen = {c.rows for c in self.cases}
        self.miss_rng = random.Random(f"{self.seed}-miss")
        self.files = [self.write_input(f"case{k}", c) for k, c in enumerate(self.cases)]
        self.template.unlink(missing_ok=True)
        self.cached_bytes = []
        for path, case in zip(self.files, self.cases):
            rc, out = run_quiet(self.cli, ["cstar", "--input", str(path), "--cache",
                                 str(self.template), "--format", "json"])
            check(rc == 0, f"cache fill exit code {rc}")
            check_report(json.loads(out), case.expected)
            self.cached_bytes.append(out.encode())
        self.begin()
        self.op(0)

    def begin(self) -> None:
        shutil.copyfile(self.template, self.cache)

    reference = staticmethod(python_reference)
    reference_s = PYTHON_REFERENCE_S

    def write_input(self, stem: str, case: gen.Case) -> Path:
        path = self.work / f"{stem}.json"
        path.write_text(json.dumps(case.as_input()))
        return path

    def new_miss(self, j: int) -> tuple[Path, gen.Case]:
        """An input absent from the cache, for the j-th miss slot.

        The slot fixes n and the class, drawn uniformly from all but +I
        and -I, each its own only conjugate; only the conjugator is new.
        A traced round that repeats the slot thus repeats its calls.
        """
        n = self.MISS_SIZES[j % len(self.MISS_SIZES)]
        classes = [abc for abc in gen.structure_classes(n)
                   if gen.category(*abc) not in (gen.TRIVIAL, gen.FREE)]
        abc = random.Random(f"{self.seed}-miss-{j}").choice(classes)
        while True:
            case = gen.make_case(*abc, self.miss_rng)
            if case.rows not in self.seen:
                self.seen.add(case.rows)
                return self.write_input(f"miss{len(self.seen)}", case), case

    def command(self, i: int) -> tuple[str, list[str], gen.Case, bytes | None]:
        kind = self.KINDS[i % len(self.KINDS)]
        j = i // len(self.KINDS)
        k = j % len(self.cases)
        path, case = self.files[k], self.cases[k]
        fmt = ["--format", "json"]
        if kind == "classify":
            return kind, ["classify", "--input", str(path), *fmt], case, None
        if kind == "ranks":
            route = ["--route", "both"] if case.expected.action_class == gen.SPLIT else []
            return kind, ["ranks", "--input", str(path), *route, *fmt], case, None
        if kind == "cstar":
            return kind, ["cstar", "--input", str(path), *fmt], case, None
        if kind == "cstar_cache_hit":
            return kind, ["cstar", "--input", str(path), "--cache", str(self.cache),
                          *fmt], case, self.cached_bytes[k]
        path, case = self.new_miss(j)
        return kind, ["cstar", "--input", str(path), "--cache", str(self.cache), *fmt], case, None

    def op(self, i: int, tr: tracing.Tracer | None = None) -> float:
        kind, args, case, want = self.command(i)
        spans = self.work / "spans.json"
        if tr is None:
            cmd = [sys.executable, "-m", "crystalk", *args]
        else:
            cmd = [sys.executable, str(BENCH / "shim.py"), str(spans), *args]
        spans.unlink(missing_ok=True)
        size = self.cache.stat().st_size
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=crystalk_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if tr is not None:
            doc = json.loads(spans.read_text())
            tr.absorb(doc["spans"], doc["counts"], i)
        check(proc.returncode == 0, f"{kind} exit code {proc.returncode}: {proc.stderr!r}")
        doc = json.loads(proc.stdout)
        if kind == "classify":
            check_answers(doc, case.expected)
        else:
            check_report(doc, case.expected)
        if "--route" in args:
            check(doc["routes_agree"] is True, "routes agree")
        # a hit must be read from the cache, and a miss must be written to it
        grew = self.cache.stat().st_size > size
        if kind == "cstar_cache_hit":
            check(not grew, "cache hit appended to the cache")
        if kind == "cstar_cache_miss":
            check(grew, "cache miss not appended to the cache")
        if want is not None:
            check(proc.stdout == want, "cache hit differs from the miss output")
        return elapsed

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ReportLarge, VerifySweep, CliCold)}


@contextlib.contextmanager
def traced(tr: tracing.Tracer | None, op: int):
    if tr is None:
        yield
        return
    tr.op = op
    tr.install()
    try:
        yield
    finally:
        tr.uninstall()


# ---------------------------------------------------------------------------
# measurement


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.latencies: list[float] = []
        self.by_op: dict[int, list[float]] = {}
        self.ref: list[float] = []

    def run(self, wl, i: int, tr: tracing.Tracer | None = None) -> None:
        self.attempted += 1
        try:
            elapsed = wl.op(i, tr)
        except Exception:  # an op that raises is counted as failed and the run goes on
            self.failed += 1
            if self.failed == 1:
                print(f"op {i} failed:", file=sys.stderr)
                traceback.print_exc()
            return
        self.latencies.append(elapsed)
        self.by_op.setdefault(i, []).append(elapsed)
        if tr is None:
            self.ref.append(statistics.median(reference_burst(wl, REF_SHARE * elapsed)))

    def timings(self) -> dict[str, float]:
        """Latency figures, raw and relative to the reference op run beside each op.

        The host's speed drifts by tens of percent over minutes.  Each op
        is divided by the median reference time over the ops within
        REF_WINDOW of it, which follows that drift but not the jitter of
        single reference runs.
        """
        lat = self.latencies or [math.nan]
        refs = self.ref or [math.nan]
        rel = [
            x / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, x in enumerate(lat)
        ]
        return {
            "op_p50_ref": statistics.median(rel),
            "op_p90_ref": quantile(rel, 90),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * quantile(lat, 90),
            "ops_per_s": len(self.latencies) / sum(lat),
            "ref_ms": 1000 * statistics.median(refs),
        }


def reference_burst(wl, seconds: float) -> list[float]:
    """The workload's reference op, back to back for ``seconds``, at least once."""
    end = time.perf_counter() + seconds
    refs = [wl.reference()]
    while time.perf_counter() < end:
        refs.append(wl.reference())
    return refs


def timed_setup(wl) -> dict[str, float]:
    """Median set-up time over SETUP_REPEATS set-ups, raw and as setup_s.

    Set-ups alternate with bursts of the reference op.  Like an op's
    latency, each set-up is divided by the median reference time of the
    bursts on either side of it, so a slow phase of the host does not
    read as slower set-up; setup_s scales the ratio back to seconds by
    the reference op's fixed nominal time.
    """
    bursts = [reference_burst(wl, SETUP_REF_S)]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - start
        bursts.append(reference_burst(wl, SETUP_REF_S))
        raw.append(elapsed)
        scaled.append(elapsed / statistics.median(bursts[-2] + bursts[-1]) * wl.reference_s)
    return {"setup_s": statistics.median(scaled), "setup_wall_s": statistics.median(raw)}


def measure(wl, seconds: float) -> Tally:
    """Ops back to back, each followed by the reference op, for ``seconds``."""
    wl.begin()
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        tally.run(wl, i)
        i += 1
    return tally


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q a multiple of 10."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def end_to_end(wl, seconds: float) -> tuple[Tally, dict[str, float]]:
    setup = timed_setup(wl)
    tally = measure(wl, seconds)
    return tally, {
        **setup,
        "peak_rss_mib": peak_rss_mib(children=isinstance(wl, CliCold)),
        **tally.timings(),
    }


def traced_pass(wl, seconds: float) -> tuple[Tally, Tally, tracing.Tracer]:
    """Ops 0 .. trace_ops-1 in turn, each untraced and then traced.

    Whole rounds repeat while another round, as long as the last one,
    still ends within ``seconds``; there is always one.  Every round runs
    the same ops, so each per-op call count is exact and repeats across
    runs of one seed.
    """
    wl.begin()
    plain, traced_tally, tr = Tally(), Tally(), tracing.Tracer()
    deadline = time.perf_counter() + seconds
    rounds, last = 0, 0.0
    while rounds == 0 or time.perf_counter() + last < deadline:
        begin = time.perf_counter()
        for i in range(wl.trace_ops):
            plain.run(wl, i)
            traced_tally.run(wl, i, tr)
        last = time.perf_counter() - begin
        rounds += 1
    return plain, traced_tally, tr


def startup_probe() -> dict[str, float]:
    """Bare interpreter start, and `import crystalk.cli` timed inside a child."""
    starts, imports = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spans = Path(tmp) / "spans.json"
        for _ in range(PROBE_REPEATS):
            begin = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CHILD_TIMEOUT_S)
            starts.append(time.perf_counter() - begin)
            subprocess.run([sys.executable, str(BENCH / "shim.py"), str(spans)],
                           cwd=ROOT, env=crystalk_env(), check=True, timeout=CHILD_TIMEOUT_S)
            start, end = json.loads(spans.read_text())["spans"][0][1:3]
            imports.append(end - start)
    return {
        "cli.interp_start_ms": 1000 * statistics.median(starts),
        "cli.import_ms": 1000 * statistics.median(imports),
    }


def growth_probe(seed: int) -> dict[str, float]:
    """build_report(cstar) on a split lattice at each size, no wrappers."""
    intlin = sys.modules["crystalk.intlin"]
    lattice = sys.modules["crystalk.lattice"]
    toruskt = sys.modules["crystalk.toruskt"]
    rng = random.Random(f"{seed}-growth")
    out = {}
    for n in GROWTH_SIZES:
        case = gen.make_case(n // 2, n - n // 2, 0, rng)
        lat = lattice.validate_involution(intlin.IntMatrix.from_rows(case.as_input()["matrix"]))
        times = []
        for _ in range(GROWTH_REPEATS):
            start = time.perf_counter()
            report = toruskt.build_report(lat, "cstar")
            times.append(time.perf_counter() - start)
        check_report(report, case.expected)
        out[f"toruskt.build_report.ms.n{n}"] = 1000 * statistics.median(times)
    xs = [math.log(n) for n in GROWTH_SIZES]
    ys = [math.log(out[f"toruskt.build_report.ms.n{n}"]) for n in GROWTH_SIZES]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    out["toruskt.build_report.growth_exponent"] = sum(
        (x - mx) * (y - my) for x, y in zip(xs, ys)
    ) / sum((x - mx) ** 2 for x in xs)
    return out


def per_layer(wl, seed: int, seconds: float) -> tuple[Tally, dict[str, float]]:
    setup = timed_setup(wl)
    plain, traced_tally, tr = traced_pass(wl, seconds)
    ops = traced_tally.attempted
    values = tracing.summarize(tr.spans, tr.counts, ops)
    values.update(setup)
    values.update(plain.timings())
    values["trace.overhead_pct"] = 100 * (
        statistics.median(traced_tally.latencies) / statistics.median(plain.latencies) - 1
    )
    if isinstance(wl, CliCold):
        # on the in-process workloads cli.main is the whole op, not start-up
        values["cli.main_ms"] = values.get("cli.main.total_ms", 0.0)
        for k, kind in enumerate(wl.KINDS):
            # failed ops have no latency; a call whose every op failed reports 0
            lat = [x for i, xs in plain.by_op.items() if i % len(wl.KINDS) == k for x in xs]
            values[f"cli.{kind}.p50_ms"] = 1000 * statistics.median(lat) if lat else 0.0
    values.update(startup_probe())
    values.update(growth_probe(seed))
    write_spans(wl.name, seed, tr)
    tally = Tally()
    tally.attempted = plain.attempted + traced_tally.attempted
    tally.failed = plain.failed + traced_tally.failed
    return tally, values


def layer_metric_names() -> set[str]:
    """Every per-layer metric a traced run can report."""
    names = {
        f"{mod}.{attr}.{part}"
        for mod, attr in tracing.SPANNED
        for part in ("calls", "self_ms", "total_ms")
    }
    names |= {f"{metric}.calls" for _, _, metric in tracing.COUNTED}
    names |= {f"cli.{kind}.p50_ms" for kind in CliCold.KINDS}
    names |= {f"toruskt.build_report.ms.n{n}" for n in GROWTH_SIZES}
    return names | {
        "cli.interp_start_ms", "cli.import_ms", "cli.main_ms",
        "toruskt.build_report.growth_exponent", "trace.overhead_pct",
        "op_p50_ref", "op_p90_ref", "op_p50_ms", "op_p90_ms", "ops_per_s", "ref_ms",
        "setup_wall_s",
    }


def write_spans(workload: str, seed: int, tr: tracing.Tracer) -> None:
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"spans": tr.spans, "counts": tr.counts}))


# ---------------------------------------------------------------------------
# entry point


def provenance() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crystalk" / "__init__.py").is_file():
        print(f"error: no crystalk sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    # bytecode is written once here, so no timed import compiles it
    compileall.compile_dir(SRC, quiet=1)
    OUT.mkdir(exist_ok=True)

    unknown = {m["name"] for m in spec["per_layer"]} - layer_metric_names()
    if unknown:
        print(f"error: BENCHMARK.json names unknown metrics {sorted(unknown)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            tally, values = per_layer(wl, args.seed, args.seconds)
            names = spec["per_layer"]
        else:
            tally, values = end_to_end(wl, args.seconds)
            names = spec["end_to_end"]
    finally:
        if isinstance(wl, CliCold):
            wl.close()
    # a layer the workload never calls reports 0 calls and 0 ms
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = {name: values[name] for name in units if name in values}
    shown.update({name: m["value"] for name, m in metrics.items()})
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    for name, value in shown.items():
        print(f"{args.workload:13s} {name:45s} {value:14.4f} {units[name]}")
    print(f"ops attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
