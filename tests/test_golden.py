"""Replay recorded CLI runs and compare stdout, stderr and exit code byte for byte.

The recorded runs live in tests/data/golden_cli.json.  Without pytest,
the same replay and pins run as a script that prints one line per
mismatch and exits nonzero on any:

    PYTHONPATH=src python3 tests/test_golden.py

After a change that is meant to alter output, rewrite the records with
``--write`` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

from crystalk.cli import CATALOG, main
from crystalk.lattice import canonical_matrix, validate_involution
from crystalk.toruskt import build_report

try:
    from pytest import mark

    parametrize = mark.parametrize
except ImportError:  # run as a script

    def parametrize(names, values, ids=None):
        return lambda test: test


GOLDEN = Path(__file__).parent / "data" / "golden_cli.json"
ROOT = Path(__file__).resolve().parent.parent

CASES = [
    [command, *extra, "--catalog", entry.name, "--format", fmt]
    for entry in CATALOG
    for command, *extra in (("classify",), ("ranks", "--route", "both"), ("cstar",))
    for fmt in ("text", "json")
] + [["verify", "--n", "4", "--seed", "7", "--count", "1", "--format", "json"]] + [
    # appended after the older cases so that their order in the file is kept
    ["ranks", "--route", route, "--catalog", entry.name, "--format", fmt]
    for entry in CATALOG
    for route in ("delocalized", "kunneth")
    for fmt in ("text", "json")
] + [
    ["catalog", *check, "--format", fmt] for check in ([], ["--check"]) for fmt in ("text", "json")
] + [
    ["verify", "--n", "4", "--seed", "7", "--count", "1", "--format", "text"],
    # odd n: two non-split classes and the grid verifier's odd digit split
    ["verify", "--n", "5", "--seed", "7", "--count", "1", "--format", "text"],
    ["verify", "--n", "5", "--seed", "7", "--count", "1", "--format", "json"],
]


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden():
    return {" ".join(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(" ".join(argv) for argv in CASES)


@parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    assert run_case(argv) == load_golden()[" ".join(argv)]


# sha256 over the sorted-key JSON of every torus and cstar report on the
# canonical form of each (a, b, c) with n <= 8, one line per report
REPORTS_SHA256 = "ab52f9a12c019c85dfcc6147e1ee8e0857c89cef53480df8e4de082d99fcc24a"


def test_every_canonical_report_up_to_n8_is_pinned():
    h = hashlib.sha256()
    for n in range(1, 9):
        for c in range(n // 2 + 1):
            for a in range(n - 2 * c + 1):
                lat = validate_involution(canonical_matrix(a, n - 2 * c - a, c))
                for kind in ("torus", "cstar"):
                    h.update(json.dumps(build_report(lat, kind), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == REPORTS_SHA256


# sha256 of the stdout of verify --n k --seed 7 --count 1 --format json, with
# --skip-grid above n = 6; the replay above records only n = 4 and n = 5
VERIFY_SHA256 = {
    1: "9317da05fd6027be72b4f91cc0c645fb0dbd3b60699fd06a6aadce6220504175",
    2: "714d15547a898efa1bedf55bada3ef2b70fc9d01d2465edd3d4880fdb9354132",
    3: "c91656f507cbe34fe1e7600194c0034c68f4cf810ed4909fd2669846671fd84a",
    4: "ee7a8aa1bc5f2c9390cd6561212ec4cd586cd91547c81654cb955ef36fbda484",
    5: "0db5989e065c15e10c94d341bc6f5b6f96db042fb3c5ca9e5cb32e04c5735193",
    6: "958a81cf09042d9fae41eb582d3a972867d8bb791c884d2a211cd8b071ccc38d",
    7: "90d789a27fe282aad9ca772e83aacea47de7836d47c0f0216572d6db0bb819d4",
    8: "dde60caf2bd633c72e2e8f0765e081e5df3ea96bfdd42ccdeea76788506ca0a4",
    9: "19b25565ea052303b0101aafa7279dc8414e2f719ea46111a0737132d1ef5ec2",
    10: "9eeb4ceebda1dc9375b041aad5e3bc8d8055043672b9332ef2e5de5fc8da42de",
}


@parametrize("n", sorted(VERIFY_SHA256))
def test_verify_json_is_pinned(n):
    argv = ["verify", "--n", str(n), "--seed", "7", "--count", "1", "--format", "json"]
    run = run_case(argv + ["--skip-grid"] * (n > 6))
    assert (run["exit"], run["stderr"]) == (0, "")
    assert hashlib.sha256(run["stdout"].encode()).hexdigest() == VERIFY_SHA256[n]


# sha256 of scripts/rank_sweep.py --max-n 12 stdout without its final timing line
RANK_SWEEP_SHA256 = "3953b8c1ea26f3e8ae2d93b6bf2131cbd14de79103189a88a02dd2c6a6fc19bf"


def test_rank_sweep_table_is_pinned():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "rank_sweep.py"), "--max-n", "12"],
        env=env, capture_output=True, text=True, check=True,
    )
    *table, timing = run.stdout.splitlines(keepends=True)
    assert timing.startswith("swept ranks 1..12 in ")
    assert hashlib.sha256("".join(table).encode()).hexdigest() == RANK_SWEEP_SHA256
    assert run.stderr == ""


def replay() -> int:
    """Run every test above once, print one line per mismatch, return 1 on any."""
    checks = [("the records cover CASES", test_golden_covers_every_case)]
    checks += [(" ".join(argv), partial(test_cli_output_matches_golden, argv)) for argv in CASES]
    checks += [("canonical reports up to n = 8", test_every_canonical_report_up_to_n8_is_pinned)]
    checks += [(f"verify --n {n} sha256", partial(test_verify_json_is_pinned, n)) for n in VERIFY_SHA256]
    checks += [("rank sweep sha256", test_rank_sweep_table_is_pinned)]
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"MISMATCH {name}: {type(exc).__name__} {exc}".rstrip())
    version = sys.version.split()[0]
    print(f"{len(checks) - failures} of {len(checks)} golden checks match on Python {version}")
    return int(failures > 0)


if __name__ == "__main__":
    if not sys.argv[1:]:
        sys.exit(replay())
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py [--write]")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run_case(argv) for argv in CASES], indent=1) + "\n")
