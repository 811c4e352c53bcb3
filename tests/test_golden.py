"""Replay recorded CLI runs and compare stdout, stderr and exit code byte for byte.

The recorded runs live in tests/data/golden_cli.json.  After a change that
is meant to alter output, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py --write

and review the diff.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystalk.cli import CATALOG, main
from crystalk.lattice import canonical_matrix, validate_involution
from crystalk.toruskt import build_report

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


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run_case(argv) for argv in CASES], indent=1) + "\n")
