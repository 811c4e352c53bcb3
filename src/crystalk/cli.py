"""Command-line surface.

Subcommands: classify | ranks | cstar | verify | catalog.  Input is a
JSON object {"n": int, "matrix": [[int, ...], ...]} read from a file,
from stdin, or taken from the built-in catalog.  Exit codes: 0 ok,
1 a bug (with a traceback), 2 input error (a file named on the command
line that fails to open is one) or a stdout that cannot be written,
3 invalid involution, 4 internal invariant violation, 5 scope error,
141 the reader closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import cache
from itertools import chain
from typing import NamedTuple

from . import __version__, oracle
from .errors import CrystalkError, InputError, InternalInvariantError, OutputError
from .intlin import IntMatrix
from .lattice import validate_involution
from .repring import _load_table_bytes, load_tables, sha256, table_checksum
from .toruskt import (
    SPEC_VERSION,
    _require_split,
    build_report,
    integral_k_theory,
    structure_report,
)

EXIT_OK = 0

# json.loads + row checks + validate + build_report takes about 0.28 s at n = 400
# on a dense conjugated involution (95% nonzero, entries up to 370) and 0.36 s at
# n = 450; a sparse conjugate (entries <= 4) takes 33 ms at n = 400 (2-core VM),
# so larger inputs are refused before the rows are converted
MAX_N = 400
# validation packs each row into one int, slots w = bit_length(r·m + 1) bits wide
# (r the largest absolute row sum, m the largest absolute entry, so every entry of
# A·A - I is below 2^w in size): at n = 400 one 1000-digit entry in a dense matrix
# took 7 s and 160 MiB to validate.  Dense n = 400 involutions take about 0.34 /
# 0.53 / 1.1 s end to end at 16 / 33 / 63-bit entries (2-core VM, slots one bit
# wider), so wider entries are refused before validation
MAX_ENTRY_BITS = 64

# verify --skip-grid --count 1 takes about 0.4 / 1.7 / 4.2 s cold at n = 16 / 24 / 32
# (2-core VM), growing about as n^3.4, so larger n is refused before the corpus
VERIFY_MAX_N = 16
# --n 10 --skip-grid takes about 0.7 / 1.5 / 4.7 s cold at --count 1 / 3 / 10 (2-core
# VM), about linear in the count, so larger counts are refused before the corpus
VERIFY_MAX_COUNT = 10


class CatalogEntry(NamedTuple):
    name: str
    n: int
    rows: tuple[tuple[int, ...], ...]
    expected_k0: int
    expected_k1: int
    provenance: str  # "closed-form" or "cross-checked"
    summary: str

    @property
    def matrix(self) -> IntMatrix:
        return IntMatrix.from_rows([list(r) for r in self.rows])


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "trivial-circle", 1, ((1,),), 2, 2, "closed-form",
        "trivial action on Z; direct product Z x Z/2",
    ),
    CatalogEntry(
        "infinite-dihedral", 1, ((-1,),), 3, 0, "closed-form",
        "sign action on Z; the infinite dihedral group",
    ),
    CatalogEntry(
        "pm-type", 2, ((1, 0), (0, -1)), 3, 3, "closed-form",
        "reflection wallpaper lattice, split trivial + sign",
    ),
    CatalogEntry(
        "pm-sheared", 2, ((1, 0), (2, -1)), 3, 3, "closed-form",
        "the reflection lattice in a sheared basis",
    ),
    CatalogEntry(
        "cm-swap", 2, ((0, 1), (1, 0)), 2, 2, "cross-checked",
        "coordinate swap, the indecomposable regular lattice",
    ),
    CatalogEntry(
        "p2-rotation", 2, ((-1, 0), (0, -1)), 6, 0, "closed-form",
        "point reflection of the 2-torus, free away from the origin",
    ),
    CatalogEntry(
        "p2-space", 3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1)), 12, 0, "closed-form",
        "point reflection of the 3-torus",
    ),
    CatalogEntry(
        "pm-cube", 3, ((1, 0, 0), (0, 1, 0), (0, 0, -1)), 6, 6, "closed-form",
        "split action on Z^3 with a rank-2 fixed sublattice",
    ),
)


def _catalog_by_name(name: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise InputError(f"no catalog entry named {name!r}")


def _load_matrix(args: argparse.Namespace) -> IntMatrix:
    if args.catalog:
        return _catalog_by_name(args.catalog).matrix
    try:
        if args.input in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = json.loads(text)
    except RecursionError:
        raise InputError("input JSON is nested too deeply to parse") from None
    # bad UTF-8, bad JSON, or an integer literal over the digit limit
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if not isinstance(doc, dict) or "n" not in doc or "matrix" not in doc:
        raise InputError('expected a JSON object {"n": int, "matrix": [[int, ...], ...]}')
    n = doc["n"]
    rows = doc["matrix"]
    # bool is a subclass of int but never a dimension
    if type(n) is not int:
        raise InputError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise InputError("n must be at least 1")
    if n > MAX_N:
        raise InputError(f"n = {n} exceeds the supported maximum n <= {MAX_N}")
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f"matrix must have n = {n} rows")
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != n:
            got = f"{len(row)} entries" if type(row) is list else f"{row!r:.40}"
            raise InputError(f"matrix row {i} must be a list of n = {n} integers, got {got}")
        # bool is a subclass of int but never an entry; the scan below only
        # runs to name the entry at fault
        if set(map(type, row)) != {int} or max(map(abs, row)).bit_length() > MAX_ENTRY_BITS:
            for j, x in enumerate(row):
                if type(x) is not int:
                    raise InputError(
                        f"matrix entry [{i}][{j}] must be an integer, got {x!r:.40}"
                    )
                if x.bit_length() > MAX_ENTRY_BITS:
                    raise InputError(
                        f"matrix entry [{i}][{j}] has {x.bit_length()} bits, "
                        f"over the cap of {MAX_ENTRY_BITS} bits"
                    )
    return IntMatrix(n, n, tuple(chain.from_iterable(rows)))


def _matrix_hash(m: IntMatrix) -> str:
    payload = json.dumps(
        {"n": m.rows, "matrix": m.to_rows()}, sort_keys=True, separators=(",", ":")
    )
    return sha256(payload.encode()).hexdigest()


# a line that can hold a JSON object: {...} inside JSON whitespace; under
# DOTALL the .* jumps to the end of the line, so a match neither scans nor copies it
_OBJECT_LINE = re.compile(rb"[ \t\r\n]*\{.*\}[ \t\r\n]*", re.DOTALL)


def _cache_lookup(path: str, key: str) -> tuple[dict, list[str]] | None:
    """The cached report for ``key`` with its text lines.

    Only a line that could decode to a record for ``key`` is parsed: one
    holding the key's ASCII bytes, a backslash, a NUL or a non-ASCII byte.
    Without an escape, a non-ASCII byte or a UTF-16/32 encoding (which
    brings NULs), a JSON string's value is its own bytes, so no other line
    decodes to ``"key": key``.  Of the other lines, one that is not
    ``{...}`` inside JSON whitespace cannot be an object and is counted as
    unreadable unparsed; the rest are records for other keys and are passed
    over.  Unreadable lines, and records for ``key`` whose report does not
    render, are counted in one warning.
    """
    needle = key.encode("ascii")
    hit, skipped = None, 0
    try:
        # a record runs to about 480 KB at n = 400; reading it in 64 KiB chunks
        # rather than the default 8 KiB made a miss on ten of them about 25% faster
        with open(path, "rb", buffering=1 << 16) as fh:
            for line in fh:
                if line.isspace():  # line.strip() is empty, found without copying the line
                    continue
                candidate = needle in line or b"\\" in line or b"\0" in line or not line.isascii()
                if not candidate:
                    if not _OBJECT_LINE.fullmatch(line):
                        skipped += 1
                    continue
                try:
                    rec = json.loads(line)
                    rec_key, report = rec["key"], rec["report"]
                    if rec_key == key:
                        hit = report, _report_text(report)
                        break
                # bad UTF-8, JSON (RecursionError: nested too deeply), record or report
                except (ValueError, RecursionError, TypeError, KeyError):
                    skipped += 1
    except FileNotFoundError:
        return None
    if skipped:
        print(f"warning: skipped {skipped} unreadable line(s) in cache {path}", file=sys.stderr)
    return hit


def _cache_append(path: str, key: str, meta: dict, report: dict) -> None:
    """Append one record in a single write, so concurrent writers cannot interleave."""
    rec = {"key": key, **meta, "report": report}
    line = (json.dumps(rec, sort_keys=True) + "\n").encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, line)
    finally:
        os.close(fd)
    if written != len(line):
        raise OSError(f"short write to cache {path}: {written} of {len(line)} bytes")


# json.dumps runs CPython's C encoder only when indent is None
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _indented_json(value, indent: str = "") -> str:
    """The text of ``json.dumps`` at ``indent=2`` with sorted keys, leaves C-encoded.

    Every dict key must be a ``str``, as in every payload ``cli`` emits:
    ``json.dumps`` would turn an int, float, bool or None key into a
    string and refuse to sort keys of mixed types.  Containers are laid
    out here and each key and leaf goes through the C encoder; a list of
    ints, such as a matrix row, goes through it whole.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _ENCODE(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join([f"{_ENCODE(key)}: {_indented_json(value[key], inner)}"
                         for key in sorted(value)])
        return f"{{\n{inner}{body}\n{indent}}}"
    if type(value[0]) is int:
        body = _ENCODE(value)[1:-1]
        # no string and no list: only numbers, bools, nulls and empty dicts
        # (a key is a string), none of whose texts holds ", ", so each ", "
        # separates two items
        if '"' not in body and "[" not in body:
            return f"[\n{inner}{body.replace(', ', sep)}\n{indent}]"
    body = sep.join([_indented_json(item, inner) for item in value])
    return f"[\n{inner}{body}\n{indent}]"


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    try:
        if args.format == "json":
            print(_indented_json(payload))
        else:
            for line in text_lines:
                print(line)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise OutputError(exc) from None


def _report_text(report: dict) -> list[str]:
    inv = report["invariants"]
    lines = [
        f"n: {report['input']['n']}   class: {report['class']}   "
        f"invariants: a={inv['a']} b={inv['b']} c={inv['c']}",
        f"fixed set: dimension {report['fixed_set']['dim']}, "
        f"{report['fixed_set']['components']} component(s)",
    ]
    if "ranks" in report:
        lines.append(
            f"ranks: k0={report['ranks']['k0']} k1={report['ranks']['k1']}   "
            f"scope: {report['scope_flag']}"
        )
    if "module_structure" in report:
        lines.append(f"module structure: k0 = {report['module_structure']['k0']}, "
                     f"k1 = {report['module_structure']['k1']}")
    if "certificate" in report:
        steps = ", ".join(s["step"] for s in report["certificate"]["steps"])
        lines.append(f"certificate steps: {steps}")
    for note in report.get("notes", ()):
        lines.append(f"note: {note}")
    return lines


def cmd_classify(args: argparse.Namespace) -> int:
    lat = validate_involution(_load_matrix(args))
    payload = structure_report(lat)
    _emit(args, payload, _report_text(payload))
    return EXIT_OK


def cmd_ranks(args: argparse.Namespace) -> int:
    lat = validate_involution(_load_matrix(args))
    if args.route != "delocalized":
        _require_split(lat)
    report = build_report(lat, kind="torus")
    # integral_k_theory has run every route that applies to the class and
    # raised unless they agree, so each requested route's ranks are the report's
    names = ("delocalized", "kunneth") if args.route == "both" else (args.route,)
    routes = {name: report["ranks"] for name in names}
    payload = {**report, "routes": routes}
    lines = _report_text(report)
    for name, pair in routes.items():
        lines.append(f"route {name}: k0={pair['k0']} k1={pair['k1']}")
    if len(routes) == 2:
        payload["routes_agree"] = True
        lines.append("routes agree")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_cstar(args: argparse.Namespace) -> int:
    lat = validate_involution(_load_matrix(args))
    if args.cache:
        inv = lat.analysis.invariants._asdict()
        matrix_hash = _matrix_hash(lat.matrix)
        key_doc = {
            "command": "cstar",
            "n": lat.n,
            "invariants": inv,
            "matrix": matrix_hash,
            "spec_version": SPEC_VERSION,
            "tables_sha256": table_checksum(load_tables()),
            "version": __version__,
        }
        cache_key = sha256(json.dumps(key_doc, sort_keys=True).encode()).hexdigest()
        cached = _cache_lookup(args.cache, cache_key)
        if cached is not None:
            _emit(args, *cached)
            return EXIT_OK
    report = build_report(lat, kind="cstar")
    if args.cache:
        meta = {"n": lat.n, "invariants": inv, "matrix_hash": matrix_hash}
        _cache_append(args.cache, cache_key, meta, report)
    _emit(args, report, _report_text(report))
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace) -> int:
    entries = []
    failures = 0
    for entry in CATALOG:
        lat = validate_involution(entry.matrix)
        record = {
            "name": entry.name,
            "n": entry.n,
            "matrix": lat.matrix.to_rows(),
            "expected": {"k0": entry.expected_k0, "k1": entry.expected_k1},
            "provenance": entry.provenance,
            "summary": entry.summary,
        }
        if args.check:
            report = build_report(lat, kind="cstar")
            got = (report["ranks"]["k0"], report["ranks"]["k1"])
            ok = got == (entry.expected_k0, entry.expected_k1)
            record["recomputed"] = {"k0": got[0], "k1": got[1]}
            record["ok"] = ok
            if not ok:
                failures += 1
        entries.append(record)
    payload = {"spec_version": SPEC_VERSION, "entries": entries}
    lines = []
    for rec in entries:
        line = (
            f"{rec['name']:18s} n={rec['n']}  expected k0={rec['expected']['k0']} "
            f"k1={rec['expected']['k1']}  [{rec['provenance']}]  {rec['summary']}"
        )
        if args.check:
            line += "  ok" if rec["ok"] else "  MISMATCH"
        lines.append(line)
    _emit(args, payload, lines)
    if failures:
        raise InternalInvariantError(f"{failures} catalog entries failed recomputation")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise InputError("n must be at least 1")
    if n > VERIFY_MAX_N:
        raise InputError(f"n = {n} exceeds the verify sweep maximum n <= {VERIFY_MAX_N}")
    if args.count < 1:
        raise InputError("count must be at least 1")
    if args.count > VERIFY_MAX_COUNT:
        raise InputError(
            f"count = {args.count} exceeds the verify sweep maximum count <= {VERIFY_MAX_COUNT}"
        )
    checks = oracle.verify_checks(n, args.skip_grid)
    if "exterior" not in dict(checks):
        bound = oracle.EXTERIOR_MAX_DIM
        print(f"exterior verifier skipped cleanly (bounded at n <= {bound})", file=sys.stderr)

    corpus = oracle.involution_corpus(n, args.seed, args.count)
    tables_ok = oracle.render_table_file_bytes() == _load_table_bytes()

    rows = []
    by_class: dict[tuple, list[dict]] = {}  # rows, classes in first-seen order
    for member in corpus:
        lat = validate_involution(member.matrix)
        analysis, report = lat.analysis, integral_k_theory(lat)
        members = by_class.setdefault(analysis.invariants, [])
        first_ranks = members[0]["ranks"] if members else report["ranks"]
        results = [(name, check(member, lat, report, first_ranks)) for name, check in checks]
        passed = {name: ok for name, ok in results if ok is not None}
        row = {
            "invariants": analysis.invariants._asdict(),
            "class": analysis.action_class.value,
            "scope_flag": report["scope_flag"],
            "ranks": report["ranks"],
            "checks": passed,
            "ok": all(passed.values()),
        }
        rows.append(row)
        members.append(row)

    failures = sum(not row["ok"] for row in rows) + (not tables_ok)
    payload = {
        "spec_version": SPEC_VERSION, "n": n, "seed": args.seed, "count": args.count,
        "members": len(corpus), "tables_regenerate_identically": tables_ok,
        "results": rows, "failures": failures,
    }
    _emit(args, payload, _verify_text(payload, by_class.values()))
    if failures:
        raise InternalInvariantError(f"{failures} verifier mismatches")
    return EXIT_OK


def _verify_text(payload: dict, classes) -> list[str]:
    """The text summary of a sweep: one line per class, from its rows."""
    lines = [
        f"verify sweep: n={payload['n']} seed={payload['seed']} count={payload['count']} "
        f"members={payload['members']}",
        "frozen tables regenerate identically: "
        + ("yes" if payload["tables_regenerate_identically"] else "NO"),
    ]
    for members in classes:
        row, inv = members[0], members[0]["invariants"]
        status = "pass" if all(r["ok"] for r in members) else "FAIL"
        lines.append(
            f"  (a={inv['a']} b={inv['b']} c={inv['c']})  {row['class']:15s} "
            f"{row['scope_flag']:18s} k0={row['ranks']['k0']:>5} "
            f"k1={row['ranks']['k1']:>5}  {status}"
        )
    lines.append(f"failures: {payload['failures']}")
    return lines


class _Parser(argparse.ArgumentParser):
    def _get_formatter(self) -> argparse.HelpFormatter:
        # argparse's width at COLUMNS=80, whatever the terminal: help and
        # usage bytes do not follow the environment
        return self.formatter_class(prog=self.prog, width=78)

    def _print_message(self, message: str, file=None) -> None:
        # argparse ignores a failed write, then exits inside parse_args: help
        # on stdout is flushed here, so a failure reaches entrypoint's handler
        if file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs more than a small ``cstar`` does, and reusing it
    keeps no state between calls: ``parse_args`` returns a new namespace
    each time.  ``main`` runs the subcommand's ``cmd_*`` function by name.
    """
    parser = _Parser(
        prog="crystalk",
        description=(
            "K-theory ranks for integer involution lattices and the reduced "
            "C*-algebras of Z^n x| Z/2"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group()
        source.add_argument(
            "--input", "-i",
            help="path to a JSON file {'n': ..., 'matrix': [[...]]}; stdin if '-' or not given",
        )
        source.add_argument("--catalog", help="use a named catalog entry as input")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_classify = sub.add_parser("classify", help="invariants, class, and fixed-set data")
    add_io(p_classify)

    p_ranks = sub.add_parser("ranks", help="equivariant K-theory ranks of the torus")
    add_io(p_ranks)
    p_ranks.add_argument(
        "--route", choices=("delocalized", "kunneth", "both"), default="delocalized"
    )

    p_cstar = sub.add_parser("cstar", help="K-theory of the reduced group C*-algebra")
    add_io(p_cstar)
    p_cstar.add_argument("--cache", help="append-only JSON-lines results cache")

    p_verify = sub.add_parser("verify", help="run the oracle suite on a seeded corpus")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=3)
    p_verify.add_argument("--skip-grid", action="store_true")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_catalog = sub.add_parser("catalog", help="list (and optionally recheck) the catalog")
    p_catalog.add_argument("--check", action="store_true")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up when called, so a cmd_* wrapped or patched since the
        # parser was built is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    # standard output failed: entrypoint reports it and ends the process
    except (BrokenPipeError, OutputError):
        raise
    except CrystalkError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    # a file the user named: --input or --cache
    except OSError as exc:
        print(f"{InputError.label}: {exc}", file=sys.stderr)
        return InputError.exit_code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    # standard output failed: in main (argparse's help too) or in the flush above
    except (OutputError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader closed stdout: quiet, with the shell's code for a SIGPIPE death
            code = 141
        else:
            print(f"{OutputError.label}: {exc}", file=sys.stderr)
            code = OutputError.exit_code
        # point stdout at devnull, so the exit flush of what is still buffered succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
