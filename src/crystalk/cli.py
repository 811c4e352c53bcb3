"""Command-line surface.

Subcommands: classify | ranks | cstar | verify | catalog.  Input is a
JSON object {"n": int, "matrix": [[int, ...], ...]} read from a file,
from stdin, or taken from the built-in catalog.  Exit codes: 0 ok,
2 input error, 3 invalid involution, 4 internal invariant violation,
5 scope error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass

from . import __version__, oracle
from .errors import (
    GridTooLargeError,
    InternalInvariantError,
    NotInvolutionError,
    NotSquareError,
    ScopeError,
)
from .intlin import IntMatrix
from .lattice import ActionClass, validate_involution
from .repring import load_tables, table_checksum
from .toruskt import (
    SPEC_VERSION,
    build_report,
    cohomology_invariants,
    hexagon_rank_sum,
    integral_k_theory,
    k_ranks_delocalized,
    kunneth_assembly,
    structure_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_INVOLUTION = 3
EXIT_INVARIANT = 4
EXIT_SCOPE = 5

VERIFY_EXTERIOR_MAX_N = 8
VERIFY_GRID_MAX_N = 6
VERIFY_GRID_DENOMINATOR = 4


@dataclass(frozen=True)
class CatalogEntry:
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
    raise KeyError(f"no catalog entry named {name!r}")


def _load_matrix(args: argparse.Namespace) -> IntMatrix:
    if getattr(args, "catalog", None):
        return _catalog_by_name(args.catalog).matrix
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "matrix" not in doc:
        raise ValueError('expected a JSON object {"n": int, "matrix": [[int, ...], ...]}')
    n = doc["n"]
    rows = doc["matrix"]
    # bool is a subclass of int but never a dimension
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"matrix must have n = {n} rows")
    return IntMatrix.from_rows(rows)


def _matrix_hash(m: IntMatrix) -> str:
    payload = json.dumps(
        {"n": m.rows, "matrix": m.to_rows()}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cache_lookup(path: str, key: str) -> dict | None:
    """The cached report for ``key``, skipping lines that are not records."""
    hit, skipped = None, 0
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    rec_key, report = rec["key"], rec["report"]
                except (ValueError, TypeError, KeyError):  # bad UTF-8, JSON or record
                    skipped += 1
                    continue
                if rec_key == key and isinstance(report, dict):
                    hit = report
                    break
    except FileNotFoundError:
        return None
    if skipped:
        print(f"warning: skipped {skipped} unreadable line(s) in cache {path}", file=sys.stderr)
    return hit


def _cache_append(path: str, key: str, meta: dict, report: dict) -> None:
    rec = {"key": key, **meta, "report": report}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    report = build_report(lat, kind="torus")
    routes: dict[str, dict] = {}
    if args.route in ("delocalized", "both"):
        deloc = k_ranks_delocalized(lat)
        routes["delocalized"] = {"k0": deloc.k0, "k1": deloc.k1}
    if args.route in ("kunneth", "both"):
        assembled = kunneth_assembly(lat)
        routes["kunneth"] = {"k0": assembled.k0, "k1": assembled.k1}
    if len(routes) == 2 and routes["delocalized"] != routes["kunneth"]:
        raise InternalInvariantError(f"rank routes disagree: {routes}")
    payload = dict(report)
    payload["routes"] = routes
    if len(routes) == 2:
        payload["routes_agree"] = True
    lines = _report_text(report)
    for name, pair in routes.items():
        lines.append(f"route {name}: k0={pair['k0']} k1={pair['k1']}")
    if len(routes) == 2:
        lines.append("routes agree")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_cstar(args: argparse.Namespace) -> int:
    lat = validate_involution(_load_matrix(args))
    if args.cache:
        inv = lat.analysis.invariants.as_dict()
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
        cache_key = hashlib.sha256(json.dumps(key_doc, sort_keys=True).encode()).hexdigest()
        cached = _cache_lookup(args.cache, cache_key)
        if cached is not None:
            _emit(args, cached, _report_text(cached))
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
            "matrix": entry.matrix.to_rows(),
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
        raise ValueError("n must be at least 1")
    run_exterior = n <= VERIFY_EXTERIOR_MAX_N
    if not run_exterior:
        print(f"exterior verifier skipped cleanly (bounded at n <= {VERIFY_EXTERIOR_MAX_N})")
    run_grid = not args.skip_grid
    if n > VERIFY_GRID_MAX_N and run_grid:
        raise GridTooLargeError(
            f"grid verifier is bounded at n <= {VERIFY_GRID_MAX_N}; "
            f"pass --skip-grid to sweep n = {n} without it"
        )

    corpus = oracle.involution_corpus(n, args.seed, args.count)
    tables_ok = oracle.render_table_file_bytes() == _packaged_table_bytes()

    rows = []
    failures = 0
    canonical_ranks: dict[tuple[int, int, int], tuple[int, int]] = {}
    for member in corpus.members:
        lat = validate_involution(member.matrix)
        analysis = lat.analysis
        inv = analysis.invariants
        checks: dict[str, bool] = {}
        checks["invariants"] = inv == member.invariants
        checks["tate"] = oracle.tate_invariants(member.matrix) == member.invariants
        deloc = k_ranks_delocalized(lat)
        report = integral_k_theory(lat)
        key = (inv.a, inv.b, inv.c)
        expected = canonical_ranks.setdefault(key, deloc.ranks)
        checks["conjugation"] = deloc.ranks == expected
        checks["hexagon"] = hexagon_rank_sum(lat) == 0
        cls = analysis.action_class
        if cls is ActionClass.MIXED_SPLIT:
            checks["routes"] = report.ranks == deloc.ranks
        if run_exterior:
            checks["exterior"] = oracle.exterior_action_invariants(
                member.matrix
            ) == cohomology_invariants(lat)
        if run_grid:
            grid = oracle.fixed_grid_components(member.matrix, VERIFY_GRID_DENOMINATOR)
            checks["grid"] = (
                grid.components == analysis.fixed_components
                and grid.dim_estimate == analysis.fixed_dim
            )
        ok = all(checks.values())
        if not ok:
            failures += 1
        rows.append(
            {
                "invariants": inv.as_dict(),
                "class": cls.value,
                "scope_flag": report.scope_flag.value,
                "ranks": {"k0": deloc.k0, "k1": deloc.k1},
                "checks": checks,
                "ok": ok,
            }
        )

    payload = {
        "spec_version": SPEC_VERSION,
        "n": n,
        "seed": args.seed,
        "count": args.count,
        "members": len(corpus.members),
        "tables_regenerate_identically": tables_ok,
        "results": rows,
        "failures": failures + (0 if tables_ok else 1),
    }
    lines = [
        f"verify sweep: n={n} seed={args.seed} count={args.count} "
        f"members={len(corpus.members)}",
        f"frozen tables regenerate identically: {'yes' if tables_ok else 'NO'}",
    ]
    seen: set[tuple[int, int, int]] = set()
    for row in rows:
        inv = row["invariants"]
        key = (inv["a"], inv["b"], inv["c"])
        if key in seen:
            continue
        seen.add(key)
        status = "pass" if all(
            r["ok"] for r in rows if tuple(r["invariants"].values()) == key
        ) else "FAIL"
        lines.append(
            f"  (a={inv['a']} b={inv['b']} c={inv['c']})  {row['class']:15s} "
            f"{row['scope_flag']:18s} k0={row['ranks']['k0']:>5} "
            f"k1={row['ranks']['k1']:>5}  {status}"
        )
    lines.append(f"failures: {payload['failures']}")
    _emit(args, payload, lines)
    if payload["failures"]:
        raise InternalInvariantError(f"{payload['failures']} verifier mismatches")
    return EXIT_OK


def _packaged_table_bytes() -> bytes:
    from .repring import _load_table_bytes

    return _load_table_bytes()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystalk",
        description=(
            "K-theory ranks for integer involution lattices and the reduced "
            "C*-algebras of Z^n x| Z/2"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_catalog: bool = True) -> None:
        p.add_argument(
            "--input", "-i", default="-",
            help="path to a JSON file {'n': ..., 'matrix': [[...]]}; '-' for stdin",
        )
        if with_catalog:
            p.add_argument("--catalog", help="use a named catalog entry as input")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_classify = sub.add_parser("classify", help="invariants, class, and fixed-set data")
    add_io(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_ranks = sub.add_parser("ranks", help="equivariant K-theory ranks of the torus")
    add_io(p_ranks)
    p_ranks.add_argument(
        "--route", choices=("delocalized", "kunneth", "both"), default="delocalized"
    )
    p_ranks.set_defaults(func=cmd_ranks)

    p_cstar = sub.add_parser("cstar", help="K-theory of the reduced group C*-algebra")
    add_io(p_cstar)
    p_cstar.add_argument("--cache", help="append-only JSON-lines results cache")
    p_cstar.set_defaults(func=cmd_cstar)

    p_verify = sub.add_parser("verify", help="run the oracle suite on a seeded corpus")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=3)
    p_verify.add_argument("--skip-grid", action="store_true")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_catalog = sub.add_parser("catalog", help="list (and optionally recheck) the catalog")
    p_catalog.add_argument("--check", action="store_true")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    p_catalog.set_defaults(func=cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotInvolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_INVOLUTION
    except ScopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (
        NotSquareError,
        GridTooLargeError,
        json.JSONDecodeError,
        OSError,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())
