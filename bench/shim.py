"""Traced stand-in for ``python -m crystalk`` used by the cli-cold workload.

Usage: python bench/shim.py SPANS_OUT [crystalk arguments...]

Times ``import crystalk.cli``, installs the benchmark's wrappers, runs
``cli.main`` with the remaining arguments and writes the spans to
SPANS_OUT as JSON before exiting with main's code.  With no crystalk
arguments it only imports, which the import probe uses.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def run(out: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import crystalk.cli as cli

    imported = time.perf_counter()
    rc = 0
    tracer = Tracer()
    if argv:
        tracer.install()
        try:
            rc = cli.main(argv)
        finally:
            tracer.uninstall()
    spans = [*tracer.spans, ("cli.import", start, imported, -1, -1)]
    sys.stdout.flush()
    Path(out).write_text(json.dumps({"spans": spans, "counts": tracer.counts}))
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
