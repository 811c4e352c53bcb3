#!/usr/bin/env python3
"""Regenerate the frozen module-arithmetic table file from resolutions.

The packaged table file is the only source the repring module reads;
only this script (driving the resolution verifier) may rewrite it.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from crystalk import oracle, repring

TABLE_FILE = pathlib.Path(repring._TABLE_FILE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the existing file instead of writing",
    )
    args = parser.parse_args()

    rendered = oracle.render_table_file_bytes()
    if args.check:
        if repring._load_table_bytes() == rendered:
            print(f"{TABLE_FILE}: byte-identical with regenerated tables")
            return 0
        print(f"{TABLE_FILE}: DIFFERS from regenerated tables", file=sys.stderr)
        return 1

    changed = not TABLE_FILE.exists() or TABLE_FILE.read_bytes() != rendered
    TABLE_FILE.write_bytes(rendered)
    print(f"wrote {TABLE_FILE} ({'changed' if changed else 'unchanged'}, {len(rendered)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
