"""SHA-256 comes from the interpreter's built-in module, not OpenSSL.

``crystalk.repring.sha256`` is ``_sha2.sha256`` (CPython >= 3.12) or
``_sha256.sha256`` (3.10, 3.11), with ``hashlib.sha256`` as the fallback.
These tests check that it gives hashlib's digests on what crystalk hashes,
that no crystalk process loads ``_hashlib``, and that the fallback prints
the same bytes.  They also run without pytest, as a script:

    PYTHONPATH=src python3 tests/test_sha256.py
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import crystalk
from crystalk import __version__
from crystalk.cli import CATALOG, SPEC_VERSION, _matrix_hash
from crystalk.lattice import validate_involution
from crystalk.oracle import _derive_seed
from crystalk.repring import (
    _load_table_bytes,
    canonical_table_bytes,
    load_tables,
    sha256,
    table_checksum,
)

try:
    from pytest import skip
except ImportError:  # run as a script

    class Skipped(Exception):
        pass

    def skip(reason):
        raise Skipped(reason)


SRC = str(Path(crystalk.__file__).parent.parent)
BUILT_IN = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
PM_TYPE_KEY = "c084be5c71697258e46d34e8f62346a45a14ad786be31ee093b6b6d013de68ab"
CSTAR_ARGV = ["cstar", "--catalog", "pm-type", "--format", "json"]


def pm_type_key_document() -> bytes:
    """The bytes `cstar --catalog pm-type --cache` hashes into its key."""
    lat = validate_involution(next(e for e in CATALOG if e.name == "pm-type").matrix)
    key_doc = {
        "command": "cstar",
        "n": lat.n,
        "invariants": lat.analysis.invariants._asdict(),
        "matrix": _matrix_hash(lat.matrix),
        "spec_version": SPEC_VERSION,
        "tables_sha256": table_checksum(load_tables()),
        "version": __version__,
    }
    return json.dumps(key_doc, sort_keys=True).encode()


def run_child(script: str) -> bytes:
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        check=True,
    ).stdout


def test_digests_equal_hashlib():
    inputs = [
        _load_table_bytes(),
        canonical_table_bytes(load_tables()),
        pm_type_key_document(),
        b"",
        "Λ⁴ of Z[C₂]: Künneth, ±1".encode(),
    ]
    # `involution_corpus` seeds: (seed, n, a, b, c, i, attempt)
    seeds = [(7, 4, 2, 2, 0, 0, 0), (0, 10, 0, 0, 5, 3, 63)]
    inputs += [":".join(map(str, parts)).encode() for parts in seeds]
    for data in inputs:
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
        assert sha256(data).digest() == hashlib.sha256(data).digest()
    for parts, data in zip(seeds, inputs[-2:]):
        assert _derive_seed(*parts) == int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
    assert sha256(pm_type_key_document()).hexdigest() == PM_TYPE_KEY


def test_no_process_loads_openssl():
    if not BUILT_IN:
        skip("this interpreter has neither _sha2 nor _sha256")
    script = (
        "import runpy, sys\nimport crystalk.cli\nprint('_hashlib' in sys.modules)\n"
        "sys.argv = ['crystalk', 'verify', '--n', '4', '--seed', '7', '--count', '1']\n"
        "try:\n    runpy.run_module('crystalk', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code in (0, None), exc.code\n"
        "print('_hashlib' in sys.modules)"
    )
    out = run_child(script).decode().splitlines()
    assert (out[0], out[-1]) == ("False", "False")


def test_hashlib_fallback_prints_the_same_bytes():
    script = (
        "import runpy, sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\nfrom crystalk.repring import sha256\n"
        "assert sha256 is hashlib.sha256, sha256\n"
        f"sys.argv = ['crystalk', *{CSTAR_ARGV!r}]\n"
        "runpy.run_module('crystalk', run_name='__main__')"
    )
    normal = subprocess.run(
        [sys.executable, "-m", "crystalk", *CSTAR_ARGV],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        check=True,
    ).stdout
    assert run_child(script) == normal


if __name__ == "__main__":
    passed = skipped = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                passed += 1
            except BaseException as exc:  # pytest's Skipped is not an Exception
                if type(exc).__name__ != "Skipped":
                    raise
                print(f"{name} skipped: {exc}")
                skipped += 1
    print(f"{passed} passed, {skipped} skipped on Python {sys.version.split()[0]}")
