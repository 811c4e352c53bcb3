"""Arithmetic of R = Z[t]/(t^2 - 1) on a closed class of modules.

The module class has four generators, recorded by multiplicity:

    FreeR   the ring itself, Z-rank 2
    TrivZ   Z with t = +1, isomorphic to the ideal (1+t) and to R/(t-1)
    SignZ   Z with t = -1, isomorphic to the ideal (t-1) and to R/(t+1)
    TorF2   R/((t-1), 2), the one-dimensional F_2 module

A module is the dict the certificate prints, each generator's name mapped
to its multiplicity, as :func:`module` builds it.  A prime site is its key
in the tables, and ``SITE_LABELS`` gives the label the certificate prints.

Tensor products, Tor_1 and localizations at the prime sites of R are
table-driven.  The tables are read only from the checksummed JSON data
file shipped in the package, and are regenerated only by the resolution
verifier in :mod:`crystalk.oracle`.

The checksum is SHA-256 from the interpreter's built-in module (``_sha2``,
or ``_sha256`` before CPython 3.12), so no crystalk process loads OpenSSL;
the standard library's OpenSSL-backed one is the fallback where neither is
built.  ``cli`` and ``oracle`` import the same ``sha256`` from here.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Mapping

from .errors import TableIntegrityError

# not OpenSSL's: loading libcrypto costs about 3.5 MiB resident and 4 ms of a
# cold start, for the few KB a process hashes; the digests are the same
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = [
    "CLASS_ORDER",
    "module",
    "MIN_PLUS",
    "MIN_MINUS",
    "DYADIC",
    "ODD_PLUS",
    "ODD_MINUS",
    "SITE_LABELS",
    "rank",
    "tensor",
    "tor1",
    "localize",
    "load_tables",
    "canonical_table_bytes",
    "table_checksum",
]

CLASS_ORDER = ("FreeR", "TrivZ", "SignZ", "TorF2")
_TABLE_FILE = os.path.join(os.path.dirname(__file__), "data", "repring_tables.json")


def module(**mults: int) -> dict[str, int]:
    """The module ``module(TrivZ=2, SignZ=4)``, every class of ``CLASS_ORDER`` present."""
    for name, mult in mults.items():
        if name not in CLASS_ORDER:
            raise ValueError(f"unknown class {name!r}")
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
    return {name: mults.get(name, 0) for name in CLASS_ORDER}


# the prime sites of R: the two minimal primes, the dyadic point, and an odd
# maximal point on each of the two branches
_SITE_KINDS = ("MinPlus", "MinMinus", "Dyadic", "OddPlus", "OddMinus")
MIN_PLUS, MIN_MINUS, DYADIC, ODD_PLUS, ODD_MINUS = _SITE_KINDS
# the tables are keyed on the kind alone, so one witness odd prime per branch
SITE_LABELS = {kind: kind for kind in _SITE_KINDS}
SITE_LABELS.update({ODD_PLUS: "OddPlus(3)", ODD_MINUS: "OddMinus(3)"})


def _load_table_bytes() -> bytes:
    """The bytes of the packaged table file, the tables' only source.

    A packaged file that cannot be read is a broken install, not an input
    fault, and raises ``TableIntegrityError``.
    """
    try:
        with open(_TABLE_FILE, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise TableIntegrityError(f"packaged table file cannot be read: {exc}") from None


def canonical_table_bytes(tables: Mapping) -> bytes:
    """Canonical serialization of the table payload (used for checksums)."""
    return json.dumps(tables, sort_keys=True, indent=2).encode() + b"\n"


# the tables load_tables last verified and their sha256, so that checksumming
# them again (the cstar cache key) does not serialize them a second time
_verified: tuple[Mapping, str] | None = None


def table_checksum(tables: Mapping) -> str:
    if _verified is not None and tables is _verified[0]:
        return _verified[1]
    return sha256(canonical_table_bytes(tables)).hexdigest()


@lru_cache(maxsize=1)
def load_tables() -> dict:
    """Load and checksum-verify the frozen module-arithmetic tables."""
    try:
        doc = json.loads(_load_table_bytes())
        tables, recorded = doc["tables"], doc["sha256"]
    except (ValueError, RecursionError, LookupError, TypeError) as exc:
        raise TableIntegrityError(
            "table file is not a UTF-8 JSON object with 'tables' and 'sha256' "
            f"({type(exc).__name__}: {exc})"
        ) from None
    global _verified
    actual = table_checksum(tables)
    if actual != recorded:
        raise TableIntegrityError(
            f"table checksum mismatch: recorded {recorded}, computed {actual}"
        )
    _verified = tables, actual
    return tables


def _pair_key(x: str, y: str) -> str:
    i, j = CLASS_ORDER.index(x), CLASS_ORDER.index(y)
    if i > j:
        x, y = y, x
    return f"{x}*{y}"


def rank(m: dict) -> int:
    """Rank of the underlying abelian group."""
    return 2 * m["FreeR"] + m["TrivZ"] + m["SignZ"]


def _bilinear(table: Mapping[str, Mapping[str, int]], m: dict, n: dict) -> dict[str, int]:
    out = module()
    for x, mx in m.items():
        for y, ny in n.items():
            if mx and ny:
                for name, mult in table[_pair_key(x, y)].items():
                    out[name] += mx * ny * mult
    return out


def tensor(m: dict, n: dict) -> dict[str, int]:
    """Tensor product over R, extended bilinearly from the frozen table."""
    return _bilinear(load_tables()["tensor"], m, n)


def tor1(m: dict, n: dict) -> dict[str, int]:
    """Tor_1 over R, extended bilinearly from the frozen table."""
    return _bilinear(load_tables()["tor1"], m, n)


def localize(m: dict, site: str) -> dict:
    """The certificate record of ``m`` localized at a prime site.

    ``{"site", "free_rank", "torsion_flag"}``, plus ``"note"`` when a
    basis class carries one.  The behaviour of each basis class depends
    only on the site kind.
    """
    table = load_tables()["localize"]
    free_rank = 0
    torsion = False
    notes: list[str] = []
    for name in CLASS_ORDER:
        if not m[name]:
            continue
        cell = table[name][site]
        free_rank += m[name] * cell["free_rank"]
        if cell["torsion_flag"]:
            torsion = True
        note = cell.get("note", "")
        if note and note not in notes:
            notes.append(note)
    out: dict = {"site": SITE_LABELS[site], "free_rank": free_rank, "torsion_flag": torsion}
    if notes:
        out["note"] = "; ".join(notes)
    return out
