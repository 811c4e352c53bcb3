"""Arithmetic of R = Z[t]/(t^2 - 1) on a closed class of modules.

The module class has four generators, recorded by multiplicity:

    FreeR   the ring itself, Z-rank 2
    TrivZ   Z with t = +1, isomorphic to the ideal (1+t) and to R/(t-1)
    SignZ   Z with t = -1, isomorphic to the ideal (t-1) and to R/(t+1)
    TorF2   R/((t-1), 2), the one-dimensional F_2 module

Tensor products, Tor_1 and localizations at the prime sites of R are
table-driven.  The tables are shipped as a checksummed JSON data file
and are regenerated only by the resolution verifier in
:mod:`crystalk.oracle`; the file also records the kernel and image of
multiplication by (1 - t), which no code here reads.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from functools import lru_cache
from typing import Mapping, NamedTuple

from ._frozen import Frozen
from .errors import TableIntegrityError

__all__ = [
    "CLASS_ORDER",
    "RModuleSum",
    "PrimeSite",
    "MIN_PLUS",
    "MIN_MINUS",
    "DYADIC",
    "ODD_PLUS",
    "ODD_MINUS",
    "rank",
    "tensor",
    "tor1",
    "localize",
    "load_tables",
    "canonical_table_bytes",
    "table_checksum",
    "TABLE_ENV_VAR",
]

CLASS_ORDER = ("FreeR", "TrivZ", "SignZ", "TorF2")
TABLE_ENV_VAR = "CRYSTALK_TABLE_PATH"
_TABLE_RESOURCE = "repring_tables.json"


class RModuleSum(Frozen):
    """Formal direct sum over the basis class, by multiplicity."""

    __slots__ = _fields = ("free", "triv", "sign", "tor2")  # in CLASS_ORDER

    def __init__(self, free: int = 0, triv: int = 0, sign: int = 0, tor2: int = 0) -> None:
        if min(free, triv, sign, tor2) < 0:
            raise ValueError("multiplicities must be nonnegative")
        self._set(free, triv, sign, tor2)

    def __add__(self, other: "RModuleSum") -> "RModuleSum":
        return RModuleSum(*map(operator.add, self._values, other._values))

    def scale(self, k: int) -> "RModuleSum":
        return RModuleSum(*map(k.__mul__, self._values))

    @property
    def is_zero(self) -> bool:
        return self == RModuleSum()

    def multiplicity(self, name: str) -> int:
        return self._values[CLASS_ORDER.index(name)]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(CLASS_ORDER, self._values))

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "RModuleSum":
        return cls(*(d.get(name, 0) for name in CLASS_ORDER))

    def __str__(self) -> str:
        parts = [f"{name}^{m}" for name, m in self.as_dict().items() if m]
        return " + ".join(parts) if parts else "0"


_SITE_KINDS = ("MinPlus", "MinMinus", "Dyadic", "OddPlus", "OddMinus")


class PrimeSite(NamedTuple):
    """A prime of R: one of the two minimal primes, the dyadic point,
    or an odd maximal point on one of the two branches."""

    kind: str
    p: int | None = None

    def label(self) -> str:
        if self.p is not None:
            return f"{self.kind}({self.p})"
        return self.kind


MIN_PLUS = PrimeSite("MinPlus")
MIN_MINUS = PrimeSite("MinMinus")
DYADIC = PrimeSite("Dyadic")
# the tables are keyed on the kind alone, so one witness odd prime per branch
ODD_PLUS = PrimeSite("OddPlus", 3)
ODD_MINUS = PrimeSite("OddMinus", 3)


def _load_table_bytes() -> bytes:
    """The table file's bytes, from ``CRYSTALK_TABLE_PATH`` or the package.

    A file the user named that cannot be read raises its ``OSError``; a
    packaged file that cannot be read is a broken install, not an input
    fault, and raises ``TableIntegrityError``.
    """
    named = os.environ.get(TABLE_ENV_VAR)
    if named:
        with open(named, "rb") as fh:
            return fh.read()
    try:
        with open(os.path.join(os.path.dirname(__file__), "data", _TABLE_RESOURCE), "rb") as fh:
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
    return hashlib.sha256(canonical_table_bytes(tables)).hexdigest()


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


def rank(m: RModuleSum) -> int:
    """Rank of the underlying abelian group."""
    return 2 * m.free + m.triv + m.sign


def _bilinear(table: Mapping[str, Mapping[str, int]], m: RModuleSum, n: RModuleSum) -> RModuleSum:
    out = RModuleSum()
    for x in CLASS_ORDER:
        mx = m.multiplicity(x)
        if not mx:
            continue
        for y in CLASS_ORDER:
            ny = n.multiplicity(y)
            if not ny:
                continue
            cell = RModuleSum.from_dict(table[_pair_key(x, y)])
            out = out + cell.scale(mx * ny)
    return out


def tensor(m: RModuleSum, n: RModuleSum) -> RModuleSum:
    """Tensor product over R, extended bilinearly from the frozen table."""
    return _bilinear(load_tables()["tensor"], m, n)


def tor1(m: RModuleSum, n: RModuleSum) -> RModuleSum:
    """Tor_1 over R, extended bilinearly from the frozen table."""
    return _bilinear(load_tables()["tor1"], m, n)


def localize(m: RModuleSum, site: PrimeSite) -> dict:
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
        mult = m.multiplicity(name)
        if not mult:
            continue
        cell = table[name][site.kind]
        free_rank += mult * cell["free_rank"]
        if cell["torsion_flag"]:
            torsion = True
        note = cell.get("note", "")
        if note and note not in notes:
            notes.append(note)
    out: dict = {"site": site.label(), "free_rank": free_rank, "torsion_flag": torsion}
    if notes:
        out["note"] = "; ".join(notes)
    return out
