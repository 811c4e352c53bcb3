"""Arithmetic of R = Z[t]/(t^2 - 1) on a closed class of modules.

The module class has four generators, recorded by multiplicity:

    FreeR   the ring itself, Z-rank 2
    TrivZ   Z with t = +1, isomorphic to the ideal (1+t) and to R/(t-1)
    SignZ   Z with t = -1, isomorphic to the ideal (t-1) and to R/(t+1)
    TorF2   R/((t-1), 2), the one-dimensional F_2 module

Tensor products, Tor_1, localizations at the prime sites of R, and the
kernel/image of multiplication by (1 - t) are all table-driven.  The
tables are shipped as a checksummed JSON data file and are regenerated
only by the resolution verifier in :mod:`crystalk.oracle`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Mapping

from .errors import TableIntegrityError

__all__ = [
    "CLASS_ORDER",
    "RModuleSum",
    "PrimeSite",
    "LocalizedShape",
    "OneMinusTSplit",
    "rank",
    "tensor",
    "tor1",
    "localize",
    "mult_one_minus_t",
    "load_tables",
    "table_checksum",
    "canonical_table_bytes",
    "TABLE_ENV_VAR",
]

CLASS_ORDER = ("FreeR", "TrivZ", "SignZ", "TorF2")
TABLE_ENV_VAR = "CRYSTALK_TABLE_PATH"
_TABLE_RESOURCE = "repring_tables.json"


@dataclass(frozen=True)
class RModuleSum:
    """Formal direct sum over the basis class, by multiplicity."""

    free: int = 0
    triv: int = 0
    sign: int = 0
    tor2: int = 0

    def __post_init__(self) -> None:
        if min(self.free, self.triv, self.sign, self.tor2) < 0:
            raise ValueError("multiplicities must be nonnegative")

    def __add__(self, other: "RModuleSum") -> "RModuleSum":
        return RModuleSum(
            self.free + other.free,
            self.triv + other.triv,
            self.sign + other.sign,
            self.tor2 + other.tor2,
        )

    def scale(self, k: int) -> "RModuleSum":
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        return RModuleSum(k * self.free, k * self.triv, k * self.sign, k * self.tor2)

    @property
    def is_zero(self) -> bool:
        return self == RModuleSum()

    def multiplicity(self, name: str) -> int:
        return {
            "FreeR": self.free,
            "TrivZ": self.triv,
            "SignZ": self.sign,
            "TorF2": self.tor2,
        }[name]

    def as_dict(self) -> dict[str, int]:
        return {name: self.multiplicity(name) for name in CLASS_ORDER}

    @classmethod
    def from_dict(cls, d: Mapping[str, int]) -> "RModuleSum":
        return cls(
            free=d.get("FreeR", 0),
            triv=d.get("TrivZ", 0),
            sign=d.get("SignZ", 0),
            tor2=d.get("TorF2", 0),
        )

    def __str__(self) -> str:
        parts = [f"{name}^{m}" for name, m in self.as_dict().items() if m]
        return " + ".join(parts) if parts else "0"


_SITE_KINDS = ("MinPlus", "MinMinus", "Dyadic", "OddPlus", "OddMinus")


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeSite:
    """A prime of R: one of the two minimal primes, the dyadic point,
    or an odd maximal point on one of the two branches."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SITE_KINDS:
            raise ValueError(f"unknown site kind {self.kind!r}")
        if self.kind in ("OddPlus", "OddMinus"):
            if self.p is None or not _is_odd_prime(self.p):
                raise ValueError("odd sites need an odd prime p >= 3")
        elif self.p is not None:
            raise ValueError(f"{self.kind} does not take a residue prime")

    @property
    def contains_plus_ideal(self) -> bool:
        """True when the site contains the ideal (t - 1)."""
        return self.kind in ("MinPlus", "OddPlus", "Dyadic")

    @property
    def contains_minus_ideal(self) -> bool:
        """True when the site contains the ideal (t + 1)."""
        return self.kind in ("MinMinus", "OddMinus", "Dyadic")

    def label(self) -> str:
        if self.p is not None:
            return f"{self.kind}({self.p})"
        return self.kind


MIN_PLUS = PrimeSite("MinPlus")
MIN_MINUS = PrimeSite("MinMinus")
DYADIC = PrimeSite("Dyadic")


def odd_plus(p: int) -> PrimeSite:
    return PrimeSite("OddPlus", p)


def odd_minus(p: int) -> PrimeSite:
    return PrimeSite("OddMinus", p)


@dataclass(frozen=True)
class LocalizedShape:
    """Shape of a module after localizing at a prime site."""

    site: PrimeSite
    free_rank: int
    torsion_flag: bool
    note: str = ""


@dataclass(frozen=True)
class OneMinusTSplit:
    """Kernel and image of the (1 - t) endomorphism.

    ``image_indices`` annotates classes whose image sits at finite
    index inside the class (the sign class maps onto 2Z, index 2).
    """

    kernel: RModuleSum
    image: RModuleSum
    image_indices: tuple[tuple[str, int], ...] = field(default_factory=tuple)


def _load_table_bytes() -> bytes:
    override = os.environ.get(TABLE_ENV_VAR)
    if override:
        with open(override, "rb") as fh:
            return fh.read()
    return (resources.files(__package__) / "data" / _TABLE_RESOURCE).read_bytes()


def canonical_table_bytes(tables: Mapping) -> bytes:
    """Canonical serialization of the table payload (used for checksums)."""
    return json.dumps(tables, sort_keys=True, indent=2).encode() + b"\n"


def table_checksum(tables: Mapping) -> str:
    return hashlib.sha256(canonical_table_bytes(tables)).hexdigest()


@lru_cache(maxsize=1)
def load_tables() -> dict:
    """Load and checksum-verify the frozen module-arithmetic tables."""
    doc = json.loads(_load_table_bytes())
    tables = doc.get("tables")
    recorded = doc.get("sha256")
    if tables is None or recorded is None:
        raise TableIntegrityError("table file missing 'tables' or 'sha256'")
    actual = table_checksum(tables)
    if actual != recorded:
        raise TableIntegrityError(
            f"table checksum mismatch: recorded {recorded}, computed {actual}"
        )
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


def localize(m: RModuleSum, site: PrimeSite) -> LocalizedShape:
    """Localized shape at a prime site.

    The behaviour of each basis class depends only on the site kind;
    odd sites act identically for every odd prime.
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
    return LocalizedShape(
        site=site, free_rank=free_rank, torsion_flag=torsion, note="; ".join(notes)
    )


def mult_one_minus_t(m: RModuleSum) -> OneMinusTSplit:
    """Kernel and image of multiplication by (1 - t), classwise."""
    table = load_tables()["one_minus_t"]
    kernel = RModuleSum()
    image = RModuleSum()
    indices: list[tuple[str, int]] = []
    for name in CLASS_ORDER:
        mult = m.multiplicity(name)
        if not mult:
            continue
        cell = table[name]
        kernel = kernel + RModuleSum.from_dict(cell["kernel"]).scale(mult)
        image = image + RModuleSum.from_dict(cell["image"]).scale(mult)
        idx = cell.get("image_index")
        if idx is not None and idx != 1:
            indices.append((name, idx))
    return OneMinusTSplit(kernel=kernel, image=image, image_indices=tuple(indices))
