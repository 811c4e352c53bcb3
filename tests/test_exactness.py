"""The package's arithmetic is exact: no float can enter ``src/crystalk``.

An AST scan of every module fails on true division (``/``, ``/=``), a
float or complex literal, a use of ``float``, ``complex`` or ``round``, and
any name taken from ``math`` other than its integer functions.
"""

import ast
from pathlib import Path

import pytest

import crystalk

SRC = Path(crystalk.__file__).parent
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}
INEXACT_NAMES = {"float", "complex", "round"}


def inexact_sites(source: str) -> list[str]:
    """``line: what`` for each construct in ``source`` that can leave the integers."""
    tree = ast.parse(source)
    math_aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in INEXACT_NAMES:
            what = f"use of {node.id}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [alias.name for alias in node.names if alias.name not in INTEGER_MATH]
            what = f"math.{', math.'.join(bad)}" if bad else None
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_aliases
            and node.attr not in INTEGER_MATH
        ):
            what = f"math.{node.attr}"
        if what:
            found.append(f"{node.lineno}: {what}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_is_exact(path):
    assert inexact_sites(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = a / b",
        "x /= 2",
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "x = float(a)",
        "x = complex(a, b)",
        "x = round(a)",
        "x = list(map(float, xs))",
        "from math import sqrt",
        "from math import comb, log2",
        "import math\nx = math.sqrt(a)",
        "import math as m\nx = m.pi",
    ],
)
def test_scan_finds_each_inexact_construct(source):
    assert len(inexact_sites(source)) == 1


def test_scan_passes_integer_arithmetic():
    source = (
        "from math import comb, isqrt\nimport math\n"
        "x = a // b + a % b + 2 ** 10 + comb(5, 2) + isqrt(17) + math.gcd(4, 6)\n"
        "x //= 2\n"
    )
    assert inexact_sites(source) == []
