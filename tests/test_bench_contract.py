"""The package names the benchmark's tracer wraps all still resolve.

``bench/tracer.py`` lists them in ``SPANNED`` and ``COUNTED``; the
tuples are read from its source, so the file is neither imported nor
edited here.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

pytestmark = pytest.mark.skipif(not TRACER.exists(), reason="bench/ is absent")


def tracer_tuple(name):
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACER}")


def resolve(module, path):
    return functools.reduce(getattr, path.split("."), importlib.import_module(f"crystalk.{module}"))


def test_every_spanned_name_resolves():
    for module, attr in tracer_tuple("SPANNED"):
        assert callable(resolve(module, attr)), f"{module}.{attr}"


def test_every_counted_name_resolves():
    for module, path, _metric in tracer_tuple("COUNTED"):
        assert callable(resolve(module, path)), f"{module}.{path}"
