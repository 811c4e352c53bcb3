"""Spans around calls into crystalk, installed from outside the package.

``Tracer.install`` wraps the functions named in ``SPANNED`` and
``COUNTED``.  ``from .intlin import smith_normal_form`` copies the
binding into the importing module, so every ``crystalk`` module that
holds the original object gets the wrapper; ``uninstall`` puts every
original back and checks that it did.  Spans stay in memory as
``(name, start, end, parent, op)`` tuples, ``parent`` being an index
into the same list or -1.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "crystalk"

# (module, attribute): each call becomes a span
SPANNED = (
    ("intlin", "smith_normal_form"),
    ("intlin", "exterior_trace_poly"),
    ("lattice", "validate_involution"),
    ("lattice", "invariants"),
    ("lattice", "classify"),
    ("repring", "tensor"),
    ("repring", "localize"),
    ("repring", "load_tables"),
    ("toruskt", "fixed_set"),
    ("toruskt", "cohomology_invariants"),
    ("toruskt", "k_ranks_delocalized"),
    ("toruskt", "kunneth_assembly"),
    ("toruskt", "build_report"),
    ("oracle", "involution_corpus"),
    ("oracle", "tate_invariants"),
    ("oracle", "exterior_action_invariants"),
    ("oracle", "exterior_power_matrix"),
    ("oracle", "rank_exact"),
    ("oracle", "fixed_grid_components"),
    ("oracle", "render_table_file_bytes"),
    ("cli", "cmd_verify"),
    ("cli", "main"),
)

# (module, attribute, metric name): calls are counted, not timed, so their
# time stays in the caller's self time; matmul runs hundreds of times an op
COUNTED = (("intlin", "IntMatrix.__matmul__", "intlin.matmul"),)


class RestoreError(RuntimeError):
    """A patched binding did not return to its original object."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op: int = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, attr in SPANNED:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if owner is None:  # a module the workload never imports
                continue
            orig = getattr(owner, attr)
            wrapper = self._span(f"{mod_name}.{attr}", orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, path, metric in COUNTED:
            owner_name, attr = path.split(".")
            owner = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], owner_name)
            orig = vars(owner)[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._count(metric, orig))

    def uninstall(self) -> None:
        patches, self._patches = self._patches, []
        for owner, key, orig in reversed(patches):
            setattr(owner, key, orig)
        for owner, key, orig in patches:
            if vars(owner)[key] is not orig:
                raise RestoreError(f"{owner!r}.{key} still patched")

    def absorb(self, spans: list, counts: dict, op: int) -> None:
        """Add spans recorded in another process as part of op ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, base + parent if parent >= 0 else -1, op))
        self.counts.update(counts)


def summarize(spans: list, counts: dict, ops: int) -> dict[str, float]:
    """Per-op calls, self time and total time (ms) for each span name.

    Self time is a span's duration minus its direct children's; total
    time counts only spans with no ancestor of the same name.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            total_s[name] += end - start
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_ms"] = 1000 * self_s[name] / ops
        out[f"{name}.total_ms"] = 1000 * total_s[name] / ops
    for name, n in counts.items():
        out[f"{name}.calls"] = n / ops
    return out
