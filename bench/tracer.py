"""Tracing installed from outside the package, with nothing changed under
``src/``.

``Tracer("span")`` replaces every public function of the nine modules with a
wrapper that records a span (label, start, end, parent span, instance id);
spans stay in memory until the run ends.  ``Tracer("count")`` replaces the
same functions, plus ``OpTable.apply``, with wrappers that only count calls,
distinct arguments and result sizes.  The hottest calls are counted, never
spanned: a span on each of them would cost more than the work it measures.

A wrapper replaces the original everywhere the package holds it: in its
defining module and in every module that imported it by name.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = (
    "core", "foundations", "constructions", "multigroup", "multiring",
    "multivector", "multimetric", "io", "cli",
)

# Called hundreds of thousands of times per pass: counted only.
HOT = frozenset({
    "core.apply", "core.group_identity_on", "core.group_inverse_on",
    "multigroup.subgroup_closure", "multigroup.is_normal_subgroup",
})

ALIASES = {"io.load_path": "io.load", "io.save_path": "io.save"}

ERROR_KINDS = {"SizeLimitError": "size_limit", "InternalCheckError": "internal_check"}


def targets():
    """(label, owner, attribute) for every traced callable."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"multispace.{short}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                label = f"{short}.{name}"
                out.append((ALIASES.get(label, label), mod, name))
    out.append(("core.apply", sys.modules["multispace.core"].OpTable, "apply"))
    return out


class Tracer:
    def __init__(self, mode: str):
        self.mode = mode
        self.instance = "setup"
        self.spans: list = []
        self._stack: list[int] = []
        self._ticks: dict[str, itertools.count] = {}
        self.errors: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.amounts: Counter = Counter()
        self._undo: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        holders = [m for name, m in list(sys.modules.items()) if name == "multispace" or name.startswith("multispace.")]
        for label, owner, attr in targets():
            original = getattr(owner, attr)
            if self.mode == "span" and label in HOT:
                continue
            wrapper = self._span(label, original) if self.mode == "span" else self._count(label, original)
            places = [owner] + [m for m in holders if m is not owner and vars(m).get(attr) is original]
            for place in places:
                self._undo.append((place, attr, original))
                setattr(place, attr, wrapper)

    def uninstall(self) -> None:
        for place, attr, original in reversed(self._undo):
            setattr(place, attr, original)
        self._undo.clear()

    # -- wrappers -----------------------------------------------------------

    def _error(self, label: str, exc: BaseException) -> None:
        # counted once, by the innermost wrapper the exception leaves
        if not getattr(exc, "_bench_counted", False):
            self.errors[(label, ERROR_KINDS.get(type(exc).__name__, "other"))] += 1
            try:
                exc._bench_counted = True
            except AttributeError:
                pass

    def _span(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(label, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (label, start, end, parent, self.instance)

        return wrapper

    def _count(self, label, fn):
        # next() on an itertools.count is the cheapest counter Python has;
        # the total is read back with one more next() in counts().
        tick = self._ticks.setdefault(label, itertools.count()).__next__
        after = self._after(label)

        def wrapper(*args, **kwargs):
            tick()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(label, exc)
                raise
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, label):
        """Extra per-call accounting for the calls whose arguments or
        results the layer metrics need."""
        keys, amounts = self.keys, self.amounts
        if label == "multigroup.maximal_normal_subgroups":
            return lambda a, r: keys[label].add((self.instance, a[0].name, frozenset(a[1])))
        if label == "multiring.maximal_ideals":
            return lambda a, r: keys[label].add((self.instance, a[0].name, a[1].name, frozenset(a[2])))
        if label == "multivector.span":
            def vectors(a, r):
                amounts["multivector.span.vectors_out"] += len(r)
            return vectors
        if label == "io.load":
            def read(a, r):
                amounts["io.bytes_read"] += os.path.getsize(a[0])
            return read
        if label == "io.save":
            def written(a, r):
                amounts["io.bytes_written"] += os.path.getsize(a[0])
            return written
        return None

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Call counts, distinct-argument counts, result sizes and errors.
        Read once, after the pass: reading advances each call counter."""
        out = {f"{label}.calls": next(c) for label, c in self._ticks.items()}
        out.update({f"{label}.distinct": len(k) for label, k in self.keys.items()})
        out.update(self.amounts)
        out.update({f"{label}.errors.{kind}": n for (label, kind), n in self.errors.items()})
        return out


def self_times(spans, setup: bool = False) -> Counter:
    """Per-label self time, span duration minus its direct children's, over
    the set-up spans (``setup=True``) or the spans of the timed calls."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (label, start, end, _, instance) in enumerate(spans):
        if (instance == "setup") == setup:
            out[label] += (end - start) - child[i]
    return out
