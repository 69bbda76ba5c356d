"""Span recorder that traces msdiff from outside.

The recorder replaces module-level callables (``msdiff.solver.face_fluxes``
and so on) with wrappers for the duration of a traced repetition.  This
works because the library looks those names up in its module globals at
call time.  Each call becomes one span: name, start, end and the index of
the enclosing span.  Spans stay in memory; :meth:`Tracer.summary` turns
them into per-name call counts, inclusive times and self times.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0   # inclusive; a span nested in one of the same name is not added again
    self_s: float = 0.0    # duration minus the durations of direct child spans
    work: int = 0          # items processed, for layers given a size function


class Tracer:
    """Records spans in memory.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.work: Counter = Counter()
        self.absent: list[str] = []   # layers none of whose targets exist
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.work.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, size=None):
        spans, stack, clock, work = self.spans, self._stack, self.clock, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if size is not None:
                    work[name] += size(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, layers):
        """Wrap every target of ``layers`` (name, targets, size) while the
        block runs and restore the originals after it.  A layer none of
        whose targets exist is listed in ``absent``, not an error."""
        saved = []
        self.absent = []
        try:
            for name, targets, size in layers:
                hits = [hit for hit in map(_resolve, targets) if hit is not None]
                if not hits:
                    self.absent.append(name)
                for module, attr in hits:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, size))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict[str, LayerStats]:
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, LayerStats] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            st = out.setdefault(name, LayerStats())
            st.calls += 1
            st.self_s += (end - start) - child_s[i]
            if not self._has_ancestor_named(parent, name):
                st.total_s += end - start
        for name, st in out.items():
            st.work = self.work[name]
        return out

    def _has_ancestor_named(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def span_cost(calls: int = 50_000, tries: int = 3) -> float:
    """Seconds one traced call adds to a plain call, timed on a no-op
    function (best of ``tries`` loops each)."""
    def noop():
        pass

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    traced = Tracer().wrap("noop", noop)
    best = [min(loop(fn) for _ in range(tries)) for fn in (traced, noop)]
    return (best[0] - best[1]) / calls


def _resolve(target: str):
    """'pkg.module.attr' -> (module, attr), or None if either is gone."""
    mod_name, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None
    if not callable(getattr(module, attr, None)):
        return None
    return module, attr
