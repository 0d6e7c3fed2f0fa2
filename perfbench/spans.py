"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers that the benchmark installs around the
public functions of each ``symmetria`` module.  A wrapper replaces the
function everywhere it is bound, including the names other ``symmetria``
modules imported with ``from .x import f``, so a nested call becomes a child
span of its caller.  Each span keeps its name, start, end and parent; spans
stay in memory and are reduced to per-name call counts and self times when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def record_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for ``fn``.  ``observe(tracer, result)`` runs
        inside the span, so its (small) cost is part of the span's self
        time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, result)
                return result
            finally:
                self.finish(idx)

        return traced

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """{name: (calls, self_seconds)} over all recorded spans."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name_id):
            rec = out.setdefault(self.names[nid], [0, 0.0])
            rec[0] += 1
            rec[1] += selfs[i]
        return {k: (v[0], v[1]) for k, v in out.items()}


def self_times(starts, ends, parents) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (children clipped to the parent and
    overlaps between children counted once)."""
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(n):
        s0, e0 = starts[i], ends[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            cs, ce = max(starts[c], s0), min(ends[c], e0)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e0 - s0) - covered)
    return out


def install(tracer: Tracer, targets) -> None:
    """Replace each target with a traced wrapper.

    ``targets`` holds ``(span_name, "module:attr", observe)`` entries, where
    ``attr`` may be ``Class.method``.  A module-level function is rebound in
    every loaded ``symmetria`` module that holds the same object.
    """
    for span_name, where, observe in targets:
        mod_name, attr = where.split(":")
        owner = importlib.import_module(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        traced = tracer.wrap(span_name, original, observe)
        setattr(owner, leaf, traced)
        if path:
            continue
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("symmetria"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
