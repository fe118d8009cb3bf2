"""In-memory span recorder and call wrappers for the traced run.

Spans are recorded only from the benchmark's own files: ``install`` replaces
a public function with a timing wrapper on the module (or class) where its
caller looks it up, and puts the original back afterwards. Each span keeps
its parent's id, so self time (duration minus the part of the interval its
children cover) is computed after the run rather than guessed at call time.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id_, parent, name, start):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.clock())
        s.attrs.update(attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = self.clock()

    def wrap(self, fn, name: str, on_result=None):
        """Wrapper recording one span per call; on_result(span, args, result)
        may attach counts computed from the call's inputs and outputs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, kwargs, result)
                return result
        return traced


def _resolve(owner: str):
    """'pkg.mod' -> module; 'pkg.mod:Class' -> the class on that module."""
    mod_name, _, cls = owner.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def install(tracer: Tracer, wraps):
    """Patch every (owner, attr, span name, on_result) in ``wraps`` for the
    duration of the block; originals are restored even on error."""
    saved = []
    try:
        for owner, attr, name, on_result in wraps:
            target = _resolve(owner)
            original = getattr(target, attr)
            saved.append((target, attr, original))
            setattr(target, attr, tracer.wrap(original, name, on_result))
        yield tracer
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its direct children's intervals.

    Children that overlap each other are counted once, and any part of a
    child outside its parent's interval is ignored.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def group_under(spans, root_name: str) -> dict:
    """root span id -> list of that root's descendants (root excluded), for
    every span named root_name."""
    by_id = {s.id: s for s in spans}
    root_of: dict[int, int | None] = {}

    def find(s):
        if s.id in root_of:
            return root_of[s.id]
        p = by_id.get(s.parent) if s.parent is not None else None
        if p is None:
            r = None
        elif p.name == root_name:
            r = p.id
        else:
            r = find(p)
        root_of[s.id] = r
        return r

    groups = {s.id: [] for s in spans if s.name == root_name}
    for s in spans:
        r = find(s)
        if r is not None:
            groups[r].append(s)
    return groups
