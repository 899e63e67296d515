"""In-memory span tracer that wraps functions from outside the program.

A Tracer replaces an attribute with a wrapper that records one span per
call and puts the original back on ``restore()``, including after a wrapped
call raised. Patch each name where its caller looks it up: ``hexreg.trainer``
imports ``forward`` by name, so tracing the trainer's calls means patching
``hexreg.trainer.forward``, not ``hexreg.autodiff.forward``.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]    # index of the enclosing span in Tracer.spans
    op: Optional[int]        # epoch or diagnostics-pass id; None in set-up

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters; every patch is undone by ``restore``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = {}            # op -> Counter, see count()
        self.peak_bytes: Counter = Counter()
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None, memory: bool = False):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, result)`` runs once the span is closed, to read
        counts off the call. With ``memory`` the call's peak traced
        allocation is kept in ``peak_bytes[name]``.
        """
        original = vars(owner)[attr]
        if not inspect.isfunction(original):
            raise TypeError(f"{name}: can only wrap plain functions")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if memory:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
            finally:
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes[name], peak)
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def count(self, name: str, n: int):
        """Add n to a counter of the current operation."""
        self.counts.setdefault(self.op, Counter())[name] += n

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out
