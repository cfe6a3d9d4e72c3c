"""In-memory span and counter recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Recorder.patch`` replaces
a module attribute (a public function that one layer imports from
another) with a wrapper that opens a span around each call.  Every span
keeps its name, start, end and parent; all spans of one recorder share
its run id.  Nothing is written until ``write_jsonl`` is called.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def patch(self, module, attr: str, span_name: str, after=None) -> None:
        """Wrap ``module.attr`` in a span; ``after(args, result)`` may count."""
        func = getattr(module, attr)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = func(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        self._patched.append((module, attr, func))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children's intervals cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children[s.id], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = s.duration - covered
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(asdict(s), run=self.run_id)) + "\n")
