"""In-memory spans recorded around the benchmark's calls into hgdet.

A span is one public call (or a group of them) with its start, end, parent
span and the operation it belongs to.  Spans flagged as probes are extra
measurement calls made between operations; they are excluded from the
traced pass's wall time, so the per-layer self times of the pass plus the
unattributed remainder add up to that wall time exactly.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    probe: bool

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and exact counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if probe and parent is not None:
            raise ValueError(f"probe span {name!r} must not be nested")
        rec = Span(name, perf_counter(), 0.0, parent, self.op, probe)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``, probes included."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer over the non-probe spans: each span's duration
        minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            if not s.probe:
                out[s.layer] += s.seconds - c
        return out

    def covered_seconds(self) -> float:
        """Time covered by top-level non-probe spans."""
        return sum(s.seconds for s in self.spans
                   if s.parent is None and not s.probe)

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "probe": s.probe}
                for s in self.spans]
