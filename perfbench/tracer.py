"""Span recorder that wraps the public entry points of each layer.

The program has no spans below its engine today, so the benchmark
records its own: :class:`Tracer` replaces a function or method with a
wrapper that opens a span, calls the original, and closes the span.
Spans are kept in memory (name, start, end, parent, run id, counters)
and written out once, when the traced run ends.

Self time is the arithmetic the per-layer table rests on: a span's
duration minus the part of its interval that its direct children
cover.  Summing self time over every span of one layer gives the time
spent in that layer's own code, whatever the nesting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One call into a layer."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


# A probe runs around one call: ``before(args, kwargs)`` returns
# ``(state, args, kwargs)`` (it may substitute arguments, e.g. to count
# callbacks), and ``after(state, args, kwargs, result)`` returns the
# counts to store on the span.
Probe = Tuple[Callable, Callable]


class Tracer:
    """Installs span wrappers and collects the spans they record.

    Single-threaded by design: the benchmark runs every workload in one
    process with no worker pool, so a plain stack gives each span its
    parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             probe: Optional[Probe] = None) -> Callable:
        spans, stack = self.spans, self._stack
        before, after = probe if probe is not None else (None, None)

        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                state, args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(Span(name, 0.0,
                              parent=stack[-1] if stack else None))
            stack.append(index)
            spans[index].start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if after is not None:
                spans[index].counts = after(state, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attribute: str, name: str,
              probe: Optional[Probe] = None) -> None:
        """Replace ``owner.attribute`` with a span wrapper."""
        original = vars(owner)[attribute]
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, probe))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "run_id": self.run_id, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "counts": span.counts,
                }, separators=(",", ":")) + "\n")
