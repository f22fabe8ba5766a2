"""In-memory spans around the bench's calls into each ``repro`` layer.

A span is ``(name, start, end, parent, batch)``: ``name`` is the layer
call (``<module>.<call>``), ``parent`` the index of the span that was
open when it started (-1 for a root) and ``batch`` the replay batch
ordinal that caused it (None outside the batch loop).  Spans are kept
in a list for the whole run and written out once, at the end
(:func:`dump_jsonl`); nothing touches the disk while the clock runs.

The stage loop is single-threaded, so one open-span stack is enough.
With ``enabled=False`` :meth:`Tracer.span` hands out one shared no-op
context manager: the untraced loop runs the very same code.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_batch", "index")

    def __init__(self, tracer: "Tracer", name: str, batch: Optional[int]):
        self._tracer = tracer
        self._name = name
        self._batch = batch
        self.index = -1

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self.index = len(tracer.spans)
        tracer.spans.append(
            [self._name, 0.0, 0.0, stack[-1] if stack else -1, self._batch]
        )
        stack.append(self.index)
        tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.spans[self.index][2] = end
        tracer._stack.pop()


class Tracer:
    """Collects spans; ``Tracer(enabled=False)`` costs one call per span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: ``[name, start, end, parent, batch]`` rows, in start order.
        self.spans: List[list] = []
        self._stack: List[int] = []

    def span(self, name: str, batch: Optional[int] = None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, batch)

    # -- read side ---------------------------------------------------------

    def duration(self, index: int) -> float:
        row = self.spans[index]
        return row[2] - row[1]

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name.  A name nested inside itself
        would double count; the stage loop never does that."""
        out: Dict[str, float] = {}
        for name, start, end, _parent, _batch in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self.spans:
            out[row[0]] = out.get(row[0], 0) + 1
        return out

    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its children cover."""
        selfs = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                selfs[row[3]] -= row[2] - row[1]
        return selfs

    def self_totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for row, own in zip(self.spans, self.self_times()):
            out[row[0]] = out.get(row[0], 0.0) + own
        return out

    def find(self, name: str) -> int:
        """Index of the first span called ``name`` (-1 when absent)."""
        for i, row in enumerate(self.spans):
            if row[0] == name:
                return i
        return -1

    def child_cover(self, index: int) -> float:
        """Share of span ``index`` covered by its direct children."""
        total = self.duration(index)
        if total <= 0.0:
            return 0.0
        covered = sum(
            row[2] - row[1] for row in self.spans if row[3] == index
        )
        return covered / total

    def dump_jsonl(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, batch.

        Times are seconds since the first span started.
        """
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, batch) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "batch": batch,
                }) + "\n")
