"""In-memory span recording around the engine's layer boundaries.

The benchmark does not use the program's own ``Tracer``: it wraps the
public functions of each layer where the caller looks the name up (for
example ``repro.core.enumeration.apply_transform``), records one span
per call, and restores the originals afterwards.  Spans carry a name,
start, end, parent span and request id, stay in memory, and are written
out once at the end of a run.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the self times of every span in a
request plus the request root's own self time (the unattributed part)
add up to the request's wall time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's id (None for a
    request root), ``request_id`` the request it ran under."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[int]
    kind: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(children[span.id], span.start, span.end)
        for span in spans
    }


class Recorder:
    """Span and counter store plus the patch table that feeds it.

    ``patch(owner, attr, layer)`` replaces ``owner.attr`` with a wrapper
    recording a ``layer`` span per call; ``on_result(recorder, result,
    args, kwargs)`` may add counts from the call's return value.
    Patches are installed by :meth:`install` and removed by
    :meth:`uninstall`, so untraced requests run the original code.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._request: Optional[int] = None
        self._next_id = 0
        self._patches: List[Tuple[object, str, Callable]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, kind: str = "") -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, self._request, kind)
            )

    @contextmanager
    def request(self, request_id: int, kind: str) -> Iterator[None]:
        """Root span of one benchmark request (name ``bench.request``)."""
        self._request = request_id
        try:
            with self.span("bench.request", kind):
                yield
        finally:
            self._request = None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- patching -------------------------------------------------------
    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_result: Optional[Callable] = None,
    ) -> None:
        # On a class, read the function itself (not a bound method) so
        # the wrapper receives ``self`` and uninstall restores it as is.
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._saved.append((owner, attr, original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        self._patches.append((owner, attr, wrapper))

    def install(self) -> None:
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------
    def layer_totals(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self seconds and call count."""
        own = self_times(self.spans)
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            seconds[span.name] += own[span.id]
            calls[span.name] += 1
        return seconds, calls

    def roots(self, kind: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if s.parent is None and (kind is None or s.kind == kind)
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)
