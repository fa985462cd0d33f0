"""Nested-span tracing with JSON and Chrome trace-event export.

A :class:`Tracer` hands out :class:`Span` context managers::

    tracer = Tracer()
    with tracer.span("select_top_k", table="flights") as root:
        with tracer.span("enumerate") as span:
            span.add("candidates", 412)
    tracer.write_chrome_trace("trace.json")   # open in chrome://tracing

Spans nest per thread (a span opened while another is active becomes
its child); spans opened on worker threads start their own top-level
tree tagged with that thread's id, which the Chrome viewer renders as
separate rows.  Timing uses ``time.perf_counter`` offsets from the
tracer's epoch, so durations are monotonic even if the wall clock
steps.

Everything here is pure stdlib and thread-safe; a tracer is cheap
enough to create per request and can be exported at any time (open
spans are simply excluded until they close).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .context import current_request_id

__all__ = ["Span", "Tracer"]


class Span:
    """One timed operation: name, interval, attributes, counters, children.

    ``start``/``end`` are seconds relative to the owning tracer's epoch;
    ``duration`` is ``end - start`` (0.0 while the span is still open).
    ``attributes`` hold one-shot facts (``span.set("k", 5)``);
    ``counters`` accumulate (``span.add("candidates", 10)``).
    """

    __slots__ = (
        "name",
        "start",
        "end",
        "attributes",
        "counters",
        "children",
        "thread_id",
    )

    def __init__(self, name: str, start: float, thread_id: int, **attributes: Any) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes)
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.thread_id = thread_id

    @property
    def duration(self) -> float:
        """Seconds from start to end; 0.0 while the span is open."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, key: str, value: Any) -> "Span":
        """Record a one-shot attribute on this span."""
        self.attributes[key] = value
        return self

    def add(self, key: str, amount: float = 1.0) -> "Span":
        """Accumulate a counter on this span."""
        self.counters[key] = self.counters.get(key, 0.0) + amount
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON-serialisable form of this span and its children."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.attributes:
            payload["attributes"] = {
                k: _jsonable(v) for k, v in self.attributes.items()
            }
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first lookup of a descendant (or self) by name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.end is None else f"{self.duration * 1000:.3f}ms"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


#: Synthetic Chrome-trace tids for adopted worker spans start here —
#: far above real Linux tids, so they can never collide with the
#: parent's own thread rows.
_SYNTHETIC_TID_BASE = 1_000_000


def _jsonable(value: Any) -> Any:
    """Best-effort JSON-safe projection of an attribute value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Produces nested spans and exports them as JSON or Chrome events.

    Thread model: each thread keeps its own open-span stack, so worker
    threads trace independently; their finished top-level spans land in
    the shared ``spans`` list tagged with the worker's thread id.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.epoch_unix = time.time()
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # Shared view of every thread's open-span names, for the
        # sampling profiler: {thread_id: (outermost, ..., innermost)}.
        # Lock-free: each thread writes only its own key and a dict
        # store/pop/copy is atomic, so a profiler signal handler never
        # waits on a lock the thread it interrupted holds.
        self._open_names: Dict[int, Tuple[str, ...]] = {}

    # -- span production ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span; it closes (and records its end time) on exit.

        The span becomes a child of the calling thread's innermost open
        span, or a new top-level span when none is open.  A span opened
        inside a :func:`~repro.obs.context.request_scope` carries the
        scope's id as a ``request_id`` attribute (explicit attributes
        win).
        """
        stack = self._stack()
        thread_id = threading.get_ident()
        span = Span(
            name,
            time.perf_counter() - self.epoch,
            thread_id,
            **attributes,
        )
        if "request_id" not in span.attributes:
            request_id = current_request_id()
            if request_id is not None:
                span.attributes["request_id"] = request_id
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        self._open_names[thread_id] = tuple(s.name for s in stack)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self.epoch
            stack.pop()
            if stack:
                self._open_names[thread_id] = tuple(s.name for s in stack)
            else:
                self._open_names.pop(thread_id, None)
                with self._lock:
                    self.spans.append(span)

    def open_stacks(self) -> Dict[int, Tuple[str, ...]]:
        """Every thread's currently-open span names, outermost first —
        the span attribution the sampling profiler prefixes onto its
        stacks (a snapshot copy; safe to read from any thread, and from
        a signal handler: it takes no lock)."""
        return dict(self._open_names)

    def adopt(
        self,
        spans: Sequence[Span],
        epoch_unix: float,
        worker: Optional[str] = None,
    ) -> None:
        """Graft finished spans captured by *another* tracer (typically
        in a pool worker process) onto this one.

        ``epoch_unix`` is the capturing tracer's wall-clock epoch; span
        offsets are rebased onto this tracer's epoch so the merged
        timeline lines up (subject to cross-process clock skew, which
        on one host is microseconds).  ``worker`` tags each adopted
        root, and the Chrome export assigns every distinct worker label
        its own synthetic tid so worker timelines render as separate
        rows instead of interleaving on the parent's.
        """
        delta = epoch_unix - self.epoch_unix

        def rebase(span: Span) -> None:
            span.start += delta
            if span.end is not None:
                span.end += delta
            for child in span.children:
                rebase(child)

        with self._lock:
            for span in spans:
                rebase(span)
                if worker is not None:
                    span.attributes.setdefault("worker", worker)
                self.spans.append(span)

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Nested JSON form: ``{"epoch_unix": ..., "spans": [...]}``."""
        with self._lock:
            roots = list(self.spans)
        return {
            "epoch_unix": self.epoch_unix,
            "spans": [span.to_dict() for span in roots],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The nested form serialised to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event form (open via ``chrome://tracing``).

        Every finished span becomes one complete ("ph": "X") event with
        microsecond ``ts``/``dur``; nesting is implied by containment,
        which the viewer reconstructs per (pid, tid) row.  Spans adopted
        from pool workers (root tagged with a ``worker`` attribute by
        :meth:`adopt`) get a stable synthetic tid per distinct worker —
        thread ids from other processes can collide with the parent's,
        which used to interleave every worker's phases on one row — and
        a ``thread_name`` metadata event labels each synthetic row.
        """
        events: List[Dict[str, Any]] = []
        pid = os.getpid()

        with self._lock:
            roots = list(self.spans)

        # Stable mapping: worker label -> synthetic tid, in first-seen
        # root order so re-exports agree.
        worker_tids: Dict[str, int] = {}
        for root in roots:
            worker = root.attributes.get("worker")
            if worker is not None and worker not in worker_tids:
                worker_tids[worker] = _SYNTHETIC_TID_BASE + len(worker_tids)

        def emit(span: Span, tid: int) -> None:
            args = {k: _jsonable(v) for k, v in span.attributes.items()}
            args.update(span.counters)
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            for child in span.children:
                emit(child, tid)

        for root in roots:
            worker = root.attributes.get("worker")
            tid = worker_tids.get(worker, root.thread_id)
            emit(root, tid)
        for worker, tid in worker_tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"worker {worker}"},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "epochUnix": self.epoch_unix,
        }

    def write_chrome_trace(self, path) -> None:
        """Serialise :meth:`to_chrome_trace` to a file."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=2)

    def find(self, name: str) -> Optional[Span]:
        """Depth-first lookup of a finished span by name across roots."""
        with self._lock:
            roots = list(self.spans)
        for root in roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def clear(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        with self._lock:
            self.spans.clear()
