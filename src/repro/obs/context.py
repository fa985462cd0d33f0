"""Request-correlated telemetry: one id across spans, events, metrics.

The obs pillars each record *their* view of a run — spans know where
time went, events know what was decided, provenance knows why a chart
ranked, metrics know the fleet aggregates.  What none of them could do
before this module is answer "show me everything about *this* request":
the streams had no shared key.

A :class:`RequestContext` fixes that.  It is a contextvars-carried
envelope minted once per logical request (a ``select_top_k`` call, one
table of a batch, one incremental epoch, one CLI invocation) whose
``request_id`` every instrument stamps into its records:

* spans — :meth:`repro.obs.trace.Tracer.span` attaches a
  ``request_id`` attribute to every span opened under an active scope;
* events — :class:`repro.obs.events.EventLog` (schema v4) writes the
  id into each record's envelope;
* provenance — :class:`repro.obs.provenance.ChartProvenance` carries
  the id of the run that ranked the chart;
* metrics — counters and histograms capture **exemplars**: the last
  observation annotated with its request id, exported on the
  OpenMetrics ``# {request_id="..."} value ts`` suffix.

Scopes nest and propagate: :func:`request_scope` reuses an enclosing
scope by default (a batch worker's table-level id covers the ingest,
selection and cache activity inside it) and the plain-string
``request_id`` crosses process boundaries with the task arguments —
the batch driver mints ids in the parent, ships them to pool workers,
and the worker re-enters the scope before running the engine, so
worker-side records and parent-side records of one table agree.

An :class:`Observer` is the writer half: one per request, carrying its
sinks (tracer, metrics registry, event log, SLO monitor), phase timings
and kernel ledger.  The public entry points build it from their
arguments and bind it (``with observer:``); the layers below time
phases, emit events, record metrics and report failures through it
(:func:`current_observer`), and the kernels account each call to the
request ledger it binds alongside.  Thread-pool tasks run in a copy of
the caller's context, so their kernel work counts toward the caller.

The reader half, :func:`build_timeline`, joins the four streams back
into one time-ordered per-request narrative — the body of
``repro obs timeline``.

Pure stdlib plus its sibling :mod:`repro.obs.kernels`; imports nothing
from the rest of :mod:`repro` (the timeline takes already-parsed
records, so there is no cycle with the modules that import this one).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
import uuid
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from .kernels import REQUEST_LEDGER, KernelStats

__all__ = [
    "RequestContext",
    "Observer",
    "new_request_id",
    "current_context",
    "current_observer",
    "current_request_id",
    "request_scope",
    "build_timeline",
    "format_timeline",
    "timeline_request_ids",
]


@dataclass(frozen=True)
class RequestContext:
    """One logical request's identity, carried by a context variable.

    ``request_id`` is a plain string so the context survives pickling
    by value: cross-process callers ship the id, not the object, and
    re-enter :func:`request_scope` on the far side.  ``parent_id``
    links a nested scope (one table of a batch) to its enclosing one
    (the batch itself) when the nesting was made explicit with
    ``fresh=True``.
    """

    request_id: str
    parent_id: Optional[str] = None
    attrs: Mapping[str, Any] = field(default_factory=dict)


_REQUEST: contextvars.ContextVar[Optional[RequestContext]] = (
    contextvars.ContextVar("repro_request_context", default=None)
)

#: Per-process session prefix: ids mint as ``<session>-<pid>-<counter>``
#: so ids from a forked pool worker (same session, different pid) can
#: never collide with the parent's.
_SESSION = uuid.uuid4().hex[:8]
_COUNTER = itertools.count(1)


def new_request_id() -> str:
    """Mint a fresh process-unique request id (cheap, no RNG state)."""
    return f"{_SESSION}-{os.getpid():x}-{next(_COUNTER):06x}"


def current_context() -> Optional[RequestContext]:
    """The active :class:`RequestContext`, or ``None`` outside a scope."""
    return _REQUEST.get()


def current_request_id() -> Optional[str]:
    """The active request id, or ``None`` outside a scope."""
    context = _REQUEST.get()
    return None if context is None else context.request_id


@contextmanager
def request_scope(
    request_id: Optional[str] = None,
    fresh: bool = False,
    **attrs: Any,
) -> Iterator[RequestContext]:
    """Enter a request scope for the duration of the ``with`` block.

    * ``request_id`` given — enter a scope with exactly that id (the
      cross-process re-entry path: pool workers pass the id the parent
      minted).
    * no id, an enclosing scope active, ``fresh=False`` (default) —
      **reuse** the enclosing scope, so instrumented layers can all
      guard themselves with ``request_scope()`` without fragmenting one
      request into many ids.
    * no id otherwise — mint a new one (``fresh=True`` forces this and
      records the enclosing id as ``parent_id``; an incremental session
      uses it to give each epoch its own id).
    """
    enclosing = _REQUEST.get()
    if request_id is None and enclosing is not None and not fresh:
        yield enclosing
        return
    context = RequestContext(
        request_id=request_id or new_request_id(),
        parent_id=None if enclosing is None else enclosing.request_id,
        attrs=dict(attrs),
    )
    token = _REQUEST.set(context)
    try:
        yield context
    finally:
        _REQUEST.reset(token)


# ----------------------------------------------------------------------
# The request observer
# ----------------------------------------------------------------------
_OBSERVER: contextvars.ContextVar[Optional["Observer"]] = (
    contextvars.ContextVar("repro_observer", default=None)
)


def current_observer() -> Optional["Observer"]:
    """The observer bound for the running request, or ``None``."""
    return _OBSERVER.get()


class _UntracedSpan:
    """What an untraced request's spans and phases yield."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> "_UntracedSpan":
        return self

    def add(self, key: str, amount: float = 1.0) -> "_UntracedSpan":
        return self


_UNTRACED_SPAN = _UntracedSpan()
_UNTRACED = nullcontext(_UNTRACED_SPAN)


class Observer:
    """One request's telemetry: its sinks, phase timings and kernel ledger.

    ``tracer``, ``metrics``, ``events`` and ``slo`` may each be ``None``;
    every method skips a missing sink.  ``timings`` maps each
    :meth:`phase` to its seconds; ``kernels`` is the request's
    :class:`~repro.obs.kernels.KernelStats` (when a tracer or registry
    reads it), filled by the kernels while the observer is bound.
    """

    __slots__ = (
        "tracer", "metrics", "events", "slo", "kernels", "timings",
        "_phase", "_scope", "_started", "_tokens",
    )

    def __init__(self, tracer=None, metrics=None, events=None, slo=None) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.events = events
        self.slo = slo
        ledger = tracer is not None or metrics is not None
        self.kernels = KernelStats(metrics) if ledger else None
        self.timings: Dict[str, float] = {}
        self._phase: Optional[str] = None
        self._scope: Optional[tuple] = None
        self._started = time.perf_counter()
        self._tokens: List[tuple] = []

    @classmethod
    def for_request(cls, tracer=None, metrics=None, events=None) -> "Observer":
        """The bound observer if it has exactly these sinks (as
        ``DeepEye.top_k`` binds one with its SLO monitor), else a new one."""
        active = _OBSERVER.get()
        if (
            active is not None
            and active.tracer is tracer
            and active.metrics is metrics
            and active.events is events
        ):
            return active
        return cls(tracer, metrics, events)

    def __enter__(self) -> "Observer":
        self._tokens.append(
            (_OBSERVER.set(self), REQUEST_LEDGER.set(self.kernels))
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        scope, self._scope = self._scope, None
        if scope is not None and isinstance(exc, Exception):
            self.error(exc, scope[0], **scope[1])
        observer, ledger = self._tokens.pop()
        REQUEST_LEDGER.reset(ledger)
        _OBSERVER.reset(observer)

    def scope(self, stage: str, **fields: Any) -> "Observer":
        """For ``with observer.scope(stage, **fields):`` — binds like
        ``with observer:``, and an exception escaping the block goes
        through :meth:`error` before it propagates."""
        self._scope = (stage, fields)
        return self

    def span(self, name: str, **attributes: Any):
        """A tracer span, or an untraced stand-in."""
        if self.tracer is None:
            return _UNTRACED
        return self.tracer.span(name, **attributes)

    @contextmanager
    def phase(self, name: str) -> Iterator[Any]:
        """Time one pipeline phase into :attr:`timings`.

        Traced, the timing is the span's duration and the span gets a
        ``kernel.<name>.calls`` / ``.seconds`` pair per kernel that ran
        in the phase; untraced, a bare ``perf_counter`` pair.
        """
        outer, self._phase = self._phase, name
        if self.tracer is None:
            start = time.perf_counter()
            yield _UNTRACED_SPAN
            self.timings[name] = time.perf_counter() - start
        else:
            before = self.kernels.snapshot()
            with self.tracer.span(name) as span:
                yield span
                delta = self.kernels.delta_since(before)
                for kernel, stats in sorted(delta.items()):
                    span.set(f"kernel.{kernel}.calls", int(stats["calls"]))
                    span.set(f"kernel.{kernel}.seconds", stats["seconds"])
            self.timings[name] = span.duration
        self._phase = outer

    def adopt(self, worker_spans, worker: str) -> None:
        """Graft a worker's ``(spans, epoch_unix)`` onto the tracer."""
        if self.tracer is not None and worker_spans:
            self.tracer.adopt(*worker_spans, worker=worker)

    def begin_request(self, **fields: Any) -> None:
        if self.events is not None:
            self.events.begin_request(**fields)

    def emit(self, kind: str, **fields: Any) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def merge(self, events) -> None:
        """Fold pre-built event dicts (a worker's) into the log."""
        if self.events is not None and events:
            self.events.merge(events)

    def log(self, writer: Callable[..., None], *args: Any, **kwargs: Any) -> None:
        """``writer(self, ...)`` when there is an event log: for events
        whose fields cost something to build."""
        if self.events is not None:
            writer(self, *args, **kwargs)

    def count(
        self, name: str, amount: float = 1.0, help: str = "", **labels: Any
    ) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, labels, help).inc(amount)

    def observe(
        self, name: str, value: float, help: str = "", **labels: Any
    ) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name, labels, help=help).observe(value)

    def record(self, recorder: Callable[..., None], *args: Any) -> None:
        """``recorder(self, ...)`` when there is a metrics registry."""
        if self.metrics is not None:
            recorder(self, *args)

    def publish(self, cache=None) -> None:
        """Add the kernel ledger to the registry's ``kernel_*_total``
        counters, then ``cache``'s level counters."""
        if self.metrics is not None:
            self.kernels.record_metrics(self.metrics)
            if cache is not None and hasattr(cache, "record_metrics"):
                cache.record_metrics(self.metrics)

    def error(self, exc: BaseException, stage: str, **fields: Any) -> None:
        """The one failure record: an ``error`` event, an
        ``errors_total{stage, kind}`` increment (the request id is its
        exemplar) and a failed ``selection_errors`` SLO outcome.  The
        stage is the running phase, else ``stage``."""
        kind = type(exc).__name__
        self.emit("error", **fields, error=f"{kind}: {exc}")
        self.count(
            "errors_total", help="Failed requests, by stage and exception type",
            stage=self._phase or stage, kind=kind,
        )
        if self.slo is not None:
            self.slo.record_outcome("selection_errors", False)

    def served(self, result, seconds: Optional[float] = None) -> None:
        """SLO samples of a served request: latency (``seconds``, else
        the time since this observer was built), success, cache hit."""
        if self.slo is not None:
            if seconds is None:
                seconds = time.perf_counter() - self._started
            self.slo.record_latency("selection_latency", seconds)
            self.slo.record_outcome("selection_errors", True)
            self.slo.record_outcome(
                "cache_hit_rate", bool(getattr(result, "result_cache_hit", False))
            )


# ----------------------------------------------------------------------
# Timeline reader: join events + spans + provenance + exemplars
# ----------------------------------------------------------------------
def _flatten_trace(trace: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Per-span flat records from either trace export form.

    Accepts the nested :meth:`~repro.obs.trace.Tracer.to_dict` form
    (``{"epoch_unix", "spans": [...]}``) or the Chrome trace-event form
    (``{"traceEvents": [...], "epochUnix": ...}``); span start offsets
    rebase onto the tracer's unix epoch so they sort against event
    timestamps.
    """
    records: List[Dict[str, Any]] = []
    if "traceEvents" in trace:
        epoch = float(trace.get("epochUnix", 0.0))
        for event in trace["traceEvents"]:
            if event.get("ph") != "X":
                continue
            args = event.get("args", {})
            records.append(
                {
                    "ts": epoch + event["ts"] / 1e6,
                    "name": event["name"],
                    "duration": event.get("dur", 0.0) / 1e6,
                    "depth": 0,
                    "request_id": args.get("request_id"),
                    "attributes": dict(args),
                }
            )
        return records

    epoch = float(trace.get("epoch_unix", 0.0))

    def walk(span: Mapping[str, Any], depth: int) -> None:
        attributes = dict(span.get("attributes", {}))
        records.append(
            {
                "ts": epoch + float(span.get("start", 0.0)),
                "name": span.get("name", "?"),
                "duration": float(span.get("duration", 0.0)),
                "depth": depth,
                "request_id": attributes.get("request_id"),
                "attributes": attributes,
            }
        )
        for child in span.get("children", ()):
            walk(child, depth + 1)

    for root in trace.get("spans", ()):
        walk(root, 0)
    return records


def _event_ts(event: Mapping[str, Any]) -> float:
    """The wall-clock instant an event describes: merged worker events
    keep their original worker-side timestamp (``worker_ts``), which
    orders them where they happened rather than where they were merged."""
    return float(event.get("worker_ts", event.get("ts", 0.0)))


def build_timeline(
    events: Optional[Sequence[Mapping[str, Any]]] = None,
    trace: Optional[Mapping[str, Any]] = None,
    exemplars: Optional[Sequence[Mapping[str, Any]]] = None,
    request_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Join event / span / provenance / exemplar streams into one
    time-ordered list of timeline records.

    ``events`` are decision-event dicts (``read_event_log`` output or an
    :class:`~repro.obs.events.EventLog` tail) — ``score`` events, which
    carry the per-chart provenance facts, surface as the ``provenance``
    stream; ``trace`` is a trace export dict; ``exemplars`` come from
    :func:`repro.obs.metrics.parse_exemplars`.  ``request_id`` filters
    every stream to one request; ``None`` keeps everything.

    Each record has ``ts`` (unix seconds), ``stream`` (``event`` /
    ``span`` / ``provenance`` / ``exemplar``), ``request_id``, ``name``,
    and the stream's own detail fields; the list is ordered by
    ``(ts, seq)`` so same-instant event records keep their log order.
    """
    records: List[Dict[str, Any]] = []
    for event in events or ():
        rid = event.get("request_id")
        if request_id is not None and rid != request_id:
            continue
        kind = event.get("kind", "?")
        detail = {
            key: value
            for key, value in event.items()
            if key not in ("v", "seq", "ts", "worker_ts", "kind", "request_id")
        }
        records.append(
            {
                "ts": _event_ts(event),
                "seq": int(event.get("seq", 0)),
                "stream": "provenance" if kind == "score" else "event",
                "request_id": rid,
                "name": kind,
                "detail": detail,
            }
        )
    if trace is not None:
        for span in _flatten_trace(trace):
            rid = span["request_id"]
            if request_id is not None and rid != request_id:
                continue
            detail = {
                key: value
                for key, value in span["attributes"].items()
                if key != "request_id"
            }
            detail["duration"] = span["duration"]
            records.append(
                {
                    "ts": span["ts"],
                    "seq": 0,
                    "stream": "span",
                    "request_id": rid,
                    "name": span["name"],
                    "depth": span["depth"],
                    "detail": detail,
                }
            )
    for exemplar in exemplars or ():
        rid = exemplar.get("request_id")
        if request_id is not None and rid != request_id:
            continue
        records.append(
            {
                "ts": float(exemplar.get("ts", 0.0)),
                "seq": 0,
                "stream": "exemplar",
                "request_id": rid,
                "name": exemplar.get("name", "?"),
                "detail": {
                    "value": exemplar.get("value"),
                    "labels": dict(exemplar.get("labels", {})),
                },
            }
        )
    records.sort(key=lambda record: (record["ts"], record["seq"]))
    return records


def timeline_request_ids(
    events: Sequence[Mapping[str, Any]],
) -> List[str]:
    """Distinct request ids of an event stream, in first-seen order."""
    seen: Dict[str, None] = {}
    for event in events:
        rid = event.get("request_id")
        if rid is not None and rid not in seen:
            seen[rid] = None
    return list(seen)


def _detail_text(detail: Mapping[str, Any]) -> str:
    parts = []
    for key, value in detail.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        elif isinstance(value, (list, tuple)):
            parts.append(f"{key}=[{len(value)}]")
        elif isinstance(value, dict):
            inner = ",".join(f"{k}={v}" for k, v in value.items())
            parts.append(f"{key}={{{inner}}}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def format_timeline(records: Sequence[Mapping[str, Any]]) -> str:
    """Render a :func:`build_timeline` list as the ``repro obs
    timeline`` narrative: one aligned line per record, timestamps as
    offsets from the first record."""
    if not records:
        return "(empty timeline)\n"
    base = records[0]["ts"]
    lines = []
    for record in records:
        offset = record["ts"] - base
        indent = "  " * int(record.get("depth", 0))
        name = record["name"]
        if record["stream"] == "span":
            name = f"{indent}{name}"
        rid = record.get("request_id") or "-"
        lines.append(
            f"+{offset:9.4f}s  {record['stream']:<10} {rid:<24} "
            f"{name:<24} {_detail_text(record['detail'])}".rstrip()
        )
    return "\n".join(lines) + "\n"
