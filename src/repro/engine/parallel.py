"""Parallel batch-serving executor for top-k selection.

The online phase is embarrassingly parallel along two axes, and this
module exploits both with deterministic results:

* **within one table** — :func:`parallel_enumerate` fans candidate
  enumeration + feature extraction + recognition out over x-columns
  (each worker owns every candidate whose x-axis is one column), then
  reassembles the per-column slices into *exactly* the order serial
  enumeration produces, so ``n_jobs > 1`` output is identical to
  ``n_jobs = 1``;
* **across tables** — :func:`batch_select` distributes whole tables of
  a batch over a pool that shares the trained engine (pickled once per
  process worker), streaming :class:`SelectionResult`s back in input
  order.

Both take a ``backend``: ``"process"`` (true parallelism; the table,
config and models ship to each worker once via the pool initializer)
or ``"thread"`` (no pickling, shared memory; useful when numpy releases
the GIL or on platforms without cheap fork).  ``n_jobs = 1`` always
short-circuits to the plain serial code path — no pool, no copies.
The pool classes are imported inside the pool branches, so importing
this module (as every ``import repro`` does) loads neither
``concurrent.futures`` nor ``multiprocessing``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import (
    Deque,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.enumeration import (
    EnumerationConfig,
    EnumerationContext,
    exhaustive_for_column,
    rule_based_for_column,
)
from ..core.nodes import VisualizationNode
from ..core.partial_order import matching_quality_raw
from ..core.rules import PruningCounters
from ..core.selection import _validity
from ..dataset.table import Table
from ..errors import SelectionError
from ..obs import MetricsRegistry
from ..obs.context import new_request_id, request_scope
from ..obs.events import EventLog
from ..obs.trace import Tracer, maybe_span

__all__ = [
    "resolve_n_jobs",
    "parallel_enumerate",
    "batch_select",
    "SlowTableLog",
]

#: Wall-clock (seconds) above which a batch table lands in the slow log
#: when the caller does not pick a threshold.
DEFAULT_SLOW_TABLE_SECONDS = 1.0


class SlowTableLog:
    """Bounded log of slow batch tables, newest entry first.

    Reads like a list — ``len``, iteration, indexing, truthiness — with
    the most recent entry at index 0; :meth:`append` prepends and drops
    the oldest entry beyond ``maxlen``, so a long-lived serving engine
    can never grow its slow-table log without bound.
    """

    def __init__(self, maxlen: int = 256) -> None:
        if maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.maxlen = int(maxlen)
        self._entries: Deque[dict] = deque(maxlen=self.maxlen)
        # Thread-backend batch callbacks append concurrently; a bare
        # deque's appendleft is atomic in CPython, but iteration during
        # a concurrent append is not — one lock makes every access safe.
        self._lock = threading.Lock()

    def append(self, entry: dict) -> None:
        """Record one slow-table entry as the new head of the log."""
        with self._lock:
            self._entries.appendleft(entry)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[dict]:
        with self._lock:
            return iter(list(self._entries))

    def __getitem__(self, index):
        with self._lock:
            return list(self._entries)[index]

    # Engines holding a log get shipped to process workers: drop the
    # unpicklable lock and re-create it (fresh, unheld) on load.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SlowTableLog(maxlen={self.maxlen}, "
            f"entries={len(self._entries)})"
        )


def _worker_label() -> str:
    """Stable-ish identity of the executing worker for metric labels:
    the process id plus (for thread pools) the pool thread's name."""
    thread = threading.current_thread()
    if thread is threading.main_thread():
        return f"pid-{os.getpid()}"
    return f"pid-{os.getpid()}/{thread.name}"


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``0`` mean serial (1); negative values count back from
    the machine's CPUs in the scikit-learn convention (``-1`` = all
    cores, ``-2`` = all but one, ...).
    """
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        cpus = os.cpu_count() or 1
        return max(1, cpus + 1 + n_jobs)
    return int(n_jobs)


def _normalise_mode(mode: str) -> str:
    if mode in ("rules", "R"):
        return "rules"
    if mode in ("exhaustive", "E"):
        return "exhaustive"
    raise ValueError(
        f"unknown enumeration mode {mode!r}; use 'rules' or 'exhaustive'"
    )


# ----------------------------------------------------------------------
# Per-column enumeration + recognition (the unit of intra-table fan-out)
# ----------------------------------------------------------------------
_ColumnSlice = Tuple[
    Tuple[List[VisualizationNode], ...],
    Tuple[List[bool], ...],
    PruningCounters,
    float,
    str,
]


def _column_slice(
    ctx: EnumerationContext, recognizer, mode: str, x_name: str
) -> _ColumnSlice:
    """All candidates (and their validity mask) with ``x_name`` on x.

    Also returns the task's own pruning accounting (a fresh per-task
    accumulator, so concurrent tasks sharing one context never race on
    counters), its wall-clock seconds, and the worker label — the raw
    material for the per-worker task latency histograms.
    """
    start = time.perf_counter()
    counters = PruningCounters()
    if mode == "rules":
        parts: Tuple[List[VisualizationNode], ...] = (
            rule_based_for_column(ctx, x_name, counters),
        )
    else:
        parts = exhaustive_for_column(ctx, x_name, counters)
    masks = tuple(
        _validity(part, recognizer, matching_quality_raw) for part in parts
    )
    return parts, masks, counters, time.perf_counter() - start, _worker_label()


# Per-process worker state, populated by the pool initializer so the
# table, config and recognizer are pickled once per worker instead of
# once per task.
_WORKER_STATE: dict = {}


def _init_enum_worker(table: Table, config: EnumerationConfig, recognizer) -> None:
    _WORKER_STATE["context"] = EnumerationContext(table, config)
    _WORKER_STATE["recognizer"] = recognizer


def _enum_worker(mode: str, x_name: str):
    return _column_slice(
        _WORKER_STATE["context"], _WORKER_STATE["recognizer"], mode, x_name
    )


def _reassemble(
    slices: Sequence[_ColumnSlice],
) -> Tuple[List[VisualizationNode], List[bool]]:
    """Stitch per-column slices back into the serial enumeration order.

    Serial order emits part 0 of every column (rule-based candidates, or
    exhaustive one-column candidates), then part 1 of every column (the
    exhaustive two-column candidates) — concatenation part-major,
    column-minor reproduces it exactly.
    """
    num_parts = max((len(parts) for parts, *_ in slices), default=0)
    nodes: List[VisualizationNode] = []
    mask: List[bool] = []
    for part in range(num_parts):
        for parts, masks, *_ in slices:
            nodes.extend(parts[part])
            mask.extend(masks[part])
    return nodes, mask


def _absorb_task_stats(
    slices: Sequence[_ColumnSlice],
    pruning: Optional[PruningCounters],
    metrics: Optional[MetricsRegistry],
    events: Optional[EventLog] = None,
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Merge per-task pruning counters and latency samples upstream."""
    for _, _, task_counters, seconds, worker in slices:
        if pruning is not None:
            pruning.merge(task_counters)
        if metrics is not None:
            metrics.histogram(
                "enumeration_task_seconds",
                labels={"worker": worker},
                help="Per-column enumerate+featurise+recognise task "
                "latency, per worker",
            ).observe(seconds)
    if events is not None:
        # Per-task phase events, folded in as one deterministic merge:
        # slices were gathered in input (column) order regardless of
        # worker scheduling, so the merged log is scheduling-independent.
        events.merge(
            {
                "kind": "phase",
                "phase": "enumerate_task",
                "column": column,
                "worker": worker,
                "seconds": seconds,
                "considered": task_counters.considered,
                "emitted": task_counters.emitted,
            }
            for column, (_, _, task_counters, seconds, worker) in zip(
                columns or (), slices
            )
        )


def parallel_enumerate(
    table: Table,
    mode: str = "rules",
    config: EnumerationConfig = EnumerationConfig(),
    n_jobs: Optional[int] = None,
    backend: Optional[str] = None,
    recognizer=None,
    cache=None,
    pruning: Optional[PruningCounters] = None,
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
) -> Tuple[List[VisualizationNode], List[bool]]:
    """Enumerate, featurise and recognise candidates with a worker pool.

    Returns ``(nodes, valid_mask)`` where ``nodes`` is byte-identical to
    the serial enumeration order and ``valid_mask[i]`` is the
    recognition verdict for ``nodes[i]`` (trained classifier when
    ``recognizer`` is given, otherwise the expert ``M(v) > 0``
    criterion).

    ``pruning`` is an optional caller-owned
    :class:`~repro.core.rules.PruningCounters` accumulator: every
    worker's per-rule accounting merges into it (process workers ship
    their counters back with the result), so the pruning report is
    identical to a serial run.  ``metrics`` additionally records one
    ``enumeration_task_seconds{worker=...}`` latency sample per
    per-column task, and ``events`` (an
    :class:`~repro.obs.EventLog`) receives one ``enumerate_task`` phase
    event per per-column task, merged in input order — worker processes
    cannot share the parent's log handle, so their task records are
    gathered with the results and folded in deterministically.

    The multi-level ``cache`` is consulted only on the serial path —
    worker processes cannot share the parent's in-memory LRU, and
    shipping entries back would cost more than recomputing.
    """
    mode = _normalise_mode(mode)
    jobs = resolve_n_jobs(n_jobs if n_jobs is not None else config.n_jobs)
    backend = backend or config.backend
    columns = table.column_names
    jobs = min(jobs, max(1, len(columns)))

    if jobs <= 1:
        ctx = EnumerationContext(table, config, cache=cache)
        slices = [_column_slice(ctx, recognizer, mode, x) for x in columns]
        _absorb_task_stats(slices, pruning, metrics, events, columns)
        return _reassemble(slices)

    if backend == "thread":
        # One shared context: its memo dicts are only ever written with
        # values that are identical regardless of which thread computes
        # them first, so races cost duplicate work, never wrong answers.
        # (Pruning counters are per-task objects, so they never race.)
        from concurrent.futures import ThreadPoolExecutor

        ctx = EnumerationContext(table, config)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_column_slice, ctx, recognizer, mode, x)
                for x in columns
            ]
            slices = [future.result() for future in futures]
    elif backend == "process":
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_enum_worker,
            initargs=(table, config, recognizer),
        ) as pool:
            futures = [pool.submit(_enum_worker, mode, x) for x in columns]
            slices = [future.result() for future in futures]
    else:
        raise SelectionError(
            f"unknown parallel backend {backend!r}; use 'process' or 'thread'"
        )
    _absorb_task_stats(slices, pruning, metrics, events, columns)
    return _reassemble(slices)


# ----------------------------------------------------------------------
# Cross-table batch serving
# ----------------------------------------------------------------------
def _init_batch_worker(
    engine, k: int, capture_events: bool, capture_spans: bool = False
) -> None:
    import dataclasses

    # Workers run one table each; nested pools would only thrash a
    # machine that is already fully subscribed at the table level.
    engine.config = dataclasses.replace(engine.config, n_jobs=1)
    _WORKER_STATE["engine"] = engine
    _WORKER_STATE["k"] = k
    _WORKER_STATE["capture_events"] = capture_events
    _WORKER_STATE["capture_spans"] = capture_spans


def _timed_top_k(
    engine,
    table: Table,
    k: int,
    capture_events: bool = False,
    request_id: Optional[str] = None,
    capture_spans: bool = False,
):
    """One table through the engine, with worker-side latency capture —
    queue wait is excluded, so the histogram measures true task time.

    With ``capture_events`` the table's full per-request event stream is
    recorded into a private in-memory :class:`~repro.obs.EventLog`
    (workers cannot share the parent's file handle) and shipped back as
    plain dicts for the parent to merge in input order.  ``request_id``
    (minted by the batch driver) is re-entered as the task's request
    scope, so every worker-side record carries the id the parent will
    look the table up by.  ``capture_spans`` (process workers under a
    traced parent) records the task's span tree into a private
    :class:`~repro.obs.Tracer` and ships ``(spans, epoch_unix)`` back
    for :meth:`~repro.obs.Tracer.adopt`.
    """
    start = time.perf_counter()
    with request_scope(request_id):
        kwargs: dict = {}
        worker_log = None
        worker_tracer = None
        if capture_events:
            worker_log = EventLog()
            kwargs["events"] = worker_log
        if capture_spans:
            worker_tracer = Tracer()
            kwargs["tracer"] = worker_tracer
        if hasattr(engine, "top_k"):
            result = engine.top_k(table, k=k, record_slo=False, **kwargs)
        else:  # bare callable engines (tests)
            result = engine(table, k=k, **kwargs)
    worker_events = list(worker_log.events) if worker_log is not None else None
    worker_spans = (
        (list(worker_tracer.spans), worker_tracer.epoch_unix)
        if worker_tracer is not None
        else None
    )
    return (
        result,
        time.perf_counter() - start,
        _worker_label(),
        worker_events,
        worker_spans,
    )


def _batch_worker(table: Table, request_id: Optional[str] = None):
    return _timed_top_k(
        _WORKER_STATE["engine"],
        table,
        _WORKER_STATE["k"],
        _WORKER_STATE["capture_events"],
        request_id,
        _WORKER_STATE.get("capture_spans", False),
    )


def _record_batch_task(
    table: Table,
    seconds: float,
    worker: str,
    metrics: Optional[MetricsRegistry],
    slow_log: Optional[List[dict]],
    slow_threshold: float,
    events: Optional[EventLog] = None,
    worker_events: Optional[List[dict]] = None,
    request_id: Optional[str] = None,
    result=None,
    slo=None,
    tracer: Optional[Tracer] = None,
    worker_spans=None,
) -> None:
    if tracer is not None and worker_spans:
        spans, worker_epoch = worker_spans
        tracer.adopt(spans, worker_epoch, worker=worker)
    if events is not None:
        if worker_events:
            events.merge(worker_events)
        fields = dict(
            phase="batch_table", table=table.name,
            seconds=seconds, worker=worker,
        )
        if request_id is not None:
            fields["request_id"] = request_id
        events.emit("phase", **fields)
    if slo is not None:
        slo.record_latency("selection_latency", seconds)
        slo.record_outcome("selection_errors", True)
        if result is not None:
            slo.record_outcome(
                "cache_hit_rate",
                bool(getattr(result, "result_cache_hit", False)),
            )
    if metrics is not None:
        # Re-enter the table's scope so the sample carries its exemplar
        # even when the observation lands parent-side (process workers
        # increment their own pickled registry, which is discarded).
        with request_scope(request_id) if request_id else nullcontext():
            metrics.histogram(
                "batch_task_seconds",
                labels={"worker": worker},
                help=(
                    "Per-table top_k latency inside the batch pool, "
                    "per worker"
                ),
            ).observe(seconds)
    if seconds >= slow_threshold:
        if slow_log is not None:
            slow_log.append(
                {
                    "table": table.name,
                    "rows": table.num_rows,
                    "columns": table.num_columns,
                    "seconds": seconds,
                    "worker": worker,
                }
            )
        if metrics is not None:
            metrics.counter(
                "batch_slow_tables_total",
                help="Batch tables slower than the slow-table threshold",
            ).inc()


def _seed_batch_dedup(
    engine,
    tables: Sequence[Table],
    metrics: Optional[MetricsRegistry],
    events: Optional[EventLog],
) -> None:
    """Pre-seed the engine's transform cache with cross-table shared
    scans (see :func:`~repro.engine.shared_scan.batch_shared_transforms`).

    Runs in the parent before any fan-out, so the seeded entries reach
    every backend: serial and thread workers share the cache object,
    and process workers receive it inside the engine the pool
    initializer pickles.
    """
    from .shared_scan import batch_shared_transforms

    cache = getattr(engine, "cache", None)
    if cache is None or len(tables) < 2:
        return
    start = time.perf_counter()
    entries, stats = batch_shared_transforms(
        tables, engine.config, mode=getattr(engine, "enumeration", "rules")
    )
    for key, value in entries.items():
        if hasattr(cache, "store"):
            cache.store("transforms", key, value)
        else:  # duck-typed cache without a disk tier
            cache.transforms.put(key, value)
    if metrics is not None:
        stats.record_metrics(metrics)
    if events is not None:
        events.emit(
            "phase", phase="batch_dedup", tables=stats.tables,
            transforms_total=stats.transforms_total,
            computed=stats.computed, reused=stats.reused,
            seconds=time.perf_counter() - start,
        )


def batch_select(
    engine,
    tables: Iterable[Table],
    k: int = 10,
    n_jobs: Optional[int] = None,
    backend: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    slow_log: Optional[Union[List[dict], "SlowTableLog"]] = None,
    slow_threshold: float = DEFAULT_SLOW_TABLE_SECONDS,
    events: Optional[EventLog] = None,
    dedup: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
    slo=None,
) -> Iterator:
    """Serve a batch of tables through one trained engine, streaming
    :class:`~repro.core.selection.SelectionResult`s in input order.

    With the process backend the engine (models included) is pickled to
    each worker exactly once via the pool initializer; the thread
    backend shares it directly.  ``n_jobs`` defaults to the engine
    config's value; 1 degrades to a plain serial loop.

    Observability: with a ``metrics`` registry every table contributes a
    ``batch_task_seconds{worker=...}`` latency sample measured *inside*
    its worker (queue wait excluded); tables at or above
    ``slow_threshold`` seconds are appended to the caller-owned
    ``slow_log`` (a list or :class:`SlowTableLog`) as ``{table, rows,
    columns, seconds, worker}`` dicts and counted in
    ``batch_slow_tables_total`` — the slow-table log every serving stack
    wants when one pathological upload drags a batch.

    ``events`` records the batch's decision events: each table's full
    per-request stream is captured in a private worker-side log (process
    workers cannot share the parent's handle), merged back in input
    order, and followed by one ``batch_table`` phase event — so two runs
    of the same batch produce the same event sequence regardless of
    worker scheduling or backend.

    ``dedup`` controls cross-table computation sharing: before any
    fan-out, identical ``(column content, transform)`` pairs across the
    batch's tables are computed once and seeded into the engine's
    transform cache (the top-k is byte-identical — only repeat scans
    disappear).  Defaults to on whenever the engine has a cache; pass
    ``False`` to force every table to scan independently (the ablation
    baseline).

    Request correlation: the driver mints one request id per table *in
    the parent* and ships it to the task (process workers re-enter the
    scope by id), so a table's worker-side spans/events and the
    parent-side ``batch_table`` record all agree — the join
    ``repro obs timeline --request <id>`` relies on.  ``tracer``
    additionally records a ``batch_select`` umbrella span and (process
    backend) adopts each worker's span tree onto its own timeline;
    ``slo`` (an :class:`~repro.obs.health.SLOMonitor`) receives one
    latency + error + cache-hit outcome per table.
    """
    tables = list(tables)
    jobs = resolve_n_jobs(
        n_jobs if n_jobs is not None else engine.config.n_jobs
    )
    backend = backend or engine.config.backend
    jobs = min(jobs, max(1, len(tables)))
    capture = events is not None
    request_ids = [new_request_id() for _ in tables]
    if dedup or (dedup is None and getattr(engine, "cache", None) is not None):
        _seed_batch_dedup(engine, tables, metrics, events)

    with maybe_span(
        tracer, "batch_select", tables=len(tables), n_jobs=jobs,
        backend=backend if jobs > 1 else "serial",
    ):
        if jobs <= 1:
            for table, rid in zip(tables, request_ids):
                result, seconds, worker, worker_events, worker_spans = (
                    _timed_top_k(engine, table, k, capture, rid)
                )
                _record_batch_task(
                    table, seconds, worker, metrics, slow_log,
                    slow_threshold, events, worker_events, rid,
                    result=result, slo=slo,
                )
                yield result
            return

        if backend == "thread":
            # Threads share the parent tracer: engine.top_k records
            # spans straight onto it (per-thread stacks), so no span
            # capture/adoption round-trip is needed.
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(_timed_top_k, engine, t, k, capture, rid)
                    for t, rid in zip(tables, request_ids)
                ]
                for table, rid, future in zip(
                    tables, request_ids, futures
                ):
                    result, seconds, worker, worker_events, worker_spans = (
                        future.result()
                    )
                    _record_batch_task(
                        table, seconds, worker, metrics, slow_log,
                        slow_threshold, events, worker_events, rid,
                        result=result, slo=slo,
                    )
                    yield result
        elif backend == "process":
            from concurrent.futures import ProcessPoolExecutor

            capture_spans = tracer is not None
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_init_batch_worker,
                initargs=(engine, k, capture, capture_spans),
            ) as pool:
                futures = [
                    pool.submit(_batch_worker, t, rid)
                    for t, rid in zip(tables, request_ids)
                ]
                for table, rid, future in zip(
                    tables, request_ids, futures
                ):
                    result, seconds, worker, worker_events, worker_spans = (
                        future.result()
                    )
                    _record_batch_task(
                        table, seconds, worker, metrics, slow_log,
                        slow_threshold, events, worker_events, rid,
                        result=result, slo=slo,
                        tracer=tracer, worker_spans=worker_spans,
                    )
                    yield result
        else:
            raise SelectionError(
                f"unknown parallel backend {backend!r}; use 'process' "
                f"or 'thread'"
            )
