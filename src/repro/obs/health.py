"""SLO health monitoring: rolling objectives, burn rates, runtime vitals.

The metrics registry can say *what* the latency distribution looks
like; it cannot say whether the system is *healthy* — that requires an
objective ("99% of selections under 250ms over the last hour") and a
judgement against it.  This module supplies both halves of the serving
health story the ROADMAP's ``repro.serve`` front-end will consume:

* :class:`SLOMonitor` — a set of named :class:`SLO` objectives, each
  evaluated over several rolling windows at once.  Every request
  outcome is recorded as (timestamp, good/bad) into a per-second
  ``(total, good)`` bucket; compliance per window is the good
  fraction, and the **burn rate** is how fast the error
  budget is being spent: ``burn = (1 - compliance) / (1 - target)``,
  so burn 1.0 exactly exhausts the budget over the objective period
  and burn 14 is a page.  An alert fires only when *every* configured
  window burns past its threshold — the multi-window multi-burn-rate
  rule that keeps one slow request from paging while still catching
  sustained regressions fast.  Each window keeps a running sum that
  buckets enter on record and leave as they age out, so recording and
  judging cost O(windows) however heavy the traffic, and an
  objective's memory is bounded by its longest window in seconds, not
  by request count.  Window membership therefore resolves to whole
  seconds: an outcome at ``t`` counts while ``floor(t) >= now -
  window``.
* :class:`RuntimeSampler` — a periodic daemon that samples process
  vitals (RSS from ``/proc/self/statm``, GC generation counts, live
  thread count, and any registered queue-depth callables) into the
  existing :class:`~repro.obs.metrics.MetricsRegistry` as gauges, so
  the fleet view carries memory/GC pressure next to request latency.

Latency objectives take a threshold (`good` = observation ≤
threshold); error and cache-hit objectives take booleans.  Everything
is wall-clock driven but injectable (``clock=``) so tests replay a
day of traffic in microseconds.

Pure stdlib; sibling imports only (:mod:`repro.obs.metrics` types are
duck-typed — any registry with ``gauge()`` works).
"""

from __future__ import annotations

import gc
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SLO",
    "SLOStatus",
    "SLOMonitor",
    "RuntimeSampler",
    "read_rss_bytes",
    "DEFAULT_WINDOWS",
]

#: Default rolling windows (seconds) with their burn-rate alert
#: thresholds: a fast 5-minute window catching sharp regressions and a
#: slow 1-hour window requiring them to be sustained.  Both must burn
#: for an alert — the Google SRE multi-window pairing, scaled down to
#: the short-lived batch processes this repo runs today.
DEFAULT_WINDOWS: Tuple[Tuple[float, float], ...] = (
    (300.0, 14.0),
    (3600.0, 6.0),
)


@dataclass(frozen=True)
class SLO:
    """One objective: a name, a target good-fraction, and what "good"
    means.

    ``kind`` selects the record API: ``latency`` objectives judge
    observations against ``threshold`` (seconds); ``ratio`` objectives
    (errors, cache hits) are told good/bad directly.
    """

    name: str
    target: float
    kind: str = "ratio"
    threshold: Optional[float] = None
    description: str = ""
    windows: Tuple[Tuple[float, float], ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency" and self.threshold is None:
            raise ValueError("latency SLOs require a threshold")
        if not self.windows:
            raise ValueError("at least one window is required")


@dataclass
class SLOStatus:
    """One objective's judgement at a point in time."""

    name: str
    target: float
    total: int
    good: int
    #: per-window ``{window_seconds: {"compliance", "burn_rate",
    #: "total", "good", "threshold"}}``
    windows: Dict[float, Dict[str, float]] = field(default_factory=dict)
    alerting: bool = False

    @property
    def compliance(self) -> float:
        """All-time good fraction (1.0 when nothing recorded yet)."""
        return self.good / self.total if self.total else 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "target": self.target,
            "total": self.total,
            "good": self.good,
            "compliance": self.compliance,
            "alerting": self.alerting,
            "windows": {
                str(window): dict(stats)
                for window, stats in self.windows.items()
            },
        }


#: Width of one outcome bucket, in seconds: the resolution of window
#: membership.
BUCKET_SECONDS = 1


class _Objective:
    """Mutable tracking state behind one :class:`SLO`.

    Outcomes land in per-second ``[second, total, good]`` buckets,
    oldest first, holding only seconds that saw traffic; a bucket is
    dropped once the longest window has passed it, so at most
    ``floor(longest window) + 1`` buckets are ever held.  Each window
    keeps a running ``[first, total, good]``: the absolute index of its
    oldest bucket (``dropped`` buckets precede ``buckets[0]``) and its
    sums, moved as buckets enter and age out.  ``record`` and
    ``status`` therefore cost O(windows) amortised, and nothing is
    copied.  A clock step backwards lands in the newest bucket.
    """

    __slots__ = ("slo", "buckets", "dropped", "sums", "total", "good",
                 "lock")

    def __init__(self, slo: SLO) -> None:
        self.slo = slo
        self.buckets: Deque[List[int]] = deque()
        self.dropped = 0
        self.sums: List[List[int]] = [[0, 0, 0] for _ in slo.windows]
        self.total = 0
        self.good = 0
        self.lock = threading.Lock()

    def record(self, now: float, is_good: bool) -> None:
        second = math.floor(now / BUCKET_SECONDS) * BUCKET_SECONDS
        good = int(is_good)
        with self.lock:
            self.total += 1
            self.good += good
            buckets = self.buckets
            if not buckets or buckets[-1][0] < second:
                buckets.append([second, 0, 0])
            bucket = buckets[-1]
            bucket[1] += 1
            bucket[2] += good
            newest = self.dropped + len(buckets) - 1
            for sums in self.sums:
                if sums[0] <= newest:  # the bucket is inside this window
                    sums[1] += 1
                    sums[2] += good
            self._expire(now)

    def _expire(self, now: float) -> None:
        """Age buckets out of each window, then drop those every window
        has passed (caller holds ``lock``)."""
        buckets = self.buckets
        end = self.dropped + len(buckets)
        for (window, _), sums in zip(self.slo.windows, self.sums):
            cutoff = now - window
            first, total, good = sums
            while first < end:
                second, b_total, b_good = buckets[first - self.dropped]
                if second >= cutoff:
                    break
                total -= b_total
                good -= b_good
                first += 1
            sums[:] = (first, total, good)
        oldest = min(sums[0] for sums in self.sums)
        while self.dropped < oldest:
            buckets.popleft()
            self.dropped += 1

    def status(self, now: float) -> SLOStatus:
        slo = self.slo
        with self.lock:
            self._expire(now)
            windows = [(total, good) for _, total, good in self.sums]
            total, good = self.total, self.good
        status = SLOStatus(
            name=slo.name, target=slo.target, total=total, good=good
        )
        budget = 1.0 - slo.target
        all_burning = True
        for (window, burn_threshold), (window_total, window_good) in zip(
            slo.windows, windows
        ):
            compliance = (
                window_good / window_total if window_total else 1.0
            )
            burn = (1.0 - compliance) / budget
            status.windows[window] = {
                "total": float(window_total),
                "good": float(window_good),
                "compliance": compliance,
                "burn_rate": burn,
                "threshold": burn_threshold,
            }
            if window_total == 0 or burn < burn_threshold:
                all_burning = False
        status.alerting = all_burning
        return status


class SLOMonitor:
    """A registry of SLOs fed by request outcomes.

    Attach one to a pipeline (``DeepEye(slo=...)``) and the selection
    and batch layers feed it automatically; or feed it directly with
    :meth:`record_latency` / :meth:`record_outcome`.  ``on_alert``
    callbacks fire on the *transition* into the alerting state (not on
    every burning observation), receiving the :class:`SLOStatus`.

    The three conventional objectives the pipeline wires up are
    available via :meth:`with_default_objectives`:
    ``selection_latency`` (p-good under ``latency_threshold``),
    ``selection_errors`` (good = no exception), and ``cache_hit_rate``
    (good = result served from any cache level).
    """

    def __init__(
        self,
        objectives: Sequence[SLO] = (),
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._clock = clock
        self._objectives: Dict[str, _Objective] = {}
        self._alerting: Dict[str, bool] = {}
        self._callbacks: List[Callable[[SLOStatus], None]] = []
        self._lock = threading.Lock()
        for slo in objectives:
            self.add(slo)

    @classmethod
    def with_default_objectives(
        cls,
        latency_threshold: float = 0.25,
        latency_target: float = 0.99,
        error_target: float = 0.999,
        cache_hit_target: float = 0.5,
        clock: Callable[[], float] = time.time,
    ) -> "SLOMonitor":
        return cls(
            objectives=(
                SLO(
                    name="selection_latency",
                    target=latency_target,
                    kind="latency",
                    threshold=latency_threshold,
                    description=(
                        f"{latency_target:.1%} of selections complete "
                        f"within {latency_threshold * 1000:.0f}ms"
                    ),
                ),
                SLO(
                    name="selection_errors",
                    target=error_target,
                    kind="ratio",
                    description=(
                        f"{error_target:.2%} of selections succeed"
                    ),
                ),
                SLO(
                    name="cache_hit_rate",
                    target=cache_hit_target,
                    kind="ratio",
                    description=(
                        f"{cache_hit_target:.0%} of selections are "
                        "served from cache"
                    ),
                ),
            ),
            clock=clock,
        )

    def add(self, slo: SLO) -> SLO:
        with self._lock:
            if slo.name in self._objectives:
                raise ValueError(f"duplicate SLO {slo.name!r}")
            self._objectives[slo.name] = _Objective(slo)
            self._alerting[slo.name] = False
        return slo

    def on_alert(self, callback: Callable[[SLOStatus], None]) -> None:
        """Register a callback fired when an objective *starts* alerting."""
        self._callbacks.append(callback)

    @property
    def names(self) -> List[str]:
        with self._lock:
            return list(self._objectives)

    # -- recording -------------------------------------------------------
    def _objective(self, name: str) -> Optional[_Objective]:
        with self._lock:
            return self._objectives.get(name)

    def record_latency(self, name: str, seconds: float) -> None:
        """Judge one latency observation against the named objective's
        threshold; unknown names are ignored (monitors are optional)."""
        objective = self._objective(name)
        if objective is None:
            return
        threshold = objective.slo.threshold
        self._record(objective, seconds <= threshold)

    def record_outcome(self, name: str, is_good: bool) -> None:
        """Record a boolean outcome for a ratio objective."""
        objective = self._objective(name)
        if objective is None:
            return
        self._record(objective, bool(is_good))

    def _record(self, objective: _Objective, is_good: bool) -> None:
        now = self._clock()
        objective.record(now, is_good)
        status = objective.status(now)
        name = objective.slo.name
        with self._lock:
            was_alerting = self._alerting[name]
            self._alerting[name] = status.alerting
        if status.alerting and not was_alerting:
            for callback in list(self._callbacks):
                callback(status)

    # -- reading ---------------------------------------------------------
    def status(self, name: str) -> SLOStatus:
        objective = self._objective(name)
        if objective is None:
            raise KeyError(name)
        return objective.status(self._clock())

    def snapshot(self) -> Dict[str, Any]:
        """All objectives' judgements, JSON-ready (the ``repro obs
        report`` health block and the serving admission signal)."""
        now = self._clock()
        with self._lock:
            objectives = list(self._objectives.values())
        statuses = [objective.status(now) for objective in objectives]
        return {
            "healthy": not any(status.alerting for status in statuses),
            "objectives": {
                status.name: status.to_dict() for status in statuses
            },
        }

    def alerting(self) -> List[str]:
        """Names of objectives currently in the alerting state."""
        now = self._clock()
        with self._lock:
            objectives = list(self._objectives.values())
        return [
            objective.slo.name
            for objective in objectives
            if objective.status(now).alerting
        ]


# ----------------------------------------------------------------------
# Runtime vitals
# ----------------------------------------------------------------------
_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> Optional[int]:
    """Resident set size in bytes, from ``/proc/self/statm`` (second
    field, pages) with a ``resource.getrusage`` fallback; ``None`` when
    neither source exists."""
    try:
        with open("/proc/self/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; Linux is the
        # deployment target so KiB it is.
        return int(usage.ru_maxrss) * 1024
    except Exception:
        return None


class RuntimeSampler:
    """Periodic process-vitals sampler feeding a metrics registry.

    Each tick sets gauges on the registry: ``process_rss_bytes``,
    ``process_gc_gen{0,1,2}_objects``, ``process_threads``, and one
    ``queue_depth{queue="<name>"}`` gauge per registered depth callable
    (e.g. ``cache.level_sizes`` or a batch executor's pending count).
    ``sample_once()`` works without starting the thread — the CLI calls
    it before writing metrics so even fast one-shot commands report
    vitals.
    """

    def __init__(self, registry, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.registry = registry
        self.interval = float(interval)
        self._queues: Dict[str, Callable[[], Any]] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._lock = threading.Lock()
        self.samples_taken = 0

    def register_queue(self, name: str, depth: Callable[[], Any]) -> None:
        """Register a named depth provider.  The callable may return a
        number (one gauge) or a mapping (one gauge per key, labelled
        ``{queue=name, key=...}``)."""
        with self._lock:
            self._queues[name] = depth

    def sample_once(self) -> Dict[str, Any]:
        """Take one sample, update the registry, and return the values."""
        vitals: Dict[str, Any] = {}
        rss = read_rss_bytes()
        if rss is not None:
            vitals["process_rss_bytes"] = rss
            self.registry.gauge("process_rss_bytes").set(float(rss))
        counts = gc.get_count()
        for generation, count in enumerate(counts):
            name = f"process_gc_gen{generation}_objects"
            vitals[name] = count
            self.registry.gauge(name).set(float(count))
        threads = threading.active_count()
        vitals["process_threads"] = threads
        self.registry.gauge("process_threads").set(float(threads))
        with self._lock:
            queues = dict(self._queues)
        for queue_name, depth in queues.items():
            try:
                value = depth()
            except Exception:
                continue
            if isinstance(value, Mapping):
                for key, depth_value in value.items():
                    gauge = self.registry.gauge(
                        "queue_depth",
                        labels={"queue": queue_name, "key": str(key)},
                    )
                    gauge.set(float(depth_value))
                    vitals[f"queue_depth:{queue_name}:{key}"] = depth_value
            else:
                self.registry.gauge(
                    "queue_depth", labels={"queue": queue_name}
                ).set(float(value))
                vitals[f"queue_depth:{queue_name}"] = value
        self.samples_taken += 1
        return vitals

    def start(self) -> "RuntimeSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already running")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-runtime-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "RuntimeSampler":
        if self._thread is None:
            return self
        self._stop_event.set()
        self._thread.join(timeout=max(1.0, 5 * self.interval))
        self._thread = None
        return self

    def __enter__(self) -> "RuntimeSampler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - vitals must not kill
                pass
