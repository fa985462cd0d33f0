"""Per-kernel work accounting for the columnar transform layer.

The enumeration hot path bottoms out in a handful of *kernels* — the
vectorized transform operators (``bin_temporal``, ``bin_numeric``,
``bin_udf``, ``group_categorical``) and the aggregation scans
(``count_scan``, ``y_scan``).  A :class:`KernelStats` ledger accumulates
per kernel name the calls, rows consumed, buckets produced, and
wall-clock seconds, cheaply enough to stay always-on (one lock + four
float adds per kernel invocation, orders of magnitude below the kernel
work itself — the same bargain as the enumeration layer's
``PruningCounters``).

Every kernel reports through :meth:`KernelStats.record` on
:data:`KERNEL_STATS`, the process totals, which also accounts the call
in the ledger of the request running it (:data:`REQUEST_LEDGER`, bound
by the request's :class:`~repro.obs.context.Observer`), so concurrent
requests never see each other's kernel work.  A request's ledger feeds
its phase spans' ``kernel.<name>.calls`` / ``.seconds`` attributes, one
``kernel_seconds{kernel=...}`` histogram sample per call (bounds
:data:`KERNEL_SECONDS_BUCKETS`, tuned for the microsecond-to-millisecond
range a single columnar pass occupies), and its registry's
``kernel_*_total`` counters (:meth:`KernelStats.record_metrics`).

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of :mod:`repro`; the kernels in :mod:`repro.language.binning`
import *it*, never the other way around.  Process-pool workers carry
their own per-process ledger — cross-process totals are only merged for
counters that already travel with results (cache stats, pruning
counters); kernel seconds from process workers stay worker-local.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Dict, Optional, Tuple

__all__ = ["KERNEL_SECONDS_BUCKETS", "KernelStats", "KERNEL_STATS"]

#: Histogram upper bounds (seconds) for one kernel invocation.  A single
#: columnar pass over 10^3..10^6 rows lands between ~1 µs and ~100 ms —
#: far below :data:`repro.obs.metrics.DEFAULT_LATENCY_BUCKETS`, which is
#: tuned for whole pipeline phases.
KERNEL_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1.0,
)

#: The counters tracked per kernel, in reporting order.
_FIELDS = ("calls", "rows", "buckets", "seconds")

_HELP = {
    "calls": "Columnar kernel invocations",
    "rows": "Rows consumed by columnar kernels",
    "buckets": "Distinct buckets produced by columnar kernels",
    "seconds": "Wall-clock seconds spent inside columnar kernels",
}


class KernelStats:
    """Thread-safe per-kernel ledger of calls / rows / buckets / seconds;
    a request's ``registry`` also gets one ``kernel_seconds`` sample per
    call."""

    def __init__(self, registry=None) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[str, Dict[str, float]] = {}
        self._registry = registry

    # -- recording ------------------------------------------------------
    def record(
        self, kernel: str, rows: int, buckets: int, seconds: float
    ) -> None:
        """Account one kernel invocation here and in the running
        request's ledger."""
        self._add(kernel, rows, buckets, seconds)
        ledger = REQUEST_LEDGER.get()
        if ledger is not None:
            ledger._add(kernel, rows, buckets, seconds)

    def _add(self, kernel: str, rows: int, buckets: int, seconds: float) -> None:
        with self._lock:
            entry = self._totals.get(kernel)
            if entry is None:
                entry = dict.fromkeys(_FIELDS, 0.0)
                self._totals[kernel] = entry
            entry["calls"] += 1
            entry["rows"] += rows
            entry["buckets"] += buckets
            entry["seconds"] += seconds
        if self._registry is not None:
            self._registry.histogram(
                "kernel_seconds",
                labels={"kernel": kernel},
                buckets=KERNEL_SECONDS_BUCKETS,
                help="Wall-clock of one columnar kernel invocation",
            ).observe(seconds)

    # -- reading --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Deep copy of the cumulative per-kernel totals."""
        with self._lock:
            return {kernel: dict(entry) for kernel, entry in self._totals.items()}

    def delta_since(
        self, before: Dict[str, Dict[str, float]]
    ) -> Dict[str, Dict[str, float]]:
        """Per-kernel difference between now and an earlier ``snapshot()``,
        dropping kernels that did no work in the window."""
        delta: Dict[str, Dict[str, float]] = {}
        for kernel, entry in self.snapshot().items():
            base = before.get(kernel, {})
            diff = {
                field: entry[field] - base.get(field, 0.0) for field in _FIELDS
            }
            if diff["calls"] > 0:
                delta[kernel] = diff
        return delta

    def calls(self, *kernels: str) -> int:
        """Total invocation count across the named kernels (all when empty)."""
        with self._lock:
            names = kernels or tuple(self._totals)
            return int(
                sum(self._totals[k]["calls"] for k in names if k in self._totals)
            )

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        with self._lock:
            self._totals.clear()

    # -- bridging -------------------------------------------------------
    def record_metrics(self, registry) -> None:
        """Add this ledger's totals to ``registry``'s ``kernel_*_total``
        counters (once per ledger: a request's publishes its own work)."""
        for kernel, entry in self.snapshot().items():
            for field in _FIELDS:
                registry.counter(
                    f"kernel_{field}_total", labels={"kernel": kernel},
                    help=_HELP[field],
                ).inc(entry[field])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            kernels = ", ".join(
                f"{k}={int(v['calls'])}" for k, v in sorted(self._totals.items())
            )
        return f"KernelStats({kernels})"


#: The running request's ledger, bound by its Observer (or ``None``).
REQUEST_LEDGER: contextvars.ContextVar[Optional[KernelStats]] = (
    contextvars.ContextVar("repro_request_kernels", default=None)
)

#: The process-wide ledger every kernel reports into (and through which
#: each call reaches its request's ledger).
KERNEL_STATS = KernelStats()
