"""Process-global metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe collection of named
instruments, optionally labelled (Prometheus-style)::

    registry = MetricsRegistry()
    registry.counter("cache_hits_total", labels={"level": "results"}).inc()
    registry.histogram("selection_phase_seconds",
                       labels={"phase": "enumerate"}).observe(0.012)
    print(registry.to_prometheus_text())

Histograms use fixed upper-bound buckets (cumulative, with an implicit
``+Inf`` overflow) and derive p50/p90/p99 summaries by linear
interpolation inside the covering bucket, clamped to the exact observed
min/max.  Exporters: :meth:`MetricsRegistry.to_prometheus_text` (the
text exposition format) and :meth:`MetricsRegistry.to_json`;
:func:`parse_prometheus_text` round-trips the former for tests and
scrapers.

Counters and histograms capture **exemplars**: when an observation
happens inside a :func:`~repro.obs.context.request_scope`, the last
observation's value, timestamp, and request id are remembered and
exported on an OpenMetrics-style suffix (``... # {request_id="..."}
value ts``) — the join key that lets ``repro obs timeline`` tie a
fleet-level histogram back to one concrete request.
:func:`parse_exemplars` reads them back.

``global_registry()`` returns the shared process-wide registry used
when instrumentation is enabled without an explicit registry.  Pure
stdlib; no Prometheus client dependency.
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .context import current_request_id

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "parse_prometheus_text",
    "parse_exemplars",
]

#: Upper bounds (seconds) tuned for the selection pipeline's latency
#: range: sub-millisecond cache hits up to multi-second exhaustive runs.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _capture_exemplar(value: float) -> Optional[Dict[str, Any]]:
    """The exemplar for one observation, or ``None`` outside a request
    scope (unscoped observations never overwrite a correlated one)."""
    request_id = current_request_id()
    if request_id is None:
        return None
    return {"request_id": request_id, "value": value, "ts": time.time()}


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value", "exemplar", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self.exemplar: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        exemplar = _capture_exemplar(amount)
        with self._lock:
            self.value += amount
            if exemplar is not None:
                self.exemplar = exemplar

    def set_cumulative(self, value: float) -> None:
        """Bridge an externally maintained cumulative total into this
        counter (e.g. an LRU cache's lifetime hit count).  The counter
        only ever moves forward: values below the current one are
        ignored, so repeated syncs stay monotone."""
        with self._lock:
            if value > self.value:
                self.value = value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max tracking.

    ``buckets`` are ascending finite upper bounds; observations land in
    the first bucket whose bound is >= the value, or the implicit
    ``+Inf`` overflow bucket.  Percentiles interpolate linearly within
    the covering bucket and clamp to the observed min/max, so they are
    exact at the bucket boundaries and never invent values outside the
    observed range.
    """

    __slots__ = (
        "buckets", "counts", "sum", "count", "min", "max",
        "exemplars", "_lock",
    )

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or any(not math.isfinite(b) for b in bounds):
            raise ValueError(
                f"histogram buckets must be ascending finite bounds, got {buckets!r}"
            )
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        #: last request-correlated observation per bucket index
        self.exemplars: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        exemplar = _capture_exemplar(value)
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if exemplar is not None:
                self.exemplars[index] = exemplar

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) from the buckets.

        NaN when empty.  Within the covering bucket the estimate
        interpolates linearly; observations in the overflow bucket are
        represented by the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return math.nan
            rank = q * self.count
            cumulative = 0
            for i, bucket_count in enumerate(self.counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    if i == len(self.buckets):
                        return self.max
                    lower = self.buckets[i - 1] if i > 0 else min(self.min, self.buckets[i])
                    upper = self.buckets[i]
                    fraction = (rank - cumulative) / bucket_count
                    estimate = lower + (upper - lower) * fraction
                    return min(max(estimate, self.min), self.max)
                cumulative += bucket_count
            return self.max

    def summary(self) -> Dict[str, float]:
        """``{count, sum, min, max, p50, p90, p99}`` of the distribution."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "buckets", "instruments")

    def __init__(self, name: str, kind: str, help_text: str, buckets) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.instruments: Dict[LabelItems, Any] = {}


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _label_items(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(items: LabelItems, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(items)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_exemplar(exemplar: Optional[Dict[str, Any]]) -> str:
    """The OpenMetrics exemplar suffix, or ``""`` when absent."""
    if not exemplar:
        return ""
    labels = _format_labels(
        (("request_id", str(exemplar["request_id"])),)
    )
    return (
        f" # {labels} {_format_value(exemplar['value'])}"
        f" {repr(float(exemplar['ts']))}"
    )


class MetricsRegistry:
    """A named, labelled collection of counters, gauges, and histograms.

    Instruments are get-or-create: calling :meth:`counter` twice with
    the same name and labels returns the same object, so call sites can
    stay stateless.  A name is permanently bound to its first kind —
    registering it again as a different kind raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str, buckets=None) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, buckets)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"not {kind}"
                )
            return family

    def _instrument(
        self,
        name: str,
        kind: str,
        labels: Optional[Dict[str, str]],
        help_text: str,
        create,
        buckets=None,
    ):
        """Get or create one instrument of ``kind``.

        An instrument that already exists is returned without validating
        the name or taking the lock: both dict reads are atomic, and an
        entry is stored only once complete, so a reader finds a whole
        instrument or none.  Creation (and the kind check, on a miss)
        runs under the lock.
        """
        key = _label_items(labels)
        family = self._families.get(name)
        if family is not None and family.kind == kind:
            instrument = family.instruments.get(key)
            if instrument is not None:
                return instrument
        family = self._family(
            name, kind, help_text, None if buckets is None else tuple(buckets)
        )
        with self._lock:
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = create(family)
                family.instruments[key] = instrument
            return instrument

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Counter:
        """Get or create the counter ``name`` for this label set."""
        return self._instrument(
            name, "counter", labels, help, lambda family: Counter()
        )

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        """Get or create the gauge ``name`` for this label set."""
        return self._instrument(
            name, "gauge", labels, help, lambda family: Gauge()
        )

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram ``name`` for this label set.

        ``buckets`` only takes effect on first registration of the name;
        later calls reuse the family's buckets.
        """
        return self._instrument(
            name, "histogram", labels, help,
            lambda family: Histogram(family.buckets), buckets,
        )

    # -- export ---------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """The text exposition format (the ``/metrics`` page body)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.instruments):
                instrument = family.instruments[key]
                if family.kind == "counter":
                    lines.append(
                        f"{family.name}{_format_labels(key)} "
                        f"{_format_value(instrument.value)}"
                        f"{_format_exemplar(instrument.exemplar)}"
                    )
                elif family.kind == "gauge":
                    lines.append(
                        f"{family.name}{_format_labels(key)} "
                        f"{_format_value(instrument.value)}"
                    )
                else:
                    cumulative = 0
                    for i, (bound, count) in enumerate(
                        zip(instrument.buckets, instrument.counts)
                    ):
                        cumulative += count
                        labels = _format_labels(
                            key, ("le", _format_value(bound))
                        )
                        lines.append(
                            f"{family.name}_bucket{labels} {cumulative}"
                            f"{_format_exemplar(instrument.exemplars.get(i))}"
                        )
                    labels = _format_labels(key, ("le", "+Inf"))
                    overflow = len(instrument.buckets)
                    lines.append(
                        f"{family.name}_bucket{labels} {instrument.count}"
                        f"{_format_exemplar(instrument.exemplars.get(overflow))}"
                    )
                    lines.append(
                        f"{family.name}_sum{_format_labels(key)} "
                        f"{_format_value(instrument.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(key)} "
                        f"{instrument.count}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, Any]:
        """JSON-friendly dump: per family, per label set, the value or
        histogram summary."""
        payload: Dict[str, Any] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            series = []
            for key, instrument in sorted(family.instruments.items()):
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind in ("counter", "gauge"):
                    entry["value"] = instrument.value
                else:
                    entry.update(instrument.summary())
                series.append(entry)
            payload[family.name] = {"type": family.kind, "series": series}
        return payload

    def reset(self) -> None:
        """Drop every registered family (mainly for tests)."""
        with self._lock:
            self._families.clear()


_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The shared process-wide registry."""
    return _GLOBAL_REGISTRY


# Labels must be matched non-greedily so an exemplar's own brace pair
# (the `# {request_id="..."} ...` tail) is never swallowed into the
# sample's label set.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*?)\})?\s+(?P<value>\S+)"
    r"(?:\s+#\s+\{(?P<exemplar_labels>.*?)\}"
    r"\s+(?P<exemplar_value>\S+)(?:\s+(?P<exemplar_ts>\S+))?)?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_labels(labels_text: str) -> LabelItems:
    return tuple(
        (k, v.encode().decode("unicode_escape"))
        for k, v in _LABEL_RE.findall(labels_text)
    )


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, LabelItems], float]:
    """Parse the exposition format back into ``{(name, labels): value}``.

    The inverse of :meth:`MetricsRegistry.to_prometheus_text` for the
    subset this module emits (used by the round-trip tests and simple
    scrapers).  ``+Inf``/``-Inf``/``NaN`` parse to their float values;
    exemplar suffixes are accepted and ignored (see
    :func:`parse_exemplars` for the exemplars themselves).
    """
    samples: Dict[Tuple[str, LabelItems], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable metrics line: {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        samples[(match.group("name"), tuple(sorted(labels)))] = float(
            match.group("value")
        )
    return samples


def parse_exemplars(text: str) -> List[Dict[str, Any]]:
    """The exemplars of an exposition page, as timeline-ready records.

    Each record: ``{"name", "labels", "request_id", "value", "ts"}`` —
    ``name``/``labels`` identify the series the exemplar annotates
    (``_bucket`` suffix and ``le`` label intact), ``value`` is the
    exemplar observation, ``ts`` its unix timestamp (0.0 when the line
    carried none).
    """
    exemplars: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None or match.group("exemplar_value") is None:
            continue
        exemplar_labels = dict(
            _parse_labels(match.group("exemplar_labels") or "")
        )
        exemplars.append(
            {
                "name": match.group("name"),
                "labels": dict(_parse_labels(match.group("labels") or "")),
                "request_id": exemplar_labels.get("request_id"),
                "value": float(match.group("exemplar_value")),
                "ts": float(match.group("exemplar_ts") or 0.0),
            }
        )
    return exemplars
