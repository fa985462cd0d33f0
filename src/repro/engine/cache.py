"""Multi-level serving cache for repeated top-k selection.

Serving traffic is repetitive: the same table is re-visualized with
different ``k``'s, re-ranked after retraining, or re-requested verbatim
by many users.  This module provides the three cache levels the serving
engine shares across those calls, all keyed on a stable *content*
fingerprint of the table (:meth:`repro.dataset.table.Table.fingerprint`)
so renames of the table object, re-parsed CSVs, and duplicated corpora
all hit the same entries:

* **transform level** — ``(fingerprint, transform)`` -> the compact
  :class:`~repro.language.binning.TransformResult` (distinct-bucket
  labels/keys/values arrays + per-row assignment; its lazily-built
  ``Bucket`` views are dropped on pickling), the most expensive part of
  candidate enumeration;
* **feature level** — ``(fingerprint, query signature)`` -> the measured
  :class:`~repro.core.features.FeatureVector` of one candidate chart;
* **result level** — ``(fingerprint, selection signature)`` -> the full
  :class:`~repro.core.selection.SelectionResult`, so a verbatim repeat
  of a ``top_k`` call is a single dictionary lookup.

Every level is an :class:`LRUCache` with hit/miss/eviction counters;
:meth:`MultiLevelCache.stats_by_level` exposes them per level (plus an
``aggregate`` rollup) — selection flattens that view into the
``cache_stats`` dict it attaches to results.  The flat
:meth:`MultiLevelCache.stats` form is deprecated.

An optional fourth level persists across process lifetimes: pass a
:class:`~repro.engine.persistent.DiskCacheTier` as ``disk`` and the
:meth:`MultiLevelCache.fetch` / :meth:`MultiLevelCache.store` pair
consult it behind the in-memory levels — a miss in memory falls through
to disk (promoting the entry on a hit), and a store writes through, so
a fresh process inherits everything the previous fleet computed.

This module deliberately imports nothing from :mod:`repro.core` (the
enumeration context takes a cache by duck type), so it can be loaded
from either side of the engine/core boundary without cycles.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, Optional

__all__ = ["LRUCache", "MultiLevelCache"]

#: Distinguishes "stored None" from "absent" in tiered lookups.
_SENTINEL = object()


class LRUCache:
    """A thread-safe least-recently-used cache with usage counters.

    Parameters
    ----------
    maxsize:
        Maximum number of entries; inserting beyond it evicts the least
        recently used entry.  ``maxsize <= 0`` disables storage (every
        lookup misses), which keeps call sites branch-free when a level
        is turned off.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # -- mapping protocol ----------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, counting a hit or a miss."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the LRU entry when full."""
        if self.maxsize <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(list(self._data))

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> Dict[str, int]:
        """``{hits, misses, evictions, size}`` of this level (a
        consistent snapshot: taken under the same lock the counters
        mutate under, so a concurrent ``get`` never yields a torn
        hits/misses pair)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
            }

    # -- pickling (locks cannot cross process boundaries) ---------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(maxsize={self.maxsize}, size={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


class MultiLevelCache:
    """The three serving-cache levels bundled behind one handle.

    Attributes
    ----------
    transforms:
        ``(fingerprint, transform)`` -> compact
        :class:`~repro.language.binning.TransformResult`.
    features:
        ``(fingerprint, query signature)`` -> feature vector.
    results:
        ``(fingerprint, selection signature)`` -> full selection result.
    disk:
        Optional :class:`~repro.engine.persistent.DiskCacheTier` (L4)
        consulted by :meth:`fetch` behind the in-memory levels and
        written through by :meth:`store`.

    The ``fingerprint`` component of every key is
    ``Table.cache_fingerprint()``: the pure content hash for in-memory
    tables (all pre-existing entries unchanged), prefixed with a source
    scope for source-backed tables — ``sqlpush:`` for sqlite
    pushdown-backed tables (SQL aggregation has a different float
    summation order) and ``stream-<digest>:`` for reservoir-sample
    tables (features come from full-stream sketches, not the sampled
    bytes).  Source+query thereby key all four levels with no change to
    the level machinery itself.
    """

    def __init__(
        self,
        transform_size: int = 1024,
        feature_size: int = 16384,
        result_size: int = 256,
        disk=None,
    ) -> None:
        self.transforms = LRUCache(transform_size)
        self.features = LRUCache(feature_size)
        self.results = LRUCache(result_size)
        self.disk = disk

    def clear(self) -> None:
        """Invalidate every in-memory level (e.g. after retraining the
        models).  The disk tier, if any, is left intact — use
        ``cache.disk.clear()`` to reclaim it explicitly."""
        self.transforms.clear()
        self.features.clear()
        self.results.clear()

    #: The level names in lookup-cost order (cheapest reuse last).
    LEVELS = ("transforms", "features", "results")

    # -- tiered lookup (memory, then disk) ------------------------------
    def fetch(self, level: str, key: Hashable, default: Any = None) -> Any:
        """Look ``key`` up in ``level``, falling through to the disk
        tier on a memory miss.

        A disk hit is *promoted* into the in-memory level before being
        returned, so repeat traffic pays the file read once per process
        lifetime.  With no disk tier attached this is exactly
        ``getattr(self, level).get(key, default)``.
        """
        lru: LRUCache = getattr(self, level)
        value = lru.get(key, _SENTINEL)
        if value is not _SENTINEL:
            return value
        if self.disk is not None:
            hit = self.disk.get(level, key)
            if hit is not None:
                lru.put(key, hit)
                return hit
        return default

    def store(
        self, level: str, key: Hashable, value: Any, disk: bool = True
    ) -> None:
        """Insert into the in-memory ``level`` and (by default) write
        through to the disk tier.  ``disk=False`` keeps an entry
        process-local — used for values whose keys are not stable
        across processes (e.g. results keyed on live model object
        identity)."""
        getattr(self, level).put(key, value)
        if disk and self.disk is not None:
            self.disk.put(level, key, value)

    def prewarm(self, per_level: Optional[int] = None) -> Dict[str, int]:
        """Load the hottest disk entries into the in-memory levels (see
        :meth:`~repro.engine.persistent.DiskCacheTier.prewarm`); returns
        per-level loaded counts, ``{}`` when no disk tier is attached."""
        if self.disk is None:
            return {}
        return self.disk.prewarm(self, per_level=per_level)

    def level_sizes(self) -> Dict[str, int]:
        """Current entry count per in-memory level.

        The cheap live-depth probe the runtime sampler polls
        (:meth:`repro.obs.health.RuntimeSampler.register_queue`): three
        ``len()`` calls, no counter aggregation, safe to call from a
        background thread at any rate.
        """
        return {name: len(getattr(self, name)) for name in self.LEVELS}

    def stats_by_level(self) -> Dict[str, Dict[str, int]]:
        """Per-level counters plus an ``aggregate`` rollup.

        ``{"transforms": {hits, misses, evictions, size}, "features":
        {...}, "results": {...}, "aggregate": {...}}`` — the structured
        successor of the flat :meth:`stats` dict.  With a disk tier
        attached, a ``"disk"`` entry carries its counters (hits,
        misses, stores, evictions, errors, size, bytes); the
        ``aggregate`` rollup stays memory-only so its meaning is stable
        whether or not persistence is configured.
        """
        per_level: Dict[str, Dict[str, int]] = {
            name: getattr(self, name).stats() for name in self.LEVELS
        }
        aggregate: Dict[str, int] = {}
        for level_stats in per_level.values():
            for counter, value in level_stats.items():
                aggregate[counter] = aggregate.get(counter, 0) + value
        if self.disk is not None:
            per_level["disk"] = self.disk.stats()
        per_level["aggregate"] = aggregate
        return per_level

    def emit_events(self, events, table: Optional[str] = None) -> None:
        """Append one ``cache`` event with the per-level counters to an
        :class:`~repro.obs.EventLog` (duck-typed: anything with
        ``emit``).  ``table`` attributes the activity to a request's
        table in the aggregated report.

        The per-level dicts are namespaced under a single ``levels``
        field (schema v2) rather than spread at the top level, so a
        level name can never collide with event envelope fields like
        ``table``.
        """
        by_level = self.stats_by_level()
        levels = {
            name: stats
            for name, stats in by_level.items()
            if name != "aggregate"
        }
        fields: Dict[str, Any] = {"levels": levels}
        if table is not None:
            fields["table"] = table
        events.emit("cache", **fields)

    def record_metrics(self, registry) -> None:
        """Publish the per-level counters into an
        :class:`~repro.obs.MetricsRegistry` as labelled metrics.

        Hit/miss/eviction counts bridge into monotone counters
        (``cache_hits_total{level="results"}`` etc.); current entry
        counts land in the ``cache_entries`` gauge.  Safe to call
        repeatedly — counters only move forward.
        """
        for level_name in self.LEVELS:
            level: LRUCache = getattr(self, level_name)
            labels = {"level": level_name}
            registry.counter(
                "cache_hits_total", labels=labels,
                help="Serving-cache lookups served from this level",
            ).set_cumulative(level.hits)
            registry.counter(
                "cache_misses_total", labels=labels,
                help="Serving-cache lookups this level could not answer",
            ).set_cumulative(level.misses)
            registry.counter(
                "cache_evictions_total", labels=labels,
                help="LRU evictions from this level",
            ).set_cumulative(level.evictions)
            registry.gauge(
                "cache_entries", labels=labels,
                help="Entries currently resident in this level",
            ).set(len(level))
        if self.disk is not None:
            disk_stats = self.disk.stats()
            labels = {"level": "disk"}
            registry.counter(
                "cache_hits_total", labels=labels,
                help="Serving-cache lookups served from this level",
            ).set_cumulative(disk_stats["hits"])
            registry.counter(
                "cache_misses_total", labels=labels,
                help="Serving-cache lookups this level could not answer",
            ).set_cumulative(disk_stats["misses"])
            registry.counter(
                "cache_evictions_total", labels=labels,
                help="LRU evictions from this level",
            ).set_cumulative(disk_stats["evictions"])
            registry.counter(
                "cache_disk_stores_total", labels=labels,
                help="Entries written through to the disk tier",
            ).set_cumulative(disk_stats["stores"])
            registry.counter(
                "cache_disk_errors_total", labels=labels,
                help="Corrupt/unreadable disk entries degraded to misses",
            ).set_cumulative(disk_stats["errors"])
            registry.gauge(
                "cache_entries", labels=labels,
                help="Entries currently resident in this level",
            ).set(disk_stats["size"])
            registry.gauge(
                "cache_disk_bytes", labels=labels,
                help="Bytes occupied by the disk tier",
            ).set(disk_stats["bytes"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        disk = "" if self.disk is None else f", disk={self.disk.stats()['size']}"
        return (
            f"MultiLevelCache(transforms={len(self.transforms)}, "
            f"features={len(self.features)}, results={len(self.results)}"
            f"{disk})"
        )
