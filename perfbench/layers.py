"""Layer boundaries the traced run wraps, and the per-layer metrics.

``install_layer_patches`` registers one wrapper per public layer
function, patched where its caller looks the name up.  The counters
come from the program's own public accounting (return values such as
``PruningCounters`` and ``AppendReport``, and the end-of-run
``stats_by_level()`` / ``SqlitePushdown.stats()`` reads).

``PREDICTIONS`` is the layer-to-end-to-end map this benchmark was built
around: which end-to-end metric, on which workload, each layer metric
should move.  On every other workload the prediction is no change.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracing import Recorder

#: (layer metric prefix, end-to-end metrics it should move, workloads).
PREDICTIONS: List[Tuple[str, str, str]] = [
    ("dataset.ingest / inference / sketch / pushdown",
     "requests_per_s, latency_p50_s", "source_ingest"),
    ("dataset.fingerprint / append_rows",
     "latency_p50_s", "serve_warm, living_append"),
    ("language.transform / aggregate", "requests_per_s", "fleet_cold"),
    ("language.merge", "latency_p50_s", "living_append"),
    ("core.enumerate / rules / features / correlation / recognize / "
     "partial_order / ltr / rank",
     "requests_per_s, latency_p90_s", "fleet_cold"),
    ("core.select", "latency_p50_s", "serve_warm"),
    ("engine.cache / engine.disk",
     "latency_p50_s, latency_p90_s, peak_rss_mb", "serve_warm"),
    ("engine.incremental",
     "latency_p50_s, requests_per_s, setup_s", "living_append"),
    ("obs.events / metrics / slo", "latency_p50_s", "serve_warm"),
    ("bench.*", "(none: how far the breakdown can be trusted)", "all"),
]

#: Per-layer metrics in report order: (name, unit, better).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("dataset.ingest.s", "s", "lower"),
    ("dataset.ingest.rows", "count", "higher"),
    ("dataset.inference.s", "s", "lower"),
    ("dataset.sketch.s", "s", "lower"),
    ("dataset.pushdown.s", "s", "lower"),
    ("dataset.pushdown.calls", "count", "higher"),
    ("dataset.pushdown.served_ratio", "ratio", "higher"),
    ("dataset.fingerprint.s", "s", "lower"),
    ("dataset.append_rows.s", "s", "lower"),
    ("language.transform.calls", "count", "lower"),
    ("language.transform.s", "s", "lower"),
    ("language.aggregate.calls", "count", "lower"),
    ("language.aggregate.s", "s", "lower"),
    ("language.merge.calls", "count", "lower"),
    ("language.merge.s", "s", "lower"),
    ("core.enumerate.s", "s", "lower"),
    ("core.enumerate.candidates", "count", "lower"),
    ("core.rules.emitted_ratio", "ratio", "higher"),
    ("core.features.s", "s", "lower"),
    ("core.correlation.s", "s", "lower"),
    ("core.recognize.s", "s", "lower"),
    ("core.recognize.valid_ratio", "ratio", "higher"),
    ("core.partial_order.s", "s", "lower"),
    ("core.ltr.s", "s", "lower"),
    ("core.rank.s", "s", "lower"),
    ("core.select.s", "s", "lower"),
    ("engine.cache.fetch.calls", "count", "lower"),
    ("engine.cache.fetch.s", "s", "lower"),
    ("engine.cache.store.s", "s", "lower"),
    ("engine.cache.transforms.hit_ratio", "ratio", "higher"),
    ("engine.cache.features.hit_ratio", "ratio", "higher"),
    ("engine.cache.results.hit_ratio", "ratio", "higher"),
    ("engine.cache.evictions", "count", "lower"),
    ("engine.disk.get.s", "s", "lower"),
    ("engine.disk.put.s", "s", "lower"),
    ("engine.disk.hit_ratio", "ratio", "higher"),
    ("engine.disk.stats.calls", "count", "lower"),
    ("engine.disk.stats.s", "s", "lower"),
    ("engine.incremental.append.s", "s", "lower"),
    ("engine.incremental.rows_per_s", "1/s", "higher"),
    ("engine.incremental.read.s", "s", "lower"),
    ("obs.events.calls", "count", "lower"),
    ("obs.events.s", "s", "lower"),
    ("obs.metrics.s", "s", "lower"),
    ("obs.slo.s", "s", "lower"),
    ("bench.unattributed.s", "s", "lower"),
    ("bench.unattributed.share", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "higher"),
    ("bench.requests_per_s.untraced", "1/s", "higher"),
    ("bench.requests_per_s.traced", "1/s", "higher"),
    ("bench.traced_requests", "count", "higher"),
    ("bench.fixture_s", "s", "lower"),
]

#: Layer spans reported as ``<span>.s``: self seconds per traced request.
TIMED_SPANS = [
    "dataset.ingest", "dataset.inference", "dataset.sketch",
    "dataset.pushdown", "dataset.fingerprint", "dataset.append_rows",
    "language.transform", "language.aggregate", "language.merge",
    "core.enumerate", "core.features", "core.correlation", "core.recognize",
    "core.partial_order", "core.ltr", "core.rank", "core.select",
    "engine.cache.fetch", "engine.cache.store", "engine.disk.get",
    "engine.disk.put", "engine.disk.stats", "engine.incremental.append",
    "obs.events", "obs.metrics", "obs.slo",
]

#: Layer spans also reported as ``<span>.calls``: calls per traced request.
COUNTED_SPANS = [
    "dataset.pushdown", "language.transform", "language.aggregate",
    "language.merge", "engine.cache.fetch", "engine.disk.stats", "obs.events",
]


def _count_ingested(recorder: Recorder, table, args, kwargs) -> None:
    info = getattr(table, "source_info", None) or {}
    recorder.count("ingest.rows", float(info.get("rows_ingested", 0)))


def _count_candidates(recorder: Recorder, candidates, args, kwargs) -> None:
    recorder.count("enumerate.candidates", len(candidates))
    context = args[3] if len(args) > 3 else kwargs.get("context")
    pruning = getattr(context, "pruning", None)
    if pruning is not None:
        recorder.count("rules.considered", pruning.considered)
        recorder.count("rules.emitted", pruning.emitted)


def _count_valid(recorder: Recorder, valid, args, kwargs) -> None:
    recorder.count("recognize.in", len(args[0]))
    recorder.count("recognize.valid", len(valid))


def _count_appended(recorder: Recorder, report, args, kwargs) -> None:
    recorder.count("append.rows", report.appended_rows)


def install_layer_patches(recorder: Recorder) -> None:
    """Register every layer wrapper on ``recorder`` (not yet active)."""
    import repro.core.enumeration as enumeration
    import repro.core.pipeline as pipeline
    import repro.core.selection as selection
    import repro.dataset.sketches as sketches
    import repro.dataset.sources as sources
    import repro.dataset.table as table
    import repro.engine.incremental as incremental
    from repro.core.ltr import LearningToRankRanker
    from repro.core.partial_order import PartialOrderScorer
    from repro.engine.cache import MultiLevelCache
    from repro.engine.persistent import DiskCacheTier
    from repro.obs.events import EventLog
    from repro.obs.health import SLOMonitor

    patch = recorder.patch
    # dataset
    patch(sources, "from_source", "dataset.ingest", _count_ingested)
    patch(table, "build_column", "dataset.inference")
    patch(sketches, "build_column", "dataset.inference")
    patch(sketches.TableSketch, "add_rows", "dataset.sketch")
    patch(sketches.TableSketch, "finish", "dataset.sketch")
    patch(sources.SqlitePushdown, "serve", "dataset.pushdown")
    patch(table.Table, "fingerprint", "dataset.fingerprint")
    patch(table.Table, "append_rows", "dataset.append_rows")
    # language
    patch(enumeration, "apply_transform", "language.transform")
    patch(enumeration, "aggregate", "language.aggregate")
    patch(incremental, "merge_delta", "language.merge")
    # core
    patch(selection, "enumerate_candidates", "core.enumerate", _count_candidates)
    patch(incremental, "enumerate_candidates", "core.enumerate", _count_candidates)
    patch(enumeration.EnumerationContext, "_measure_features", "core.features")
    patch(enumeration, "correlation", "core.correlation")
    patch(selection, "_recognize_phase", "core.recognize", _count_valid)
    patch(PartialOrderScorer, "score", "core.partial_order")
    patch(LearningToRankRanker, "scores", "core.ltr")
    patch(selection, "_rank_phase", "core.rank")
    patch(selection, "select_top_k", "core.select")
    patch(pipeline, "select_top_k", "core.select")
    # engine
    patch(MultiLevelCache, "fetch", "engine.cache.fetch")
    patch(MultiLevelCache, "store", "engine.cache.store")
    patch(DiskCacheTier, "get", "engine.disk.get")
    patch(DiskCacheTier, "put", "engine.disk.put")
    patch(DiskCacheTier, "stats", "engine.disk.stats")
    patch(incremental.IncrementalSession, "append",
          "engine.incremental.append", _count_appended)
    # obs
    patch(EventLog, "emit", "obs.events")
    patch(EventLog, "begin_request", "obs.events")
    patch(selection, "_record_selection_metrics", "obs.metrics")
    patch(MultiLevelCache, "record_metrics", "obs.metrics")
    patch(SLOMonitor, "record_latency", "obs.slo")
    patch(SLOMonitor, "record_outcome", "obs.slo")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    recorder: Recorder,
    cache_levels: Dict[str, Dict[str, int]],
    disk_levels: Dict[str, Dict[str, int]],
    pushdown: Dict[str, float],
) -> Dict[str, float]:
    """Per-request layer metrics of one traced run.

    Times are summed self seconds and calls are call counts, both
    divided by the number of traced requests.  ``cache_levels`` is the
    ``stats_by_level()`` read of the serving cache(s) at the end of the
    run, ``disk_levels`` the disk tier's ``stats_by_level()``, and
    ``pushdown`` the summed ``SqlitePushdown.stats()`` served/fallback
    tallies.
    """
    roots = recorder.roots()
    requests = len(roots)
    seconds, calls = recorder.layer_totals()
    counts = recorder.counts
    out: Dict[str, float] = {}
    for span in TIMED_SPANS:
        out[f"{span}.s"] = _ratio(seconds.get(span, 0.0), requests)
    for span in COUNTED_SPANS:
        out[f"{span}.calls"] = _ratio(calls.get(span, 0), requests)
    out["dataset.ingest.rows"] = _ratio(counts["ingest.rows"], requests)
    out["dataset.pushdown.served_ratio"] = _ratio(
        pushdown.get("served", 0),
        pushdown.get("served", 0) + pushdown.get("fallbacks", 0),
    )
    out["core.enumerate.candidates"] = _ratio(
        counts["enumerate.candidates"], requests
    )
    out["core.rules.emitted_ratio"] = _ratio(
        counts["rules.emitted"], counts["rules.considered"]
    )
    out["core.recognize.valid_ratio"] = _ratio(
        counts["recognize.valid"], counts["recognize.in"]
    )
    for level in ("transforms", "features", "results"):
        stats = cache_levels.get(level, {})
        out[f"engine.cache.{level}.hit_ratio"] = _ratio(
            stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0)
        )
    out["engine.cache.evictions"] = float(
        sum(cache_levels.get(level, {}).get("evictions", 0)
            for level in ("transforms", "features", "results"))
    )
    disk_hits = sum(level.get("hits", 0) for level in disk_levels.values())
    disk_misses = sum(level.get("misses", 0) for level in disk_levels.values())
    out["engine.disk.hit_ratio"] = _ratio(disk_hits, disk_hits + disk_misses)
    append_seconds = sum(
        s.duration for s in recorder.spans
        if s.name == "engine.incremental.append"
    )
    out["engine.incremental.rows_per_s"] = _ratio(
        counts["append.rows"], append_seconds
    )
    reads = recorder.roots("read")
    out["engine.incremental.read.s"] = _ratio(
        sum(s.duration for s in reads), len(reads)
    )
    # The request roots' own self time: wall time no layer span covers.
    root_self = seconds.get("bench.request", 0.0)
    wall = sum(s.duration for s in roots)
    out["bench.unattributed.s"] = _ratio(root_self, requests)
    out["bench.unattributed.share"] = _ratio(root_self, wall)
    out["bench.traced_requests"] = float(requests)
    return out

