"""End-to-end visualization selection (Sections IV-C, V-B, VI-D).

:func:`select_top_k` composes the pipeline the paper benchmarks:

1. *enumerate* candidates — exhaustive (**E**) or rule-based (**R**);
2. optionally *recognise* — keep only charts a trained classifier deems
   good (skipped when no recognizer is supplied; rules already filter a
   lot in R mode);
3. *rank* — partial order (**P**: factor scoring, dominance graph,
   weight-aware S(v)) or learning-to-rank (**L**: LambdaMART scores);
4. return the top-*k* with per-phase wall-clock timings, the raw
   material of Figure 12.

Serving extensions on top of the paper's pipeline: ``config.n_jobs``
fans phases 1–2 out over a worker pool with results identical to
serial, and a multi-level ``cache`` reuses transforms, feature vectors
and whole results across calls (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..dataset.table import Table
from ..errors import NotFittedError, SelectionError
from ..language.ast import ChartType
from ..obs import MetricsRegistry, Tracer, maybe_span
from ..obs.context import current_request_id, request_scope
from ..obs.drift import node_id
from ..obs.events import EventLog
from ..obs.kernels import KERNEL_STATS
from ..obs.provenance import ChartProvenance
from .enumeration import (
    EnumerationConfig,
    EnumerationContext,
    context_for,
    enumerate_candidates,
    search_space_size,
)
from .graph import DominanceGraph, build_graph
from .ltr import LearningToRankRanker
from .nodes import VisualizationNode
from .partial_order import FactorScores, PartialOrderScorer, matching_quality_raw
from .ranking import (
    dominance_counts_from_factors,
    rank_weight_aware_factors_with_scores,
)
from .recognition import VisualizationRecognizer
from .rules import PruningCounters

__all__ = ["SelectionResult", "PartialOrderRanker", "select_top_k", "PHASE_ORDER"]

#: Pipeline phases in execution order (the Figure 12 x-axis).
PHASE_ORDER: Tuple[str, ...] = ("enumerate", "recognize", "rank")


class PartialOrderRanker:
    """Rank nodes by the expert partial order (factors -> graph -> S(v))."""

    def __init__(
        self,
        graph_strategy: str = "range_tree",
        scorer: Optional[PartialOrderScorer] = None,
    ) -> None:
        self.graph_strategy = graph_strategy
        self.scorer = scorer or PartialOrderScorer()

    def score(self, nodes: Sequence[VisualizationNode]) -> List[FactorScores]:
        """The normalised (M, Q, W) factor triples of the nodes."""
        return self.scorer.score(nodes)

    def graph(self, nodes: Sequence[VisualizationNode]) -> DominanceGraph:
        """The explicit dominance graph (Hasse diagram with weights)."""
        return build_graph(self.score(nodes), self.graph_strategy)

    def rank(self, nodes: Sequence[VisualizationNode]) -> List[int]:
        """Indices into ``nodes``, best first, by weight-aware S(v).

        Uses the edge-free O(n log^2 n) computation (see
        :func:`repro.core.ranking.weight_aware_scores_from_factors`),
        which produces exactly the same scores as materialising the
        dominance graph; ``self.graph(...)`` remains available when the
        explicit Hasse diagram itself is wanted.
        """
        order, _, _ = self.rank_with_trace(nodes)
        return order

    def rank_with_trace(
        self,
        nodes: Sequence[VisualizationNode],
        raw_m: Optional[Sequence[float]] = None,
    ) -> Tuple[List[int], List[FactorScores], List[float]]:
        """The ranking plus the factor triples and S(v) values behind it.

        Returns ``(order, factors, scores)`` where ``order`` is exactly
        what :meth:`rank` returns (which delegates here — capturing
        provenance can never change the answer), ``factors`` the
        normalised (M, Q, W) triples, and ``scores`` the weight-aware
        S(v) values the order was sorted by.  ``raw_m`` optionally
        supplies each node's already-computed raw M(v) (see
        :meth:`PartialOrderScorer.score`).
        """
        if not nodes:
            return [], [], []
        factors = self.scorer.score(nodes, raw_m=raw_m)
        order, values = rank_weight_aware_factors_with_scores(factors)
        return order, factors, values


@dataclass
class SelectionResult:
    """Top-k nodes plus the diagnostics Figure 12 reports.

    ``timings`` maps phase name to seconds; when selection ran under a
    :class:`~repro.obs.Tracer` it is a *derived view* of the phase
    spans (each value is that span's duration), kept as a plain dict
    for backward compatibility — the span tree on the tracer is the
    richer primary record.

    ``cache_stats`` carries the serving cache's hit/miss/eviction
    counters (flattened per level) when selection ran with a
    :class:`~repro.engine.cache.MultiLevelCache`; empty otherwise.

    ``provenance`` maps each emitted chart's stable id (see
    :func:`repro.obs.drift.node_id`) to its
    :class:`~repro.obs.provenance.ChartProvenance` decision record when
    selection ran with ``provenance=True`` (or an event log); empty
    otherwise — provenance capture is opt-in so the fast path stays
    uninstrumented.

    ``source`` is the ingest record of a source-backed table (kind,
    content id, query fingerprint, mode, pushdown flag — see
    :mod:`repro.dataset.sources`); ``None`` for plain in-memory tables.
    """

    nodes: List[VisualizationNode]
    order: List[int]
    candidates: int
    valid: int
    timings: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, int] = field(default_factory=dict)
    provenance: Dict[str, ChartProvenance] = field(default_factory=dict)
    source: Optional[Dict[str, object]] = None
    #: True when this call was answered from the result-level cache
    #: (timings then describe the original computing run) — the
    #: cache-hit signal the SLO monitor's ``cache_hit_rate`` objective
    #: consumes.
    result_cache_hit: bool = False

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    def phase_fraction(self, phase: str) -> float:
        """Share of end-to-end time spent in one phase (the % annotations
        on the paper's Figure 12 bars).

        When ``total_seconds`` is zero — an empty ``timings`` dict (e.g.
        a result-cache hit before timings were re-derived) or phases too
        fast for the clock's resolution — every fraction is defined as
        0.0 rather than raising ``ZeroDivisionError``; callers can test
        ``total_seconds > 0`` to distinguish "no time recorded" from a
        genuinely instant phase.
        """
        total = self.total_seconds
        return self.timings.get(phase, 0.0) / total if total > 0 else 0.0

    def phases(self) -> List[Tuple[str, float, float]]:
        """Ordered ``(name, seconds, fraction)`` per recorded phase.

        Phases appear in pipeline order (:data:`PHASE_ORDER`) first,
        then any extra recorded timings in insertion order; fractions
        follow the :meth:`phase_fraction` zero-total convention.  This
        is the view the CLI pretty-printer renders.
        """
        ordered = [name for name in PHASE_ORDER if name in self.timings]
        ordered += [name for name in self.timings if name not in PHASE_ORDER]
        return [
            (name, self.timings[name], self.phase_fraction(name))
            for name in ordered
        ]


# ----------------------------------------------------------------------
# Shared pipeline phases (used by select_top_k and the DeepEye facade)
# ----------------------------------------------------------------------
def _enumerate_phase(
    table: Table,
    enumeration: str,
    config: EnumerationConfig,
    recognizer: Optional[VisualizationRecognizer],
    cache,
    n_jobs: int,
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
) -> Tuple[List[VisualizationNode], Optional[List[bool]], PruningCounters]:
    """Candidates, (for the parallel path) their validity mask, and the
    per-rule pruning accounting of the run."""
    source_backed = (
        getattr(table, "pushdown_provider", None) is not None
        or getattr(table, "stream_profile", None) is not None
    )
    if n_jobs > 1 and source_backed:
        # Pushdown providers hold a sqlite connection and stream
        # profiles back per-column features; both live outside the
        # table bytes workers would rebuild contexts from.  Run serial
        # — the database is doing the heavy lifting anyway.
        n_jobs = 1
    if n_jobs > 1:
        # Imported here, not at module level: repro.engine.parallel
        # imports this package's enumeration module, so a top-level
        # import in either direction would be circular.
        from ..engine.parallel import parallel_enumerate

        pruning = PruningCounters()
        nodes, mask = parallel_enumerate(
            table,
            enumeration,
            config,
            n_jobs=n_jobs,
            recognizer=recognizer,
            cache=cache,
            pruning=pruning,
            metrics=metrics,
            events=events,
        )
        return nodes, mask, pruning
    context = context_for(table, config, cache=cache)
    nodes = enumerate_candidates(table, enumeration, config, context)
    return nodes, None, context.pruning


class _MatchingMemo:
    """Raw matching quality M(v) per chart, computed once per chart state.

    Called like :func:`~repro.core.partial_order.matching_quality_raw`.
    Entries key on the chart's stable id and are guarded by what M(v)
    reads: the feature vector, plus the plotted series for a pie (the
    one branch that reads it), so a stale value is never served: within
    one request the rank phase reuses what the recognize phase computed,
    and a memo kept across requests (an incremental session's, one per
    session) reuses M(v) only for charts whose inputs did not move.
    ``computed`` counts the evaluations that missed.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, Tuple[tuple, float]] = {}
        self.computed = 0

    def __call__(self, node: VisualizationNode) -> float:
        chart_id = node_id(node)
        guard = (
            node.features,
            node.data.y_values if node.chart is ChartType.PIE else None,
        )
        hit = self._entries.get(chart_id)
        if hit is not None and hit[0] == guard:
            return hit[1]
        value = matching_quality_raw(node)
        self._entries[chart_id] = (guard, value)
        self.computed += 1
        return value


def _validity(
    nodes: Sequence[VisualizationNode],
    recognizer: Optional[VisualizationRecognizer],
    raw_m: Callable[[VisualizationNode], float],
) -> List[bool]:
    """Good/bad verdict per node: the trained classifier's, or the expert
    criterion M(v) > 0 — a chart whose matching quality is zero (AVG
    pies, trendless lines, uncorrelated scatters, singleton bars) is
    never a valid chart.

    Both predicates are per-node, so the fan-out computing them over
    per-column slices gets the mask the serial pipeline computes over
    the full candidate list.
    """
    if recognizer is None:
        return [raw_m(node) > 0 for node in nodes]
    return [bool(v) for v in recognizer.predict(nodes)] if nodes else []


def _recognize_phase(
    candidates: List[VisualizationNode],
    valid_mask: Optional[List[bool]],
    recognizer: Optional[VisualizationRecognizer],
    raw_m: Callable[[VisualizationNode], float],
) -> List[VisualizationNode]:
    """Filter candidates to the valid charts, with the shared fallback.

    ``valid_mask`` is the fan-out's precomputed verdicts; without one
    the verdicts come from :func:`_validity`.  A filter that rejects
    everything would return nothing; fall back to the unfiltered
    candidates so selection still surfaces the least-bad charts.
    """
    if valid_mask is None:
        valid_mask = _validity(candidates, recognizer, raw_m)
    valid_nodes = [n for n, ok in zip(candidates, valid_mask) if ok]
    return valid_nodes or list(candidates)


def _rank_phase(
    valid_nodes: List[VisualizationNode],
    ranker: Union[str, object],
    ltr: Optional[LearningToRankRanker],
    graph_strategy: str,
    raw_m: Callable[[VisualizationNode], float],
    want_trace: bool = False,
) -> Tuple[List[int], Optional[dict]]:
    """Resolve the ranker (name or object with ``.rank``) and apply it.

    Returns ``(order, trace)``; ``trace`` is ``None`` unless
    ``want_trace`` asked for the ranker's decision internals (factor
    triples, S(v) values, LTR scores, hybrid blend) for provenance.
    Each ranker's traced and plain paths share one code path, so the
    order is byte-identical either way.  The partial order takes each
    chart's raw M(v) from ``raw_m`` — the same memo the recognize phase
    filled, so no chart's M(v) is computed twice.
    """
    if not isinstance(ranker, str):
        if want_trace and hasattr(ranker, "rank_with_trace"):
            order, trace = ranker.rank_with_trace(valid_nodes)
            return order, dict(trace)
        if not hasattr(ranker, "rank"):
            raise SelectionError(
                f"ranker object {ranker!r} has no rank() method"
            )
        return ranker.rank(valid_nodes), None
    if ranker in ("partial_order", "P"):
        order, factors, values = PartialOrderRanker(
            graph_strategy
        ).rank_with_trace(valid_nodes, [raw_m(n) for n in valid_nodes])
        if want_trace:
            return order, {"factors": factors, "po_scores": values}
        return order, None
    if ranker in ("learning_to_rank", "L"):
        if ltr is None:
            raise SelectionError(
                "ranker='learning_to_rank' requires a fitted "
                "LearningToRankRanker via the ltr parameter"
            )
        if want_trace:
            scores = ltr.scores(valid_nodes)
            # Exactly LearningToRankRanker.rank's ordering, reusing the
            # scores instead of recomputing them.
            order = sorted(
                range(len(valid_nodes)), key=lambda i: (-scores[i], i)
            )
            return order, {"ltr_scores": [float(s) for s in scores]}
        return ltr.rank(valid_nodes), None
    raise SelectionError(
        f"unknown ranker {ranker!r}; use 'partial_order' or "
        f"'learning_to_rank'"
    )


def _build_provenance(
    valid_nodes: List[VisualizationNode],
    order: List[int],
    k: int,
    trace: Optional[dict],
    recognizer: Optional[VisualizationRecognizer],
    pruning: PruningCounters,
) -> Dict[str, ChartProvenance]:
    """One :class:`ChartProvenance` record per emitted (top-k) chart.

    Built strictly from facts the run already computed where possible:
    the rank trace supplies factor triples / S(v) / LTR scores / hybrid
    positions; dominance edge counts come from the edge-free sweep over
    the same factors; the recognizer re-predicts only the k emitted
    nodes (read-only).  When the ranker traced no factors (a custom
    ranker object) the expert factors are derived for description —
    they did not decide the rank, so ``score`` stays ``None``.
    """
    trace = trace or {}
    records: Dict[str, ChartProvenance] = {}
    top = list(order[:k])
    if not top:
        return records

    factors = trace.get("factors")
    if factors is None:
        factors = PartialOrderScorer().score(valid_nodes)
    po_scores = trace.get("po_scores")
    ltr_scores = trace.get("ltr_scores")
    dominates, dominated_by = dominance_counts_from_factors(factors)

    verdicts = probabilities = None
    if recognizer is not None:
        top_nodes = [valid_nodes[i] for i in top]
        try:
            verdicts = recognizer.predict(top_nodes)
            probabilities = recognizer.probabilities(top_nodes)
        except NotFittedError:
            verdicts = probabilities = None

    for position, index in enumerate(top, start=1):
        chart = valid_nodes[index]
        chart_id = node_id(chart)
        hybrid = None
        if "combined" in trace:
            hybrid = {
                "alpha": float(trace["alpha"]),
                "ltr_position": float(trace["ltr_positions"][index]),
                "po_position": float(trace["po_positions"][index]),
                "combined": float(trace["combined"][index]),
            }
        verdict_info = None
        if verdicts is not None:
            verdict_info = {
                "model": getattr(
                    recognizer, "model_name", type(recognizer).__name__
                ),
                "verdict": bool(verdicts[position - 1]),
            }
            if probabilities is not None:
                verdict_info["probability"] = float(
                    probabilities[position - 1]
                )
        factor = factors[index]
        records[chart_id] = ChartProvenance(
            node_id=chart_id,
            rank=position,
            description=chart.describe(),
            m=float(factor.m),
            q=float(factor.q),
            w=float(factor.w),
            score=(
                float(po_scores[index]) if po_scores is not None else None
            ),
            ltr_score=(
                float(ltr_scores[index]) if ltr_scores is not None else None
            ),
            hybrid=hybrid,
            recognizer=verdict_info,
            dominates=int(dominates[index]),
            dominated_by=int(dominated_by[index]),
            siblings_pruned=dict(pruning.pruned),
            considered=pruning.considered,
            emitted=pruning.emitted,
            request_id=current_request_id(),
        )
    return records


def _flat_cache_stats(cache) -> Dict[str, int]:
    """The flat ``{level_counter: value}`` view results have always
    carried in ``cache_stats``, built from
    :meth:`~repro.engine.cache.MultiLevelCache.stats_by_level` (its
    ``aggregate`` rollup skipped)."""
    return {
        f"{level}_{counter}": value
        for level, counters in cache.stats_by_level().items()
        if level != "aggregate"
        for counter, value in counters.items()
    }


def _result_cache_key(
    table: Table,
    k: int,
    enumeration: str,
    ranker: Union[str, object],
    recognizer: Optional[VisualizationRecognizer],
    ltr: Optional[LearningToRankRanker],
    config: EnumerationConfig,
    graph_strategy: str,
    want_provenance: bool,
) -> tuple:
    """Identity of one selection call, for the result-level cache.

    Keys on the table's *content* fingerprint plus every knob that can
    change the answer.  Execution knobs (``n_jobs``, ``backend``) are
    deliberately excluded — parallel results are identical to serial, so
    they share entries.  Model objects key by identity: a retrained or
    reloaded model is a different object and misses, which is the safe
    direction.  ``want_provenance`` is part of the key even though it
    never changes the ranking: a result cached without provenance
    records must not answer a call that asked for them.
    """
    ranker_token = ranker if isinstance(ranker, str) else ("obj", id(ranker))
    return (
        # cache_fingerprint, not fingerprint: source-backed tables
        # (sqlite pushdown, stream samples) scope their entries away
        # from byte-identical pure in-memory tables.
        table.cache_fingerprint(),
        k,
        enumeration,
        ranker_token,
        None if recognizer is None else id(recognizer),
        None if ltr is None else id(ltr),
        graph_strategy,
        want_provenance,
        config.include_one_column,
        config.orderings,
        config.numeric_bins,
        config.granularities,
        config.correlation_threshold,
        tuple(name for name, _ in config.udfs),
    )


@contextmanager
def _timed_phase(
    tracer: Optional[Tracer], timings: Dict[str, float], name: str
) -> Iterator[Optional[object]]:
    """Run one pipeline phase under a span (when tracing) and record its
    wall-clock into ``timings``.

    With a tracer the timing *is* the span's duration — the ``timings``
    dict is a derived view of the trace, not a second clock; without
    one, a bare ``perf_counter`` pair keeps the fast path free of span
    bookkeeping.
    """
    if tracer is not None:
        with tracer.span(name) as span:
            yield span
        timings[name] = span.duration
    else:
        start = time.perf_counter()
        yield None
        timings[name] = time.perf_counter() - start


def _recognize_and_rank(
    candidates: List[VisualizationNode],
    valid_mask: Optional[List[bool]],
    recognizer: Optional[VisualizationRecognizer],
    ranker: Union[str, object],
    ltr: Optional[LearningToRankRanker],
    graph_strategy: str,
    raw_m: Callable[[VisualizationNode], float],
    want_trace: bool,
    tracer: Optional[Tracer],
    timings: Dict[str, float],
) -> Tuple[List[VisualizationNode], List[int], Optional[dict]]:
    """The timed recognize and rank phases over enumerated candidates.

    The one recognize-and-rank path: :func:`select_top_k` and every
    :class:`~repro.engine.incremental.IncrementalSession` epoch run it,
    differing only in the ``raw_m`` memo they hand in (a fresh one per
    request, or the session's cross-epoch one).  Returns
    ``(valid_nodes, order, trace)``.
    """
    with _timed_phase(tracer, timings, "recognize") as span:
        valid_nodes = _recognize_phase(
            candidates, valid_mask, recognizer, raw_m
        )
        if span is not None:
            span.add("valid", len(valid_nodes))
    with _timed_phase(tracer, timings, "rank") as span:
        order, trace = _rank_phase(
            valid_nodes, ranker, ltr, graph_strategy, raw_m,
            want_trace=want_trace,
        )
        if span is not None:
            span.add("ranked", len(order))
    return valid_nodes, order, trace


def _emit_run_events(
    events: EventLog,
    table_name: str,
    k: int,
    result: SelectionResult,
    pruning: PruningCounters,
    cache,
    **rank_fields,
) -> None:
    """One run's phase, prune, score and rank events (then the cache's).

    Shared by :func:`select_top_k` and incremental epochs; a phase event
    is emitted per entry of ``result.timings``, in order, with the
    pipeline phases' counts attached.  Score events come from the
    result's provenance records.  ``rank_fields`` extend the rank event
    (an incremental session adds its ``epoch``).
    """
    phase_fields = {
        "enumerate": {
            "candidates": result.candidates,
            "considered": pruning.considered,
            "emitted": pruning.emitted,
        },
        "recognize": {"valid": result.valid},
        "rank": {"ranked": len(result.order)},
    }
    for phase, seconds in result.timings.items():
        events.emit(
            "phase", phase=phase, table=table_name, seconds=seconds,
            **phase_fields.get(phase, {}),
        )
        if phase == "enumerate":
            for rule, count in sorted(pruning.pruned.items()):
                events.emit(
                    "prune", table=table_name, rule=rule, count=count,
                )
    for record in sorted(result.provenance.values(), key=lambda r: r.rank):
        fields = {"node_id": record.node_id, "rank": record.rank}
        for name in ("m", "q", "w", "score", "ltr_score"):
            value = getattr(record, name)
            if value is not None:
                fields[name] = value
        events.emit("score", table=table_name, **fields)
    events.emit(
        "rank", table=table_name, k=k,
        chart_ids=[node_id(n) for n in result.nodes], **rank_fields,
    )
    if cache is not None:
        cache.emit_events(events, table=table_name)


def _record_selection_metrics(
    metrics: MetricsRegistry,
    enumeration: str,
    timings: Dict[str, float],
    candidates: int,
    valid: int,
    pruning: PruningCounters,
    cache,
) -> None:
    """Publish one run's accounting into the metrics registry."""
    mode = {"E": "exhaustive", "R": "rules"}.get(enumeration, enumeration)
    metrics.counter(
        "selection_runs_total",
        labels={"enumeration": mode},
        help="select_top_k calls that executed the pipeline",
    ).inc()
    for phase, seconds in timings.items():
        metrics.histogram(
            "selection_phase_seconds",
            labels={"phase": phase},
            help="Wall-clock per pipeline phase",
        ).observe(seconds)
    metrics.histogram(
        "selection_total_seconds",
        help="End-to-end select_top_k wall-clock",
    ).observe(sum(timings.values()))
    metrics.counter(
        "enumeration_candidates_total",
        labels={"mode": mode},
        help="Candidate nodes materialised by enumeration",
    ).inc(candidates)
    metrics.counter(
        "selection_valid_total",
        help="Candidates surviving the recognition phase",
    ).inc(valid)
    metrics.counter(
        "enumeration_considered_total",
        help="Candidate variants examined by enumeration "
        "(emitted + pruned)",
    ).inc(pruning.considered)
    for rule, count in pruning.pruned.items():
        metrics.counter(
            "enumeration_pruned_total",
            labels={"rule": rule},
            help="Candidates eliminated, per decision rule",
        ).inc(count)
    KERNEL_STATS.record_metrics(metrics)
    if cache is not None:
        cache.record_metrics(metrics)


def _request_scoped(fn):
    """Run ``fn`` inside a :func:`~repro.obs.context.request_scope`.

    An enclosing scope (a batch worker's table-level id, a CLI
    invocation's id) is reused; otherwise a fresh id is minted — so
    every selection's spans, events, provenance records, and metric
    exemplars share one ``request_id`` without the call sites having to
    thread it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with request_scope():
            return fn(*args, **kwargs)

    return wrapper


@_request_scoped
def select_top_k(
    table: Table,
    k: int = 10,
    enumeration: str = "rules",
    ranker: Union[str, object] = "partial_order",
    recognizer: Optional[VisualizationRecognizer] = None,
    ltr: Optional[LearningToRankRanker] = None,
    config: EnumerationConfig = EnumerationConfig(),
    graph_strategy: str = "range_tree",
    cache=None,
    n_jobs: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    events: Optional[EventLog] = None,
    provenance: bool = False,
) -> SelectionResult:
    """Compute the top-k visualizations of a table.

    Parameters mirror the four Figure 12 configurations: ``enumeration``
    in {"exhaustive"/"E", "rules"/"R"} x ``ranker`` in
    {"partial_order"/"P", "learning_to_rank"/"L"}.  A ``ltr`` ranker is
    required for L mode; a ``recognizer`` is optional in both.
    ``ranker`` may also be any object with a ``rank(nodes) -> order``
    method (e.g. a fitted :class:`~repro.core.hybrid.HybridRanker`).

    ``cache`` is an optional :class:`~repro.engine.cache.MultiLevelCache`
    reused across calls; ``n_jobs`` overrides ``config.n_jobs`` for this
    call (1 = serial, -1 = all cores).

    ``tracer`` (an :class:`~repro.obs.Tracer`) records a nested
    ``select_top_k`` > ``enumerate`` / ``recognize`` / ``rank`` span
    tree — ``SelectionResult.timings`` is then derived from those spans;
    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) accumulates
    phase latency histograms, per-rule pruning counters, and per-level
    cache counters.  Both default to ``None`` = uninstrumented.

    ``events`` (an :class:`~repro.obs.EventLog`) appends the run's
    decision record — request / phase / prune / score / rank / cache
    events — and ``provenance=True`` attaches a per-emitted-chart
    :class:`~repro.obs.ChartProvenance` record to the result (implied
    whenever ``events`` is given, since score events are built from the
    records).  Both are read-only observers: the top-k is byte-identical
    with them on or off.
    """
    if k < 0:
        raise SelectionError(f"k must be non-negative, got {k}")
    jobs = config.n_jobs if n_jobs is None else n_jobs
    if jobs != 1:
        from ..engine.parallel import resolve_n_jobs

        jobs = resolve_n_jobs(jobs)
    want_provenance = provenance or events is not None
    source_info = getattr(table, "source_info", None)

    if events is not None:
        request_fields = dict(
            table=table.name,
            fingerprint=table.fingerprint(),
            k=k,
            enumeration=enumeration,
            ranker=(
                ranker if isinstance(ranker, str) else type(ranker).__name__
            ),
            n_jobs=jobs,
        )
        if source_info is not None:
            # Schema v3: where the table came from (see obs/events.py).
            request_fields["source_kind"] = source_info.get("kind")
            request_fields["source_id"] = source_info.get("id")
            request_fields["source_query"] = source_info.get(
                "query_fingerprint"
            )
            request_fields["source_mode"] = source_info.get("mode")
        events.begin_request(**request_fields)

    # Result entries may persist to the disk tier only when every key
    # component is stable across processes: model objects key by id(),
    # which is meaningless in the next process, so model-bearing calls
    # stay memory-only (transform/feature levels persist regardless —
    # their keys are pure content fingerprints + AST fragments).
    disk_stable = (
        isinstance(ranker, str) and recognizer is None and ltr is None
    )
    if cache is not None:
        key = _result_cache_key(
            table, k, enumeration, ranker, recognizer, ltr, config,
            graph_strategy, want_provenance,
        )
        if disk_stable and hasattr(cache, "fetch"):
            hit = cache.fetch("results", key)
        else:
            hit = cache.results.get(key)
        if hit is not None:
            with maybe_span(
                tracer, "select_top_k", table=table.name, k=k,
                result_cache_hit=True,
            ):
                pass
            if metrics is not None:
                metrics.counter(
                    "selection_result_cache_hits_total",
                    help="select_top_k calls answered from the result cache",
                ).inc()
                cache.record_metrics(metrics)
            if events is not None:
                events.emit(
                    "cache", table=table.name, result_cache_hit=True,
                )
                events.emit(
                    "rank", table=table.name, k=k,
                    chart_ids=[node_id(n) for n in hit.nodes],
                    result_cache_hit=True,
                )
            return dataclasses.replace(
                hit,
                timings=dict(hit.timings),
                cache_stats=_flat_cache_stats(cache),
                provenance=dict(hit.provenance),
                result_cache_hit=True,
            )

    timings: Dict[str, float] = {}
    if metrics is not None:
        # Stream per-call kernel_seconds histogram samples into the
        # caller's registry for the duration of this run.
        KERNEL_STATS.attach(metrics)
    try:
        with maybe_span(
            tracer,
            "select_top_k",
            table=table.name,
            k=k,
            enumeration=enumeration,
            n_jobs=jobs,
            search_space=search_space_size(
                table.num_columns, config.include_one_column
            ),
        ) as root:
            kernels_before = (
                KERNEL_STATS.snapshot() if tracer is not None else None
            )
            with _timed_phase(tracer, timings, "enumerate") as span:
                candidates, valid_mask, pruning = _enumerate_phase(
                    table, enumeration, config, recognizer, cache, jobs,
                    metrics, events,
                )
                if span is not None:
                    span.add("candidates", len(candidates))
                    span.add("considered", pruning.considered)
                    for rule, count in pruning.pruned.items():
                        span.add(f"pruned.{rule}", count)
                    # Split the phase wall-clock into kernel vs. the
                    # rest (aggregation dispatch, feature extraction,
                    # node assembly): one attribute pair per kernel
                    # that did work during this phase.
                    kernel_delta = KERNEL_STATS.delta_since(kernels_before)
                    for name, delta in sorted(kernel_delta.items()):
                        span.set(f"kernel.{name}.calls", int(delta["calls"]))
                        span.set(f"kernel.{name}.seconds", delta["seconds"])
            valid_nodes, order, rank_trace = _recognize_and_rank(
                candidates, valid_mask, recognizer, ranker, ltr,
                graph_strategy, _MatchingMemo(), want_provenance, tracer,
                timings,
            )

            if root is not None:
                root.set("candidates", len(candidates))
                root.set("valid", len(valid_nodes))
    except Exception as exc:
        if events is not None:
            events.emit(
                "error", table=table.name,
                error=f"{type(exc).__name__}: {exc}",
            )
        raise
    finally:
        if metrics is not None:
            KERNEL_STATS.detach(metrics)

    if metrics is not None:
        _record_selection_metrics(
            metrics, enumeration, timings, len(candidates),
            len(valid_nodes), pruning, cache,
        )
        provider = getattr(table, "pushdown_provider", None)
        if provider is not None:
            provider.record_metrics(metrics)

    top = [valid_nodes[i] for i in order[:k]]
    provenance_records = (
        _build_provenance(
            valid_nodes, order, k, rank_trace, recognizer, pruning
        )
        if want_provenance
        else {}
    )
    result = SelectionResult(
        nodes=top,
        order=order,
        candidates=len(candidates),
        valid=len(valid_nodes),
        timings=timings,
        cache_stats=_flat_cache_stats(cache) if cache is not None else {},
        provenance=provenance_records,
        source=dict(source_info) if source_info is not None else None,
    )
    if events is not None:
        _emit_run_events(events, table.name, k, result, pruning, cache)
    if cache is not None:
        if hasattr(cache, "store"):
            cache.store("results", key, result, disk=disk_stable)
        else:
            cache.results.put(key, result)
    return result
