"""Incremental append-delta top-k maintenance for living tables.

A table that only ever *grows* — a metrics stream, an append-only log,
a nightly batch load — does not need the whole DeepEye pipeline rerun
per batch.  An :class:`IncrementalSession` pins one table plus its
cached enumeration state and accepts ``append(rows)`` batches; each
append costs work proportional to the *delta*, not the table:

1. **Transforms** extend in place: the vectorized merge kernels
   (:func:`repro.language.binning.merge_delta`) run only over the new
   rows, splicing new labels/buckets into each cached
   :class:`~repro.language.binning.TransformResult`.
2. **Aggregates** continue their fold: per-bucket counts and sums are
   scattered into the merged bucket layout and extended with
   ``np.add.at`` over just the appended rows — ``np.bincount`` is a
   sequential per-row fold, so continuing it over a suffix is *bitwise*
   equal to refolding from scratch.  AVG re-derives from the merged
   sums and counts with the kernel's exact expression.
3. **Features** recompute only where inputs moved: column statistics
   (``d(X)``, min/max) are maintained incrementally and injected into
   the enumeration context's feature cache level.

Each epoch then enumerates over that pre-populated
:class:`~repro.core.enumeration.EnumerationContext` and runs
:func:`~repro.core.selection.select_top_k`'s own recognize and rank
phases — there is no second copy of the validity filter, the fallback,
the factor scoring or the top-k sort.  The one difference is the raw
matching-quality memo the session hands those phases: it lives across
epochs, so a chart's M(v) is recomputed only when its feature vector
or plotted series moved.

**Byte-identity is the contract, not an aspiration.**  Every append
produces exactly the top-k (chart ids *and* scores) that a from-scratch
:func:`~repro.core.selection.select_top_k` over the grown table would:
the pre-populated context caches hold incrementally maintained,
bit-exact values, and quantities that cannot be continued bit-exactly
(raw column correlations use pairwise summation) are simply left for
the context to recompute.  :meth:`IncrementalSession.verify`
replays the scratch pipeline and gates the comparison through
:func:`repro.obs.drift.classify_drift`, raising
:class:`IncrementalDriftError` on anything but ``identical``.

Between epochs the session classifies its own top-k movement (with
``compare_fingerprints=False`` — the input changed by construction) and
notifies :meth:`~IncrementalSession.subscribe` callbacks whenever the
answer churned, which is the "tell me when my dashboard changes"
primitive.  Every delta decision is observable: ``delta`` events per
transform merge, phase events and spans per epoch, and counters for
merge/rebuild/reuse rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core import selection
from ..core.enumeration import (
    EnumerationConfig,
    EnumerationContext,
    enumerate_candidates,
)
from ..core.features import ColumnFeatures
from ..core.selection import SelectionResult, select_top_k
from ..dataset.column import Column, ColumnType
from ..dataset.table import Table
from ..errors import SelectionError, ValidationError
from ..language.ast import AggregateOp
from ..language.binning import TransformResult, merge_delta
from ..obs.context import Observer, request_scope
from ..obs.drift import classify_drift, entry_from_result

__all__ = ["IncrementalSession", "AppendReport", "IncrementalDriftError"]


class IncrementalDriftError(SelectionError):
    """The incremental top-k diverged from the from-scratch recompute.

    Carries the :func:`~repro.obs.drift.classify_drift` report as
    ``.report`` — if this ever raises, an invariant of the delta
    machinery is broken (it is not a data-churn signal; data churn is
    expected and reported through :class:`AppendReport.drift`).
    """

    def __init__(self, report: Dict[str, Any]) -> None:
        self.report = report
        super().__init__(
            "incremental top-k drifted from the from-scratch recompute: "
            f"{report.get('kind')} (kendall_tau={report.get('kendall_tau')}, "
            f"overlap={report.get('overlap')}, "
            f"max_score_delta={report.get('max_score_delta')})"
        )


@dataclass
class AppendReport:
    """What one ``append(rows)`` batch did, observable and testable."""

    epoch: int
    appended_rows: int
    total_rows: int
    fingerprint: str
    result: SelectionResult
    #: classify_drift of this epoch's top-k vs the previous epoch's,
    #: with ``compare_fingerprints=False`` (rows were appended, so the
    #: input changed by construction — the question is whether the
    #: *answer* moved).
    drift: Dict[str, Any]
    transforms_merged: int
    transforms_rebuilt: int
    transforms_invalidated: int
    raw_m_reused: int
    raw_m_computed: int
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def churned(self) -> bool:
        """True when the top-k answer moved relative to the last epoch."""
        return self.drift.get("kind") != "identical"


# ----------------------------------------------------------------------
# Internal per-entity state
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _TransformState:
    """One cached transform plus its maintained per-bucket aggregates."""

    result: TransformResult
    counts: np.ndarray  # integer rows-per-bucket (the CNT fold)
    sums: Dict[str, np.ndarray] = field(default_factory=dict)  # y -> SUM fold

    def aggregated(self, op: AggregateOp, y: str) -> np.ndarray:
        """The aggregate array, by the kernel's exact expressions."""
        counts = self.counts.astype(np.float64)
        if op is AggregateOp.CNT:
            return counts
        sums = self.sums[y]
        if op is AggregateOp.SUM:
            return sums
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / counts, 0.0)


@dataclass(eq=False)
class _ColumnState:
    """Incrementally maintained per-column statistics.

    Exactness notes: distinct counts compose (``unique`` of old uniques
    + delta equals ``unique`` of the full column, under any NaN-dedup
    regime); min/max are pure comparisons, so ``np.minimum`` over
    (old extremum, delta extremum) equals ``np.min`` over the full
    column including NaN propagation.
    """

    ctype: ColumnType
    n: int
    distinct: int
    sorted_values: Optional[np.ndarray]  # Num/Tem distinct domain, sorted
    seen: Optional[set]  # Cat distinct labels
    min_value: Optional[float]
    max_value: Optional[float]

    @classmethod
    def of(cls, column: Column) -> "_ColumnState":
        if column.ctype is ColumnType.CATEGORICAL:
            seen = set(column.values.tolist())
            return cls(
                ctype=column.ctype, n=len(column), distinct=len(seen),
                sorted_values=None, seen=seen,
                min_value=None, max_value=None,
            )
        uniques = np.unique(column.values)
        has_rows = len(column) > 0
        return cls(
            ctype=column.ctype, n=len(column), distinct=len(uniques),
            sorted_values=uniques, seen=None,
            min_value=float(np.min(column.values)) if has_rows else None,
            max_value=float(np.max(column.values)) if has_rows else None,
        )

    def extend(self, delta_values: np.ndarray) -> None:
        if len(delta_values) == 0:
            return
        self.n += len(delta_values)
        if self.seen is not None:
            self.seen.update(delta_values.tolist())
            self.distinct = len(self.seen)
            return
        self.sorted_values = np.unique(
            np.concatenate([self.sorted_values, delta_values])
        )
        self.distinct = len(self.sorted_values)
        delta_min = float(np.min(delta_values))
        delta_max = float(np.max(delta_values))
        self.min_value = (
            delta_min
            if self.min_value is None
            else float(np.minimum(self.min_value, delta_min))
        )
        self.max_value = (
            delta_max
            if self.max_value is None
            else float(np.maximum(self.max_value, delta_max))
        )

    def features(self) -> ColumnFeatures:
        """Bit-exact :class:`ColumnFeatures` of the grown column."""
        return ColumnFeatures(
            num_distinct=self.distinct,
            num_tuples=self.n,
            unique_ratio=self.distinct / self.n if self.n else 0.0,
            min_value=self.min_value,
            max_value=self.max_value,
            ctype=self.ctype,
        )


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class IncrementalSession:
    """Maintain the top-k of a growing table across append batches.

    Parameters mirror the :func:`~repro.core.selection.select_top_k`
    subset the delta machinery covers — the expert pipeline
    (``ranker="partial_order"``, no recognizer model, no LTR).  ``cache``
    optionally plugs in a :class:`~repro.engine.cache.MultiLevelCache`:
    merged transforms are published under each epoch's fingerprint, so
    other consumers (and the disk tier) inherit them.  ``auto_verify``
    replays the full from-scratch pipeline after every append and raises
    :class:`IncrementalDriftError` on any non-identical drift — the mode
    tests and the CI gate run in.

    ``tracer`` / ``metrics`` / ``events`` are the usual read-only
    sinks, under one :class:`~repro.obs.context.Observer` per epoch
    (the initial build, then every append); every merge decision lands
    in ``delta`` events and the incremental counters.
    """

    def __init__(
        self,
        table: Table,
        k: int = 10,
        enumeration: str = "rules",
        config: EnumerationConfig = EnumerationConfig(),
        graph_strategy: str = "range_tree",
        cache=None,
        tracer=None,
        metrics=None,
        events=None,
        auto_verify: bool = False,
    ) -> None:
        if k < 0:
            raise SelectionError(f"k must be non-negative, got {k}")
        self.k = k
        self.enumeration = enumeration
        self.config = config
        self.graph_strategy = graph_strategy
        self.cache = cache
        self._sinks = (tracer, metrics, events)
        self._auto_verify = auto_verify
        self._subscribers: List[Callable[[AppendReport], None]] = []

        self._transform_state: Dict[Any, _TransformState] = {}
        self._agg_keys: Set[Tuple[Any, str, AggregateOp]] = set()
        self._column_state: Dict[str, _ColumnState] = {}
        # Raw M(v) across epochs, reused only while a chart's features
        # and plotted series are unchanged.
        self._raw_m = selection._MatchingMemo()

        self.table = table
        self.epoch = 0
        fingerprint = table.fingerprint()
        # Each epoch (init, then every append) is one logical request:
        # a fresh scope correlates the epoch's spans and events without
        # mixing epochs under a single id.
        observer = Observer(*self._sinks)
        with request_scope(fresh=True, epoch=0), observer:
            observer.begin_request(
                table=table.name, fingerprint=fingerprint, k=k,
                enumeration=enumeration, ranker="partial_order",
                incremental=True, epoch=0, appended_rows=0,
            )
            ctx = EnumerationContext(table, config, cache=cache)
            with observer.span(
                "incremental_init",
                table=table.name, rows=table.num_rows, k=k,
            ):
                result, top_scores, _ = self._pipeline(ctx, observer)
            self._harvest(ctx)
            self._column_state = {
                column.name: _ColumnState.of(column)
                for column in table.columns
            }
            self._result = result
            self._entry = entry_from_result(
                table.name, fingerprint, result, scores=top_scores
            )
            observer.log(self._emit_epoch_events, result, ctx.pruning)
        if auto_verify:
            self.verify()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def result(self) -> SelectionResult:
        """The current epoch's selection result."""
        return self._result

    @property
    def topk_ids(self) -> List[str]:
        """Stable chart ids of the current top-k, best first."""
        return list(self._entry["chart_ids"])

    @property
    def entry(self) -> Dict[str, Any]:
        """The current epoch's drift-snapshot entry (a copy)."""
        return dict(self._entry)

    def subscribe(
        self, callback: Callable[[AppendReport], None]
    ) -> Callable[[], None]:
        """Register a callback fired after any append whose top-k moved
        (``report.churned``); returns an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def append(self, rows: Iterable[Sequence]) -> AppendReport:
        """Fold an appended row batch into the maintained top-k."""
        materialized = [list(row) for row in rows]
        if not materialized:
            return AppendReport(
                epoch=self.epoch,
                appended_rows=0,
                total_rows=self.table.num_rows,
                fingerprint=self._entry["fingerprint"],
                result=self._result,
                drift=classify_drift(
                    self._entry, self._entry, compare_fingerprints=False
                ),
                transforms_merged=0,
                transforms_rebuilt=0,
                transforms_invalidated=0,
                raw_m_reused=0,
                raw_m_computed=0,
            )

        old_n = self.table.num_rows
        new_table = self.table.append_rows(materialized)
        new_fp = new_table.fingerprint()
        observer = Observer(*self._sinks)
        with request_scope(fresh=True, epoch=self.epoch + 1), observer.scope(
            "incremental_append", table=new_table.name
        ):
            observer.begin_request(
                table=new_table.name, fingerprint=new_fp, k=self.k,
                enumeration=self.enumeration, ranker="partial_order",
                incremental=True, epoch=self.epoch + 1,
                appended_rows=len(materialized),
            )
            merge_log: List[Dict[str, Any]] = []
            with observer.span(
                "incremental_append",
                table=new_table.name, epoch=self.epoch + 1,
                appended_rows=len(materialized),
                total_rows=new_table.num_rows,
            ) as root:
                ctx = EnumerationContext(new_table, self.config, cache=self.cache)
                with observer.phase("merge"):
                    delta_columns = {
                        column.name: Column(
                            column.name, column.ctype, column.values[old_n:]
                        )
                        for column in new_table.columns
                    }
                    self._merge_transforms(
                        ctx, new_table, new_fp, delta_columns, old_n, merge_log
                    )
                    for name, state in self._column_state.items():
                        state.extend(delta_columns[name].values)
                        ctx._column_features[name] = state.features()
                    for key in self._agg_keys:
                        transform, y_name, op = key
                        state = self._transform_state.get(transform)
                        if state is not None:
                            ctx._aggregates[key] = state.aggregated(op, y_name)

                result, top_scores, computed = self._pipeline(ctx, observer)
                root.set("candidates", result.candidates)
                root.set("valid", result.valid)
            self._harvest(ctx)

            new_entry = entry_from_result(
                new_table.name, new_fp, result, scores=top_scores
            )
            drift = classify_drift(
                self._entry, new_entry, compare_fingerprints=False
            )
            self.table = new_table
            self.epoch += 1
            self._result = result
            self._entry = new_entry

            actions = [entry["action"] for entry in merge_log]
            report = AppendReport(
                epoch=self.epoch,
                appended_rows=len(materialized),
                total_rows=new_table.num_rows,
                fingerprint=new_fp,
                result=result,
                drift=drift,
                transforms_merged=actions.count("merged"),
                transforms_rebuilt=actions.count("rebuilt"),
                transforms_invalidated=actions.count("invalidated"),
                raw_m_reused=result.candidates - computed,
                raw_m_computed=computed,
                timings=dict(observer.timings),
            )
            observer.log(
                self._emit_epoch_events, result, ctx.pruning, report, merge_log
            )
            self._record_metrics(observer, report)
        if report.churned:
            for callback in list(self._subscribers):
                callback(report)
        if self._auto_verify:
            self.verify()
        return report

    def verify(self) -> Dict[str, Any]:
        """Replay from scratch and gate byte-identity through drift
        classification; raises :class:`IncrementalDriftError` unless the
        maintained top-k is ``identical`` (same charts, same order, same
        scores) to the recompute."""
        with Observer(tracer=self._sinks[0]).span(
            "incremental_verify", table=self.table.name, epoch=self.epoch,
        ):
            scratch = select_top_k(
                self.table,
                k=self.k,
                enumeration=self.enumeration,
                config=self.config,
                graph_strategy=self.graph_strategy,
                cache=None,
                provenance=True,
            )
        expected = entry_from_result(
            self.table.name, self.table.fingerprint(), scratch
        )
        report = classify_drift(expected, self._entry)
        report["epoch"] = self.epoch
        if report["kind"] != "identical":
            raise IncrementalDriftError(report)
        return report

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def _merge_transforms(
        self,
        ctx: EnumerationContext,
        new_table: Table,
        new_fp: str,
        delta_columns: Dict[str, Column],
        old_n: int,
        merge_log: List[Dict[str, Any]],
    ) -> None:
        """Extend every cached transform by the appended chunk and
        pre-populate the fresh context with the merged results."""
        for transform in list(self._transform_state):
            state = self._transform_state[transform]
            column_name = transform.column
            column_stats = self._column_state[column_name]
            try:
                merge = merge_delta(
                    transform,
                    state.result,
                    new_table.column(column_name),
                    delta_columns[column_name],
                    column_stats.min_value,
                    column_stats.max_value,
                )
            except ValidationError:
                # The appended chunk made this transform inexecutable
                # (e.g. a NaN row reached a binnable column): drop the
                # state and let enumeration re-derive the failure, which
                # is exactly what a scratch run would see.
                del self._transform_state[transform]
                self._agg_keys = {
                    key for key in self._agg_keys if key[0] != transform
                }
                merge_log.append(
                    {"transform": transform.describe(), "action": "invalidated"}
                )
                continue
            self._fold_aggregates(state, merge, new_table, old_n)
            state.result = merge.result
            ctx._transforms[transform] = merge.result
            if self.cache is not None:
                ctx._cache_put("transforms", (new_fp, transform), merge.result)
            merge_log.append(
                {
                    "transform": transform.describe(),
                    "action": "rebuilt" if merge.rebuilt else "merged",
                    "buckets": merge.result.num_buckets,
                    "new_buckets": None if merge.rebuilt else merge.new_buckets,
                    "remapped": bool(merge.remapped),
                }
            )

    @staticmethod
    def _fold_aggregates(
        state: _TransformState, merge, new_table: Table, old_n: int
    ) -> None:
        """Continue the per-bucket count/sum folds over the delta rows.

        ``np.bincount`` accumulates row-by-row in index order, and
        ``np.add.at`` is the same unbuffered fold — scattering the old
        per-bucket partials into the merged layout and folding only the
        appended rows is therefore bitwise equal to refolding the full
        assignment.  A rebuilt transform (numeric range grew) refolds
        from scratch, which is what the scratch pipeline does too.
        """
        result = merge.result
        buckets = result.num_buckets
        if merge.rebuilt:
            state.counts = np.bincount(result.assignment, minlength=buckets)
            for y_name in list(state.sums):
                state.sums[y_name] = np.bincount(
                    result.assignment,
                    weights=new_table.column(y_name).values.astype(np.float64),
                    minlength=buckets,
                )
            return
        counts = np.zeros(buckets, dtype=state.counts.dtype)
        counts[merge.old_positions] = state.counts
        counts += np.bincount(merge.delta_assignment, minlength=buckets)
        state.counts = counts
        for y_name, old_sums in list(state.sums.items()):
            sums = np.zeros(buckets, dtype=np.float64)
            sums[merge.old_positions] = old_sums
            np.add.at(
                sums,
                merge.delta_assignment,
                new_table.column(y_name).values[old_n:].astype(np.float64),
            )
            state.sums[y_name] = sums

    def _harvest(self, ctx: EnumerationContext) -> None:
        """Adopt whatever the epoch's context computed that the session
        was not yet maintaining (first epoch: everything)."""
        for transform, result in ctx._transforms.items():
            if transform not in self._transform_state:
                self._transform_state[transform] = _TransformState(
                    result=result,
                    counts=np.bincount(
                        result.assignment, minlength=result.num_buckets
                    ),
                )
        for key, value in ctx._aggregates.items():
            transform, y_name, op = key
            state = self._transform_state.get(transform)
            if state is None:
                continue
            self._agg_keys.add(key)
            if op is AggregateOp.CNT or y_name in state.sums:
                continue
            if op is AggregateOp.SUM:
                # aggregate() returned the bincount fold itself.
                state.sums[y_name] = value
            else:
                state.sums[y_name] = np.bincount(
                    state.result.assignment,
                    weights=ctx.table.column(y_name).values.astype(np.float64),
                    minlength=state.result.num_buckets,
                )

    # ------------------------------------------------------------------
    # Pipeline over a (pre-populated) context
    # ------------------------------------------------------------------
    def _pipeline(
        self, ctx: EnumerationContext, observer: Observer
    ) -> Tuple[SelectionResult, List[float], int]:
        """One epoch's selection over the pre-populated ``ctx``.

        Enumerates through the context, then runs
        :func:`~repro.core.selection.select_top_k`'s recognize and rank
        phases with the session's cross-epoch M(v) memo.  Returns the
        result, the S(v) scores of its top-k, and how many raw M(v)
        values the memo had to compute this epoch.
        """
        with observer.phase("enumerate"):
            candidates = enumerate_candidates(
                ctx.table, self.enumeration, self.config, ctx
            )
        computed_before = self._raw_m.computed
        valid_nodes, order, trace = selection._recognize_and_rank(
            candidates, None, None, "partial_order", None,
            self.graph_strategy, self._raw_m, True, observer,
        )
        top = order[:self.k]
        result = SelectionResult(
            nodes=[valid_nodes[i] for i in top],
            order=order,
            candidates=len(candidates),
            valid=len(valid_nodes),
            timings=dict(observer.timings),
            cache_stats=(
                selection._flat_cache_stats(self.cache)
                if self.cache is not None
                else {}
            ),
            provenance=(
                selection._build_provenance(
                    valid_nodes, order, self.k, trace, None, ctx.pruning
                )
                if observer.events is not None
                else {}
            ),
        )
        top_scores = [float(trace["po_scores"][i]) for i in top]
        return result, top_scores, self._raw_m.computed - computed_before

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _emit_epoch_events(
        self,
        observer: Observer,
        result: SelectionResult,
        pruning,
        report: Optional[AppendReport] = None,
        merge_log: Sequence[Dict[str, Any]] = (),
    ) -> None:
        """The epoch's ``delta`` events (appends only), then the
        pipeline events every selection emits."""
        events = observer.events
        table_name = self._entry["table"]
        for entry in merge_log:
            events.emit("delta", table=table_name, **entry)
        if report is not None:
            events.emit(
                "delta", table=table_name, summary=True,
                merged=report.transforms_merged,
                rebuilt=report.transforms_rebuilt,
                invalidated=report.transforms_invalidated,
                raw_m_reused=report.raw_m_reused,
                raw_m_computed=report.raw_m_computed,
                drift=report.drift["kind"],
            )
        selection._emit_run_events(
            observer, table_name, self.k, result, pruning, self.cache,
            epoch=self.epoch,
        )

    def _record_metrics(self, observer: Observer, report: AppendReport) -> None:
        observer.count(
            "incremental_appends_total",
            help="Append batches folded into incremental sessions",
        )
        observer.count(
            "incremental_appended_rows_total", report.appended_rows,
            help="Rows appended across incremental sessions",
        )
        for action, count in (
            ("merged", report.transforms_merged),
            ("rebuilt", report.transforms_rebuilt),
            ("invalidated", report.transforms_invalidated),
        ):
            if count:
                observer.count(
                    "incremental_transforms_total", count,
                    help="Cached transforms per append, by merge outcome",
                    action=action,
                )
        for outcome, count in (
            ("reused", report.raw_m_reused),
            ("computed", report.raw_m_computed),
        ):
            if count:
                observer.count(
                    "incremental_raw_m_total", count,
                    help="Raw matching-quality evaluations, by cache outcome",
                    outcome=outcome,
                )
        observer.count(
            "incremental_topk_drift_total",
            help="Per-append top-k drift classification",
            kind=report.drift["kind"],
        )
        observer.observe(
            "incremental_append_seconds", sum(report.timings.values()),
            help="End-to-end wall-clock per append batch",
        )
        observer.publish(self.cache)
