"""The DeepEye facade (Figure 4): offline training + online selection.

Offline, the system learns from examples — good/bad chart labels train
the recognition classifier, graded per-table rankings train LambdaMART,
and a held-out slice tunes the hybrid preference weight alpha.  Online,
a table comes in and the trained components produce its top-k charts;
:meth:`DeepEye.top_k_batch` serves whole batches of tables through a
worker pool, and a per-engine multi-level cache reuses work across
calls (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from ..dataset.table import Table
from ..engine.cache import MultiLevelCache
from ..errors import ModelError, SelectionError
from ..obs import MetricsRegistry, Tracer, global_registry
from ..obs.context import Observer
from ..obs.events import EventLog
from ..obs.health import SLOMonitor
from .enumeration import EnumerationConfig
from .hybrid import HybridRanker
from .ltr import LearningToRankRanker
from .nodes import VisualizationNode
from .recognition import VisualizationRecognizer
from .selection import PartialOrderRanker, SelectionResult, select_top_k

__all__ = ["TrainingExample", "DeepEye"]


def _option(value, build):
    """``True`` builds the component, ``False``/``None`` leaves it off, an
    instance is used as given (by identity: an empty EventLog is falsy)."""
    if value is True:
        return build()
    return None if value is False or value is None else value


@dataclass
class TrainingExample:
    """One labelled table: its candidates, good/bad labels, and grades.

    ``relevance[i]`` is the graded goodness of ``nodes[i]`` (higher is
    better; 0 for bad charts) — the merged crowdsourced total order of
    the paper's ground truth.
    """

    table_name: str
    nodes: List[VisualizationNode]
    labels: List[bool]
    relevance: List[float]

    def __post_init__(self) -> None:
        if not (len(self.nodes) == len(self.labels) == len(self.relevance)):
            raise ModelError(
                f"training example {self.table_name!r}: nodes, labels and "
                f"relevance must be aligned"
            )

    def good_nodes(self) -> List[VisualizationNode]:
        """The subset of candidates labelled good."""
        return [n for n, ok in zip(self.nodes, self.labels) if ok]


class DeepEye:
    """Automatic data visualization: train once, select top-k anywhere.

    Parameters
    ----------
    ranking:
        Online ranking engine: ``"partial_order"`` (no training data
        needed), ``"learning_to_rank"``, or ``"hybrid"`` (the paper's
        best configuration).
    recognizer_model:
        Classifier for recognition: ``"decision_tree"`` / ``"bayes"`` /
        ``"svm"``; ``None`` disables the recognition filter.
    enumeration:
        Candidate generation mode: ``"rules"`` (default) or
        ``"exhaustive"``.
    n_jobs:
        Worker count for the parallel serving engine (overrides
        ``config.n_jobs`` when given): 1 = serial, -1 = all cores.
        Results are identical to serial at any value.
    backend:
        Pool flavour for ``n_jobs > 1``: ``"process"`` or ``"thread"``
        (overrides ``config.backend`` when given).
    cache:
        The serving cache: ``True`` (default) builds a private
        :class:`~repro.engine.cache.MultiLevelCache`, ``False``/``None``
        disables caching, or pass an existing instance to share one
        cache between engines.  Cleared automatically on :meth:`train`.
    cache_dir:
        Optional directory for the persistent L4 tier: entries survive
        process restarts (see :mod:`repro.engine.persistent`).  Attaches
        a :class:`~repro.engine.persistent.DiskCacheTier` to the serving
        cache (building one if ``cache`` did not already supply an
        instance with a disk tier); call :meth:`prewarm` on startup to
        pull the hottest entries back into memory.  Ignored when caching
        is disabled.
    trace:
        Tracing: ``True`` builds a private :class:`~repro.obs.Tracer`,
        or pass an existing tracer to share one across engines;
        ``False``/``None`` (default) disables span recording.  Every
        :meth:`top_k` call then appends a nested ``select_top_k`` span
        tree to ``self.tracer`` — export with
        ``engine.tracer.to_chrome_trace()``.
    metrics:
        Metrics: ``True`` publishes into the process-global
        :func:`~repro.obs.global_registry`, or pass a private
        :class:`~repro.obs.MetricsRegistry`; ``False``/``None``
        (default) disables.  Batch serving additionally feeds
        per-worker task latency histograms and the
        :attr:`slow_tables` log (threshold ``slow_threshold`` seconds).
    events:
        Decision-event logging: pass an :class:`~repro.obs.EventLog`
        (or ``True`` for a fresh in-memory one) and every
        :meth:`top_k` / :meth:`top_k_batch` call appends its
        request / phase / prune / score / rank / cache events to it;
        ``None`` (default) disables.  Implies provenance capture.
    provenance:
        ``True`` attaches one :class:`~repro.obs.ChartProvenance`
        record per emitted chart to each result's ``provenance`` dict
        (implied whenever ``events`` is given).  The top-k is
        byte-identical with it on or off.
    slo:
        Health monitoring: ``True`` builds an
        :class:`~repro.obs.health.SLOMonitor` with the default
        latency/error/cache-hit objectives, or pass a configured
        monitor; ``False``/``None`` (default) disables.  Every
        :meth:`top_k` and :meth:`top_k_batch` table then records one
        outcome per objective — read :meth:`SLOMonitor.snapshot` for
        the burn rates and alert states.
    max_slow_tables:
        Bound on the :attr:`slow_tables` log (newest first; oldest
        entries drop beyond the cap).
    """

    def __init__(
        self,
        ranking: str = "hybrid",
        recognizer_model: Optional[str] = "decision_tree",
        enumeration: str = "rules",
        config: EnumerationConfig = EnumerationConfig(),
        graph_strategy: str = "range_tree",
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
        cache: Union[bool, MultiLevelCache, None] = True,
        cache_dir=None,
        trace: Union[bool, Tracer, None] = False,
        metrics: Union[bool, MetricsRegistry, None] = False,
        slow_threshold: float = 1.0,
        events: Union[bool, EventLog, None] = None,
        provenance: bool = False,
        slo=None,
        max_slow_tables: int = 256,
    ) -> None:
        if ranking not in ("partial_order", "learning_to_rank", "hybrid"):
            raise SelectionError(f"unknown ranking mode {ranking!r}")
        self.ranking = ranking
        self.enumeration = enumeration
        overrides = {}
        if n_jobs is not None:
            overrides["n_jobs"] = n_jobs
        if backend is not None:
            overrides["backend"] = backend
        self.config = (
            dataclasses.replace(config, **overrides) if overrides else config
        )
        self.graph_strategy = graph_strategy
        self.cache: Optional[MultiLevelCache] = _option(cache, MultiLevelCache)
        if cache_dir is not None and self.cache is not None:
            if getattr(self.cache, "disk", None) is None:
                from ..engine.persistent import DiskCacheTier

                self.cache.disk = DiskCacheTier(cache_dir)
        self.tracer: Optional[Tracer] = _option(trace, Tracer)
        self.metrics: Optional[MetricsRegistry] = _option(
            metrics, global_registry
        )
        self.events: Optional[EventLog] = _option(events, EventLog)
        self.provenance = bool(provenance)
        self.slo: Optional[SLOMonitor] = _option(
            slo, SLOMonitor.with_default_objectives
        )
        self.slow_threshold = slow_threshold
        self.max_slow_tables = int(max_slow_tables)
        # Imported here, not at module level: repro.engine.parallel
        # imports core enumeration modules (circular at init time).
        from ..engine.parallel import SlowTableLog

        #: Batch tables that exceeded ``slow_threshold`` seconds, newest
        #: first: ``{table, rows, columns, seconds, worker}`` dicts
        #: (populated by :meth:`top_k_batch`), bounded at
        #: ``max_slow_tables`` entries (oldest drop).
        self.slow_tables: "SlowTableLog" = SlowTableLog(self.max_slow_tables)
        self.recognizer: Optional[VisualizationRecognizer] = (
            VisualizationRecognizer(model=recognizer_model)
            if recognizer_model
            else None
        )
        self.ltr: Optional[LearningToRankRanker] = None
        self.hybrid: Optional[HybridRanker] = None
        self._trained = False

    def from_source(
        self,
        path,
        kind: Optional[str] = None,
        query: Optional[str] = None,
        table: Optional[str] = None,
        name: Optional[str] = None,
        materialize: Union[bool, str] = "auto",
        pushdown: bool = True,
        chunk_rows: Optional[int] = None,
        sample_rows: Optional[int] = None,
        max_materialize_rows: Optional[int] = None,
        seed: Optional[int] = None,
        types=None,
        delimiter: str = ",",
    ) -> Table:
        """Load a table from a data source with this engine's
        observability attached (ingest spans on :attr:`tracer`,
        ``ingest_*`` counters on :attr:`metrics`).

        ``kind`` is ``csv`` / ``jsonl`` / ``sqlite`` or ``None`` to
        infer from the file extension; ``table``/``query`` select the
        sqlite relation.  ``materialize`` is ``True``, ``False``, or
        ``"auto"`` (stream past ``max_materialize_rows``); see
        :func:`repro.dataset.sources.from_source` for the build modes
        and :class:`~repro.dataset.sources.SqlitePushdown` for when
        transforms run inside the database.
        """
        from ..dataset import sources as _sources

        source = _sources.resolve_source(
            path, kind, query=query, table=table, name=name,
            delimiter=delimiter,
        )
        kwargs = {}
        if chunk_rows is not None:
            kwargs["chunk_rows"] = chunk_rows
        if sample_rows is not None:
            kwargs["sample_rows"] = sample_rows
        if max_materialize_rows is not None:
            kwargs["max_materialize_rows"] = max_materialize_rows
        if seed is not None:
            kwargs["seed"] = seed
        return _sources.from_source(
            source,
            materialize=materialize,
            pushdown=pushdown,
            types=types,
            tracer=self.tracer,
            metrics=self.metrics,
            **kwargs,
        )

    def prewarm(self, per_level: Optional[int] = None) -> dict:
        """Load the hottest disk-tier entries into the in-memory cache
        levels (the restart workflow: construct with ``cache_dir``,
        ``prewarm()``, then serve).  Returns per-level loaded counts;
        ``{}`` when there is no cache or no disk tier."""
        if self.cache is None or getattr(self.cache, "disk", None) is None:
            return {}
        return self.cache.prewarm(per_level=per_level)

    # -- pickling (observability state stays in the parent) -------------
    def __getstate__(self) -> dict:
        # Tracer and MetricsRegistry hold locks/thread-locals, and the
        # EventLog may hold a file handle, none of which can cross
        # process boundaries; batch workers therefore run uninstrumented
        # (the batch driver captures their events into private per-task
        # logs) and the parent records their task latency from the
        # timings each worker ships back with its result.
        from ..engine.parallel import SlowTableLog

        state = dict(self.__dict__)
        state["tracer"] = None
        state["metrics"] = None
        state["events"] = None
        state["slo"] = None
        state["slow_tables"] = SlowTableLog(self.max_slow_tables)
        return state

    # ------------------------------------------------------------------
    def train(self, examples: Sequence[TrainingExample]) -> "DeepEye":
        """Fit recognition + ranking models from labelled examples.

        With ``ranking="partial_order"`` only the recognizer trains (the
        partial order is expert knowledge, not learned).
        """
        if not examples:
            raise ModelError("need at least one training example")

        if self.recognizer is not None:
            all_nodes: List[VisualizationNode] = []
            all_labels: List[bool] = []
            for example in examples:
                all_nodes.extend(example.nodes)
                all_labels.extend(example.labels)
            self.recognizer.fit(all_nodes, all_labels)

        if self.ranking in ("learning_to_rank", "hybrid"):
            groups = [
                (example.nodes, example.relevance)
                for example in examples
                if example.nodes
            ]
            self.ltr = LearningToRankRanker()
            self.ltr.fit(groups)

        if self.ranking == "hybrid":
            self.hybrid = HybridRanker(
                self.ltr, PartialOrderRanker(self.graph_strategy)
            )
            self.hybrid.fit_alpha(groups)

        if self.cache is not None:
            # New models make every cached feature-gated decision and
            # ranked result stale.
            self.cache.clear()
        self._trained = True
        return self

    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist the trained engine (models + settings) to a directory.

        Writes ``engine.json`` with the configuration plus per-model
        JSON files; :meth:`load` restores an equivalent engine.  Only
        trained engines can be saved.
        """
        if not self._trained:
            raise ModelError("train() the engine before save()")
        from ..persistence import save_ltr, save_recognizer

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "ranking": self.ranking,
            "enumeration": self.enumeration,
            "graph_strategy": self.graph_strategy,
            "hybrid_alpha": self.hybrid.alpha if self.hybrid else None,
            "has_recognizer": self.recognizer is not None,
            "has_ltr": self.ltr is not None,
        }
        (directory / "engine.json").write_text(json.dumps(manifest))
        if self.recognizer is not None:
            save_recognizer(self.recognizer, directory / "recognizer.json")
        if self.ltr is not None:
            save_ltr(self.ltr, directory / "ltr.json")

    @classmethod
    def load(cls, directory) -> "DeepEye":
        """Restore an engine saved by :meth:`save`."""
        from ..persistence import load_ltr, load_recognizer

        directory = Path(directory)
        manifest = json.loads((directory / "engine.json").read_text())
        engine = cls(
            ranking=manifest["ranking"],
            recognizer_model=None,
            enumeration=manifest["enumeration"],
            graph_strategy=manifest["graph_strategy"],
        )
        if manifest["has_recognizer"]:
            engine.recognizer = load_recognizer(directory / "recognizer.json")
        if manifest["has_ltr"]:
            engine.ltr = load_ltr(directory / "ltr.json")
        if engine.ranking == "hybrid":
            alpha = manifest["hybrid_alpha"]
            engine.hybrid = HybridRanker(
                engine.ltr,
                PartialOrderRanker(engine.graph_strategy),
                # alpha = 0.0 is a legitimate learned value (pure LTR).
                alpha=1.0 if alpha is None else float(alpha),
            )
        engine._trained = True
        return engine

    # ------------------------------------------------------------------
    def top_k(
        self,
        table: Table,
        k: int = 10,
        events: Optional[EventLog] = None,
        provenance: Optional[bool] = None,
        tracer: Optional[Tracer] = None,
        record_slo: bool = True,
    ) -> SelectionResult:
        """Select the top-k visualizations for a table.

        All three ranking modes run through the same
        :func:`~repro.core.selection.select_top_k` phases (enumerate ->
        recognize -> rank), so timings and fallback semantics cannot
        drift between them; they differ only in the ranker handed to
        the rank phase.

        ``events`` / ``provenance`` / ``tracer`` override the
        engine-level settings for this call (the batch driver uses the
        ``events`` and ``tracer`` overrides to capture per-table worker
        logs and span trees it merges in input order).  ``record_slo``
        lets the batch driver disable per-call SLO recording — it
        records one outcome per table itself, with queue effects and
        worker identity in hand.  ``select_top_k`` runs under this
        call's :class:`~repro.obs.context.Observer`, which adds the SLO
        monitor to its sinks.
        """
        if self.ranking == "partial_order":
            ranker: Union[str, object] = "partial_order"
            recognizer = self.recognizer if self._trained else None
        elif not self._trained:
            raise ModelError(
                f"ranking={self.ranking!r} requires train() before top_k()"
            )
        elif self.ranking == "learning_to_rank":
            ranker = "learning_to_rank"
            recognizer = self.recognizer
        else:  # hybrid: the paper's best configuration
            ranker = self.hybrid
            recognizer = self.recognizer
        tracer = self.tracer if tracer is None else tracer
        events = self.events if events is None else events
        with Observer(
            tracer, self.metrics, events, self.slo if record_slo else None
        ) as observer:
            result = select_top_k(
                table,
                k=k,
                enumeration=self.enumeration,
                ranker=ranker,
                recognizer=recognizer,
                ltr=self.ltr,
                config=self.config,
                graph_strategy=self.graph_strategy,
                cache=self.cache,
                tracer=tracer,
                metrics=self.metrics,
                events=events,
                provenance=self.provenance if provenance is None else provenance,
            )
        observer.served(result)
        return result

    def top_k_batch(
        self,
        tables: Iterable[Table],
        k: int = 10,
        n_jobs: Optional[int] = None,
        backend: Optional[str] = None,
        dedup: Optional[bool] = None,
    ) -> Iterator[SelectionResult]:
        """Serve a batch of tables, streaming results in input order.

        The trained models are shared across the pool (pickled once per
        process worker); ``n_jobs``/``backend`` default to this engine's
        config.  Yields one :class:`SelectionResult` per table as soon
        as it — and every earlier table — is done.

        When the engine has metrics enabled, each table records a
        per-worker ``batch_task_seconds`` latency sample and tables
        slower than ``self.slow_threshold`` seconds are prepended to
        the bounded :attr:`slow_tables` log (newest first).  With an
        engine-level event log, each table's full event stream is
        captured worker-side and merged back in input order.

        ``dedup`` controls cross-table computation sharing within the
        batch: identical ``(column content, transform)`` pairs across
        tables compute once and seed the transform cache before fan-out
        (on by default when the engine has a cache; the top-k is
        byte-identical either way).
        """
        # Imported here, not at module level: repro.engine.parallel
        # imports core enumeration modules, so importing it while this
        # package is still initialising would be circular.
        from ..engine.parallel import batch_select

        return batch_select(
            self,
            tables,
            k=k,
            n_jobs=n_jobs,
            backend=backend,
            metrics=self.metrics,
            slow_log=self.slow_tables,
            slow_threshold=self.slow_threshold,
            events=self.events,
            dedup=dedup,
            tracer=self.tracer,
            slo=self.slo,
        )
