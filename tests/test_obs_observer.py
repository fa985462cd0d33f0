"""The request observer: kernel accounting that follows the request
context, the one failure record, and the untraced fast path."""

import contextvars

import pytest

from repro.core.selection import select_top_k
from repro.corpus.generators import make_table
from repro.engine import IncrementalSession
from repro.engine.parallel import parallel_enumerate
from repro.errors import SelectionError
from repro.obs import EventLog, MetricsRegistry, Tracer
from repro.obs.context import Observer, current_observer
from repro.obs.kernels import KERNEL_STATS


def _kernel_samples(registry: MetricsRegistry) -> int:
    family = registry.to_json().get("kernel_seconds", {"series": []})
    return sum(entry["count"] for entry in family["series"])


class TestKernelAttribution:
    def test_thread_fanout_counts_toward_the_calling_request(self):
        table = make_table("NFL Player Statistics", scale=0.03, seed=1)
        registry = MetricsRegistry()
        before = KERNEL_STATS.snapshot()
        with Observer(metrics=registry):
            parallel_enumerate(table, "rules", n_jobs=2, backend="thread")
        process_calls = sum(
            delta["calls"] for delta in KERNEL_STATS.delta_since(before).values()
        )
        assert process_calls > 0
        assert _kernel_samples(registry) == process_calls

    def test_kernel_ledger_follows_the_context(self, tiny_table):
        from repro.language.binning import bin_numeric

        outside = Observer(metrics=MetricsRegistry())
        inside = Observer(metrics=MetricsRegistry())
        column = tiny_table.column("value")
        with inside:
            bin_numeric(column, 2)
            contextvars.copy_context().run(bin_numeric, column, 2)
        assert inside.kernels.calls("bin_numeric") == 2
        assert outside.kernels.calls() == 0


class _RankerWithoutRank:
    pass


class TestOneErrorRecord:
    def test_selection_failure_is_recorded_once(self, flights_table):
        log, registry = EventLog(), MetricsRegistry()
        with pytest.raises(SelectionError):
            select_top_k(
                flights_table, k=3, ranker=_RankerWithoutRank(),
                events=log, metrics=registry,
            )
        errors = log.by_kind("error")
        assert len(errors) == 1
        assert errors[0]["error"].startswith("SelectionError:")
        series = registry.to_json()["errors_total"]["series"]
        assert len(series) == 1
        assert series[0]["labels"] == {"stage": "rank", "kind": "SelectionError"}
        assert series[0]["value"] == 1
        exemplars = [
            line for line in registry.to_prometheus_text().splitlines()
            if line.startswith("errors_total{")
        ]
        assert f'request_id="{errors[0]["request_id"]}"' in exemplars[0]

    def test_append_failure_is_recorded_once(self, tiny_table, monkeypatch):
        import repro.engine.incremental as incremental

        log, registry = EventLog(), MetricsRegistry()
        session = IncrementalSession(
            tiny_table, k=3, events=log, metrics=registry
        )

        def broken(*args, **kwargs):
            raise RuntimeError("enumeration failed")

        monkeypatch.setattr(incremental, "enumerate_candidates", broken)
        with pytest.raises(RuntimeError):
            session.append([["d", 7.0, tiny_table.column("when").values[0]]])
        errors = log.by_kind("error")
        assert len(errors) == 1
        series = registry.to_json()["errors_total"]["series"]
        assert [s["labels"] for s in series] == [
            {"stage": "enumerate", "kind": "RuntimeError"}
        ]

    def test_engine_failure_fails_its_slo_once(self, flights_table):
        from repro.core import DeepEye
        from repro.obs.health import SLOMonitor

        monitor = SLOMonitor.with_default_objectives()
        log = EventLog()
        engine = DeepEye(
            ranking="partial_order", recognizer_model=None, cache=False,
            events=log, slo=monitor,
        )
        with pytest.raises(SelectionError):
            engine.top_k(flights_table, k=-1)
        errors = monitor.status("selection_errors")
        assert errors.total == 1 and errors.good == 0
        assert len(log.by_kind("error")) == 1


class TestObserver:
    def test_untraced_span_is_a_no_op_stand_in(self):
        with Observer().span("anything", k=1) as span:
            assert span.set("k", 2).add("n") is span

    def test_traced_span_records(self):
        tracer = Tracer()
        with Observer(tracer).span("real", k=1) as span:
            assert span is tracer.current
        assert tracer.find("real").attributes == {"k": 1}

    def test_untraced_phases_still_time(self):
        observer = Observer()
        with observer.phase("enumerate") as span:
            span.add("candidates", 3).set("note", "ignored")
        assert set(observer.timings) == {"enumerate"}
        assert observer.kernels is None

    def test_caller_bound_observer_is_reused_for_the_same_sinks(self):
        registry = MetricsRegistry()
        with Observer(metrics=registry) as bound:
            assert Observer.for_request(metrics=registry) is bound
            assert Observer.for_request() is not bound
        assert current_observer() is None
