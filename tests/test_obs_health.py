"""Tests for SLO burn-rate monitoring and the runtime vitals sampler."""

import threading

import pytest

from repro.core import DeepEye
from repro.engine import MultiLevelCache
from repro.obs import (
    SLO,
    MetricsRegistry,
    RuntimeSampler,
    SLOMonitor,
    read_rss_bytes,
)
from repro.obs.health import DEFAULT_WINDOWS


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSLOValidation:
    def test_target_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            SLO(name="x", target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", target=0.0)

    def test_latency_kind_requires_threshold(self):
        with pytest.raises(ValueError):
            SLO(name="x", target=0.99, kind="latency")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SLO(name="x", target=0.99, kind="quantile")

    def test_duplicate_names_rejected(self):
        monitor = SLOMonitor()
        monitor.add(SLO(name="x", target=0.9))
        with pytest.raises(ValueError):
            monitor.add(SLO(name="x", target=0.9))


class TestBurnRates:
    def test_burn_rate_math(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            objectives=[SLO(name="errors", target=0.9,
                            windows=((60.0, 2.0),))],
            clock=clock,
        )
        # 8 good + 2 bad = 90% compliance = burn exactly 1.0
        for _ in range(8):
            monitor.record_outcome("errors", True)
        for _ in range(2):
            monitor.record_outcome("errors", False)
        status = monitor.status("errors")
        window = status.windows[60.0]
        assert window["compliance"] == pytest.approx(0.8)
        assert window["burn_rate"] == pytest.approx(2.0)
        assert status.compliance == pytest.approx(0.8)

    def test_outcomes_age_out_of_the_window(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            objectives=[SLO(name="errors", target=0.9,
                            windows=((60.0, 2.0),))],
            clock=clock,
        )
        monitor.record_outcome("errors", False)
        clock.advance(120.0)
        monitor.record_outcome("errors", True)
        window = monitor.status("errors").windows[60.0]
        assert window["total"] == 1.0
        assert window["burn_rate"] == 0.0
        # All-time accounting keeps the aged-out record.
        assert monitor.status("errors").total == 2

    def test_alert_requires_every_window_burning(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            objectives=[SLO(
                name="errors", target=0.9,
                windows=((60.0, 2.0), (600.0, 1.0)),
            )],
            clock=clock,
        )
        # Old good traffic keeps the long window healthy even while
        # the short window burns hard.
        for _ in range(50):
            monitor.record_outcome("errors", True)
        clock.advance(300.0)
        for _ in range(4):
            monitor.record_outcome("errors", False)
        status = monitor.status("errors")
        assert status.windows[60.0]["burn_rate"] >= 2.0
        assert not status.alerting

        # Sustained failure lights both windows.
        for _ in range(80):
            monitor.record_outcome("errors", False)
        assert monitor.status("errors").alerting
        assert monitor.alerting() == ["errors"]
        assert monitor.snapshot()["healthy"] is False

    def test_empty_window_never_alerts(self):
        monitor = SLOMonitor(
            objectives=[SLO(name="errors", target=0.9)],
            clock=FakeClock(),
        )
        assert not monitor.status("errors").alerting

    def test_alert_callback_fires_on_transition_only(self):
        clock = FakeClock()
        monitor = SLOMonitor(
            objectives=[SLO(name="errors", target=0.9,
                            windows=((60.0, 1.0),))],
            clock=clock,
        )
        fired = []
        monitor.on_alert(lambda status: fired.append(status.name))
        for _ in range(5):
            monitor.record_outcome("errors", False)
        assert fired == ["errors"]
        # Recovery, then a fresh breach fires again.
        clock.advance(120.0)
        monitor.record_outcome("errors", True)
        monitor.record_outcome("errors", False)
        monitor.record_outcome("errors", False)
        assert fired == ["errors", "errors"]

    def test_latency_judged_against_threshold(self):
        monitor = SLOMonitor(
            objectives=[SLO(name="lat", target=0.5, kind="latency",
                            threshold=0.25, windows=((60.0, 2.0),))],
            clock=FakeClock(),
        )
        monitor.record_latency("lat", 0.1)
        monitor.record_latency("lat", 0.25)
        monitor.record_latency("lat", 0.9)
        status = monitor.status("lat")
        assert status.good == 2
        assert status.total == 3

    def test_unknown_objectives_are_ignored(self):
        monitor = SLOMonitor()
        monitor.record_latency("nope", 1.0)
        monitor.record_outcome("nope", False)
        with pytest.raises(KeyError):
            monitor.status("nope")

    def test_default_objectives_and_windows(self):
        monitor = SLOMonitor.with_default_objectives()
        assert set(monitor.names) == {
            "selection_latency", "selection_errors", "cache_hit_rate"
        }
        status = monitor.status("selection_latency")
        assert set(status.windows) == {w for w, _ in DEFAULT_WINDOWS}
        payload = status.to_dict()
        assert payload["name"] == "selection_latency"
        assert "300.0" in payload["windows"]


class TestBoundedState:
    def test_buckets_bounded_by_the_longest_window(self):
        clock = FakeClock()
        monitor = SLOMonitor.with_default_objectives(clock=clock)
        objectives = list(monitor._objectives.values())
        horizon = max(window for window, _ in DEFAULT_WINDOWS)
        most = 0
        for i in range(100_000):  # two fake hours, one outcome per step
            clock.advance(0.072)
            monitor.record_latency("selection_latency", 0.3 * (i % 7 == 0))
            monitor.record_outcome("selection_errors", i % 50 != 0)
            monitor.record_outcome("cache_hit_rate", i % 3 != 0)
            most = max(most, *(len(o.buckets) for o in objectives))
        assert most <= int(horizon) + 1 == 3601
        assert monitor.status("selection_errors").total == 100_000
        # The hour window holds the last hour's outcomes only.
        hour = monitor.status("selection_errors").windows[3600.0]
        assert 3600 / 0.072 - 20 <= hour["total"] <= 3600 / 0.072 + 20

    def test_whole_second_clock_matches_a_brute_force_recount(self):
        import random

        rng = random.Random(5)
        clock = FakeClock(now=5000.0)
        windows = ((60.0, 2.0), (300.0, 1.0), (7.0, 3.0))
        monitor = SLOMonitor(
            objectives=[SLO(name="errors", target=0.9, windows=windows)],
            clock=clock,
        )
        recorded = []
        for _ in range(2000):
            clock.advance(float(rng.choice((0, 0, 1, 1, 2, 5, 40, 400))))
            good = rng.random() < 0.8
            recorded.append((clock.now, good))
            monitor.record_outcome("errors", good)
            status = monitor.status("errors")
            assert status.total == len(recorded)
            assert status.good == sum(g for _, g in recorded)
            for window, _ in windows:
                inside = [g for ts, g in recorded if ts >= clock.now - window]
                assert status.windows[window]["total"] == len(inside)
                assert status.windows[window]["good"] == sum(inside)

    def test_window_membership_resolves_to_whole_seconds(self):
        clock = FakeClock(now=1000.9)
        monitor = SLOMonitor(
            objectives=[SLO(name="errors", target=0.9,
                            windows=((60.0, 2.0),))],
            clock=clock,
        )
        monitor.record_outcome("errors", False)
        clock.now = 1060.0  # floor(1000.9) >= 1060 - 60: still inside
        assert monitor.status("errors").windows[60.0]["total"] == 1.0
        clock.now = 1060.5  # 1000 < 1000.5: aged out
        assert monitor.status("errors").windows[60.0]["total"] == 0.0


class TestPipelineFeed:
    def test_engine_records_latency_errors_and_cache_hits(
        self, flights_table
    ):
        clock = FakeClock()
        monitor = SLOMonitor.with_default_objectives(clock=clock)
        engine = DeepEye(
            ranking="partial_order", cache=MultiLevelCache(), slo=monitor
        )
        engine.top_k(flights_table, k=2)
        engine.top_k(flights_table, k=2)  # result-cache hit
        latency = monitor.status("selection_latency")
        errors = monitor.status("selection_errors")
        hits = monitor.status("cache_hit_rate")
        assert latency.total == 2
        assert errors.total == 2 and errors.good == 2
        assert hits.total == 2 and hits.good == 1

    def test_batch_feeds_one_outcome_per_table(
        self, flights_table, tiny_table
    ):
        monitor = SLOMonitor.with_default_objectives(clock=FakeClock())
        engine = DeepEye(ranking="partial_order", slo=monitor)
        list(engine.top_k_batch([flights_table, tiny_table], k=2))
        assert monitor.status("selection_latency").total == 2
        assert monitor.status("selection_errors").good == 2

    def test_slo_true_builds_default_monitor_and_unpickles(
        self, flights_table
    ):
        import pickle

        engine = DeepEye(ranking="partial_order", slo=True)
        assert isinstance(engine.slo, SLOMonitor)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.slo is None
        assert len(clone.top_k(flights_table, k=2).nodes) == 2


class TestRuntimeSampler:
    def test_sample_once_sets_the_vitals_gauges(self):
        registry = MetricsRegistry()
        sampler = RuntimeSampler(registry)
        vitals = sampler.sample_once()
        assert vitals["process_threads"] >= 1
        assert vitals["process_rss_bytes"] > 0
        text = registry.to_prometheus_text()
        assert "process_rss_bytes" in text
        assert "process_gc_gen0_objects" in text
        assert "process_threads" in text

    def test_queue_depth_mapping_provider(self):
        registry = MetricsRegistry()
        sampler = RuntimeSampler(registry)
        cache = MultiLevelCache()
        cache.transforms.put("k", 1)
        sampler.register_queue("serving_cache", cache.level_sizes)
        vitals = sampler.sample_once()
        assert vitals["queue_depth:serving_cache:transforms"] == 1
        assert vitals["queue_depth:serving_cache:features"] == 0
        text = registry.to_prometheus_text()
        assert 'queue_depth{key="transforms",queue="serving_cache"}' in text

    def test_queue_depth_scalar_and_failing_providers(self):
        registry = MetricsRegistry()
        sampler = RuntimeSampler(registry)
        sampler.register_queue("pending", lambda: 7)
        sampler.register_queue("broken", lambda: 1 / 0)
        vitals = sampler.sample_once()
        assert vitals["queue_depth:pending"] == 7
        assert not any(key.endswith("broken") for key in vitals)

    def test_background_thread_samples_and_stops(self):
        registry = MetricsRegistry()
        with RuntimeSampler(registry, interval=0.01) as sampler:
            deadline = threading.Event()
            deadline.wait(0.1)
        assert sampler.samples_taken >= 1
        assert sampler._thread is None

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            RuntimeSampler(MetricsRegistry(), interval=0.0)

    def test_read_rss_bytes_on_linux(self):
        rss = read_rss_bytes()
        assert rss is not None and rss > 0
