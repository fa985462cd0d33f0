"""Tests for the metrics half of the observability layer."""

import math

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    parse_exemplars,
    parse_prometheus_text,
    request_scope,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_set_cumulative_only_moves_forward(self):
        counter = Counter()
        counter.set_cumulative(10)
        counter.set_cumulative(4)  # stale sync: ignored
        assert counter.value == 10
        counter.set_cumulative(12)
        assert counter.value == 12


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_bounds(self):
        hist = Histogram(buckets=(10.0, 20.0, 30.0))
        hist.observe(10.0)  # exactly on a bound -> that bucket
        hist.observe(10.0001)  # just above -> next bucket
        hist.observe(31.0)  # beyond the last bound -> overflow slot
        assert hist.counts == [1, 1, 0, 1]
        assert hist.count == 3
        assert hist.min == 10.0
        assert hist.max == 31.0

    def test_invalid_buckets_rejected(self):
        for bad in ((), (2.0, 1.0), (1.0, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                Histogram(buckets=bad)

    def test_percentile_interpolates_within_bucket(self):
        hist = Histogram(buckets=(10.0, 20.0, 30.0))
        for value in (5.0, 15.0, 25.0):
            hist.observe(value)
        # rank(p50) = 1.5 -> second bucket (10, 20], halfway in: 15.0.
        assert hist.percentile(0.50) == pytest.approx(15.0)
        # rank(p99) = 2.97 -> third bucket interpolates to 29.7, then
        # clamps to the observed max.
        assert hist.percentile(0.99) == pytest.approx(25.0)

    def test_percentile_single_observation_clamps_to_value(self):
        hist = Histogram(buckets=(10.0,))
        hist.observe(5.0)
        assert hist.percentile(0.5) == pytest.approx(5.0)
        assert hist.percentile(0.99) == pytest.approx(5.0)

    def test_percentile_overflow_uses_observed_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(100.0)
        assert hist.percentile(0.9) == pytest.approx(100.0)

    def test_percentile_empty_is_nan_and_bad_q_raises(self):
        hist = Histogram(buckets=(1.0,))
        assert math.isnan(hist.percentile(0.5))
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_summary_keys(self):
        hist = Histogram(buckets=(1.0,))
        assert hist.summary() == {"count": 0, "sum": 0.0}
        hist.observe(0.5)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["sum"] == 0.5
        assert set(summary) == {"count", "sum", "min", "max", "p50", "p90", "p99"}


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", labels={"level": "results"})
        b = registry.counter("hits_total", labels={"level": "results"})
        c = registry.counter("hits_total", labels={"level": "features"})
        assert a is b
        assert a is not c

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", labels={"a": "1", "b": "2"})
        b = registry.counter("x_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_name_bound_to_first_kind(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        with pytest.raises(ValueError):
            registry.gauge("thing_total")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad name")

    def test_global_registry_is_a_singleton(self):
        assert global_registry() is global_registry()

    def test_reset_drops_families(self):
        registry = MetricsRegistry()
        registry.counter("gone_total").inc()
        registry.reset()
        assert registry.to_prometheus_text() == ""


class TestPrometheusExposition:
    def test_counter_and_gauge_round_trip(self):
        registry = MetricsRegistry()
        registry.counter(
            "requests_total", labels={"mode": "rules"}, help="Requests"
        ).inc(7)
        registry.gauge("queue_depth").set(3.5)
        text = registry.to_prometheus_text()
        assert "# HELP requests_total Requests" in text
        assert "# TYPE requests_total counter" in text
        samples = parse_prometheus_text(text)
        assert samples[("requests_total", (("mode", "rules"),))] == 7
        assert samples[("queue_depth", ())] == 3.5

    def test_histogram_exposition_is_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        samples = parse_prometheus_text(registry.to_prometheus_text())
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("lat_seconds_count", ())] == 3
        assert samples[("lat_seconds_sum", ())] == pytest.approx(5.55)

    def test_label_values_escape_and_round_trip(self):
        registry = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        registry.counter("esc_total", labels={"v": tricky}).inc()
        text = registry.to_prometheus_text()
        assert "\n" not in text.split("esc_total", 2)[2].split("\n")[0]
        samples = parse_prometheus_text(text)
        assert samples[("esc_total", (("v", tricky),))] == 1

    def test_to_json_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels={"k": "v"}).inc(2)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        payload = registry.to_json()
        assert payload["c_total"]["type"] == "counter"
        assert payload["c_total"]["series"][0] == {
            "labels": {"k": "v"},
            "value": 2.0,
        }
        assert payload["h_seconds"]["series"][0]["count"] == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("{not metrics}")


class TestExporterEdgeCases:
    """Prometheus exposition corners: escaping and degenerate histograms."""

    @pytest.mark.parametrize(
        "tricky",
        [
            "back\\slash",
            'quo"te',
            "new\nline",
            "\\n",  # literal backslash-n, not a newline
            "trailing\\",
            'all\\three"\nat once',
        ],
    )
    def test_each_escape_class_round_trips(self, tricky):
        registry = MetricsRegistry()
        registry.counter("edge_total", labels={"v": tricky}).inc()
        text = registry.to_prometheus_text()
        samples = parse_prometheus_text(text)
        assert samples[("edge_total", (("v", tricky),))] == 1

    def test_escaped_sample_stays_on_one_line(self):
        registry = MetricsRegistry()
        registry.counter("line_total", labels={"v": "a\nb\nc"}).inc()
        sample_lines = [
            line
            for line in registry.to_prometheus_text().splitlines()
            if line.startswith("line_total")
        ]
        assert len(sample_lines) == 1

    def test_single_bucket_percentiles_stay_in_observed_range(self):
        hist = Histogram(buckets=(10.0,))
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        estimates = [hist.percentile(q) for q in (0.0, 0.25, 0.5, 0.9, 1.0)]
        assert all(2.0 <= e <= 6.0 for e in estimates)
        assert estimates == sorted(estimates)

    def test_single_bucket_overflow_reports_observed_max(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(50.0)
        assert hist.percentile(0.5) == 50.0
        assert hist.summary()["p99"] == 50.0

    def test_empty_histogram_exports_without_samples_breaking_parse(self):
        registry = MetricsRegistry()
        registry.histogram("idle_seconds", buckets=(1.0,))
        samples = parse_prometheus_text(registry.to_prometheus_text())
        assert samples[("idle_seconds_count", ())] == 0
        assert samples[("idle_seconds_bucket", (("le", "+Inf"),))] == 0


class TestPercentileBucketBoundaries:
    """Interpolation at the first and last finite bucket edges."""

    def test_first_bucket_lower_edge_clamps_to_observed_min(self):
        # All mass in the first bucket: the interpolation's lower edge
        # is min(observed min, bucket bound), never a phantom zero.
        hist = Histogram(buckets=(10.0, 20.0))
        for value in (8.0, 9.0, 10.0):
            hist.observe(value)
        assert hist.percentile(0.0) == pytest.approx(8.0)
        low = hist.percentile(0.01)
        assert 8.0 <= low <= 10.0
        assert hist.percentile(1.0) == pytest.approx(10.0)

    def test_first_bucket_with_min_above_its_bound_stays_clamped(self):
        # min lands above the first bound (possible only when the first
        # bucket is empty): estimates still never fall below min.
        hist = Histogram(buckets=(10.0, 20.0))
        for value in (12.0, 14.0, 16.0):
            hist.observe(value)
        for q in (0.0, 0.3, 0.6, 1.0):
            assert 12.0 <= hist.percentile(q) <= 16.0

    def test_last_finite_bucket_upper_edge_clamps_to_observed_max(self):
        # All mass in the last finite bucket: q=1.0 reports the
        # observed max, not the bucket's upper bound.
        hist = Histogram(buckets=(10.0, 20.0))
        for value in (11.0, 12.0, 13.0):
            hist.observe(value)
        assert hist.percentile(1.0) == pytest.approx(13.0)
        assert hist.percentile(0.5) <= 13.0

    def test_quantile_spanning_into_overflow_uses_max(self):
        hist = Histogram(buckets=(10.0,))
        hist.observe(5.0)
        hist.observe(100.0)
        assert hist.percentile(1.0) == pytest.approx(100.0)
        assert hist.percentile(0.25) <= 10.0

    def test_estimates_are_monotone_across_the_boundary(self):
        hist = Histogram(buckets=(10.0, 20.0, 30.0))
        for value in (9.0, 10.0, 10.5, 19.0, 20.0, 25.0, 40.0):
            hist.observe(value)
        quantiles = [i / 20 for i in range(21)]
        estimates = [hist.percentile(q) for q in quantiles]
        assert estimates == sorted(estimates)
        assert estimates[0] >= 9.0
        assert estimates[-1] == pytest.approx(40.0)


class TestExemplars:
    def test_counter_line_carries_the_last_exemplar(self):
        registry = MetricsRegistry()
        with request_scope() as context:
            registry.counter("runs_total", labels={"mode": "rules"}).inc()
        text = registry.to_prometheus_text()
        (line,) = [
            l for l in text.splitlines() if l.startswith("runs_total")
        ]
        assert f'# {{request_id="{context.request_id}"}}' in line

    def test_histogram_exemplars_attach_per_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        with request_scope() as fast:
            hist.observe(0.05)
        with request_scope() as slow:
            hist.observe(5.0)
        exemplars = parse_exemplars(registry.to_prometheus_text())
        by_le = {
            e["labels"]["le"]: e for e in exemplars
            if e["name"] == "lat_seconds_bucket"
        }
        assert by_le["0.1"]["request_id"] == fast.request_id
        assert by_le["0.1"]["value"] == pytest.approx(0.05)
        assert by_le["+Inf"]["request_id"] == slow.request_id
        assert by_le["+Inf"]["value"] == pytest.approx(5.0)

    def test_round_trip_with_exemplars_preserves_samples(self):
        # The exemplar tail must be invisible to the value parser.
        registry = MetricsRegistry()
        with request_scope():
            registry.counter("a_total", labels={"k": "v"}).inc(3)
            registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        registry.gauge("g").set(2.5)
        text = registry.to_prometheus_text()
        samples = parse_prometheus_text(text)
        assert samples[("a_total", (("k", "v"),))] == 3
        assert samples[("h_seconds_bucket", (("le", "1"),))] == 1
        assert samples[("h_seconds_count", ())] == 1
        assert samples[("g", ())] == 2.5

    def test_no_scope_means_no_exemplars(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc()
        registry.histogram("plain_seconds", buckets=(1.0,)).observe(0.5)
        text = registry.to_prometheus_text()
        assert "#" not in text.replace("# HELP", "").replace("# TYPE", "")
        assert parse_exemplars(text) == []

    def test_exemplar_timestamps_parse(self):
        registry = MetricsRegistry()
        with request_scope():
            registry.counter("t_total").inc()
        (exemplar,) = parse_exemplars(registry.to_prometheus_text())
        assert exemplar["ts"] > 0

    def test_gauges_never_carry_exemplars(self):
        registry = MetricsRegistry()
        with request_scope():
            registry.gauge("depth").set(4)
        assert parse_exemplars(registry.to_prometheus_text()) == []

    def test_tricky_label_values_with_exemplar_tail(self):
        registry = MetricsRegistry()
        tricky = 'a"b\\c'
        with request_scope() as context:
            registry.counter("esc2_total", labels={"v": tricky}).inc()
        text = registry.to_prometheus_text()
        samples = parse_prometheus_text(text)
        assert samples[("esc2_total", (("v", tricky),))] == 1
        (exemplar,) = parse_exemplars(text)
        assert exemplar["request_id"] == context.request_id


class TestLockFreeHits:
    """Existing instruments are returned without validation or locking;
    creation and kind clashes still go through the locked path."""

    def test_kind_clash_raises_once_the_name_exists(self):
        registry = MetricsRegistry()
        registry.counter("clash_total", labels={"a": "1"}).inc()
        with pytest.raises(ValueError):
            registry.gauge("clash_total", labels={"a": "1"})
        with pytest.raises(ValueError):
            registry.histogram("clash_total", labels={"a": "1"})
        registry.gauge("level")
        with pytest.raises(ValueError):
            registry.counter("level")

    def test_invalid_name_raises_on_every_call(self):
        registry = MetricsRegistry()
        for _ in range(2):
            with pytest.raises(ValueError):
                registry.counter("bad name")
            with pytest.raises(ValueError):
                registry.gauge("9starts_with_digit")

    def test_hit_path_does_not_take_the_lock(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", labels={"level": "l1"})
        gauge = registry.gauge("entries", labels={"level": "l1"})
        import threading

        class CountingLock:
            def __init__(self):
                self.inner = threading.Lock()
                self.entered = 0

            def __enter__(self):
                self.entered += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        registry._lock = CountingLock()
        assert registry.counter("hits_total", labels={"level": "l1"}) is counter
        assert registry.gauge("entries", labels={"level": "l1"}) is gauge
        assert registry._lock.entered == 0
        registry.counter("hits_total", labels={"level": "l2"})
        assert registry._lock.entered > 0

    def test_histogram_keeps_first_buckets(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat_seconds", buckets=(1.0, 2.0))
        again = registry.histogram("lat_seconds", buckets=(5.0,))
        other = registry.histogram("lat_seconds", labels={"k": "v"}, buckets=(5.0,))
        assert first is again
        assert other.buckets == first.buckets

    def test_concurrent_first_use_creates_one_instrument(self):
        import sys
        import threading

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                registry = MetricsRegistry()
                start = threading.Barrier(8, timeout=10)
                seen = []

                def worker():
                    start.wait()
                    counter = registry.counter("race_total", labels={"k": "v"})
                    counter.inc()
                    seen.append(counter)
                    seen.append(registry.gauge("race_gauge"))

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                counters = {id(i) for i in seen if isinstance(i, Counter)}
                gauges = {id(i) for i in seen if isinstance(i, Gauge)}
                assert len(counters) == 1 and len(gauges) == 1
                family = registry._families["race_total"]
                assert len(family.instruments) == 1
                # No increment went to an instrument that was replaced.
                assert family.instruments[(("k", "v"),)].value == 8
        finally:
            sys.setswitchinterval(interval)
