"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import harness, tracing, workloads  # noqa: E402


# -- percentile sample-count rule ---------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert harness.tail_percentile([0.1] * 99, 0.9) is None
    assert harness.tail_percentile([0.1] * 100, 0.9) == pytest.approx(0.1)


def test_p90_value_on_a_known_series():
    values = [float(i) for i in range(1, 201)]
    assert harness.tail_percentile(values, 0.9) == pytest.approx(180.1)


def test_p99_needs_a_thousand_samples():
    assert harness.tail_percentile(list(range(999)), 0.99) is None
    assert harness.tail_percentile(list(range(1000)), 0.99) is not None


# -- self time over nested spans ----------------------------------------
def _span(i, start, end, parent):
    return tracing.Span(i, f"s{i}", start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),
        _span(2, 2.0, 3.0, 1),  # grandchild: counts against span 1 only
        _span(3, 5.0, 9.0, 0),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 6.0, 0),
        _span(2, 4.0, 8.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_recorder_patches_attribute_and_restores_it():
    class Layer:
        def work(self, x):
            return x * 2

    recorder = tracing.Recorder()
    recorder.patch(Layer, "work", "layer.work")
    original = Layer.__dict__["work"]
    recorder.install()
    with recorder.request(7, "select"):
        assert Layer().work(3) == 6
    recorder.uninstall()
    assert Layer.__dict__["work"] is original
    names = {span.name: span for span in recorder.spans}
    assert names["layer.work"].parent == names["bench.request"].id
    assert names["layer.work"].request_id == 7
    assert recorder.roots("select") == [names["bench.request"]]


# -- seed determinism ----------------------------------------------------
def test_zipf_stream_is_a_function_of_the_seed():
    a = workloads.zipf_stream(np.random.default_rng(5), 42, 500, (5, 10))
    b = workloads.zipf_stream(np.random.default_rng(5), 42, 500, (5, 10))
    c = workloads.zipf_stream(np.random.default_rng(6), 42, 500, (5, 10))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    picks, ks = a
    assert picks.min() >= 0 and picks.max() < 42
    assert set(ks.tolist()) == {5, 10}
    # Skewed: the most popular item outdraws the least popular one.
    assert np.sum(picks == 0) > np.sum(picks == 41)


def test_append_batches_are_a_function_of_the_seed():
    def batches(seed):
        rng = np.random.default_rng(seed)
        return [workloads.append_batch(rng) for _ in range(6)]

    first, again = batches(11), batches(11)
    assert first == again
    assert batches(12) != first
    assert {len(b) for b in first} <= set(workloads.BATCH_SIZES)


def test_living_table_is_a_function_of_the_seed():
    a = workloads.living_table(np.random.default_rng(3), 500)
    b = workloads.living_table(np.random.default_rng(3), 500)
    assert a.fingerprint() == b.fingerprint()
    assert [c.ctype.name for c in a.columns] == [
        "CATEGORICAL", "CATEGORICAL", "NUMERICAL", "TEMPORAL"
    ]


# -- golden prefix check -------------------------------------------------
GOLDEN = [f"chart{i}" for i in range(10)]


def test_prefix_of_the_golden_passes_for_every_k():
    for k in range(0, 11):
        assert harness.golden_prefix_ok(GOLDEN, GOLDEN[:k], k)


def test_reordered_shorter_or_foreign_top_k_fails():
    assert not harness.golden_prefix_ok(GOLDEN, GOLDEN[1::-1], 2)
    assert not harness.golden_prefix_ok(GOLDEN, GOLDEN[:2], 3)
    assert not harness.golden_prefix_ok(GOLDEN, GOLDEN[:2] + ["other"], 3)


def test_failed_requests_are_counted_not_dropped():
    outcome = harness.Outcome()
    outcome.record(0.5, True)
    outcome.record(0.7, False, "x10: top-k mismatch")
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert outcome.latencies == [0.5, 0.7]
    assert outcome.failures == ["x10: top-k mismatch"]
