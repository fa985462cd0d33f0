"""Tests for the tracing half of the observability layer."""

import json
import threading
import time

import pytest

from repro.obs import Span, Tracer


class TestSpanNesting:
    def test_child_spans_nest_under_parent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert [s.name for s in tracer.spans] == ["root"]
        root = tracer.spans[0]
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_sequential_roots_are_separate(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.spans] == ["first", "second"]

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_find_walks_the_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("deep"):
                pass
        assert tracer.find("deep").name == "deep"
        assert tracer.find("missing") is None


class TestSpanTiming:
    def test_timing_is_monotone_and_contained(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                time.sleep(0.002)
        root = tracer.spans[0]
        child = root.children[0]
        assert root.end >= root.start
        assert child.duration >= 0.002
        # The child's interval sits inside the parent's.
        assert child.start >= root.start
        assert child.end <= root.end
        assert root.duration >= child.duration

    def test_open_span_has_zero_duration(self):
        span = Span("open", start=1.0, thread_id=0)
        assert span.end is None
        assert span.duration == 0.0

    def test_exception_still_closes_and_records_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer.spans) == 1
        assert tracer.spans[0].end is not None


class TestSpanData:
    def test_attributes_and_counters(self):
        tracer = Tracer()
        with tracer.span("work", table="flights") as span:
            span.set("k", 5)
            span.add("candidates", 10)
            span.add("candidates", 2)
        span = tracer.spans[0]
        assert span.attributes == {"table": "flights", "k": 5}
        assert span.counters == {"candidates": 12.0}

    def test_to_dict_is_json_serialisable(self):
        tracer = Tracer()
        with tracer.span("root", obj=object()) as span:
            span.add("n", 1)
            with tracer.span("child"):
                pass
        payload = json.loads(tracer.to_json())
        (root,) = payload["spans"]
        assert root["name"] == "root"
        assert isinstance(root["attributes"]["obj"], str)  # coerced
        assert root["children"][0]["name"] == "child"


class TestChromeExport:
    def test_chrome_trace_structure(self):
        tracer = Tracer()
        with tracer.span("root", table="t") as span:
            span.add("candidates", 3)
            with tracer.span("child"):
                time.sleep(0.001)
        trace = tracer.to_chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["root", "child"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        root_event = events[0]
        assert root_event["args"]["table"] == "t"
        assert root_event["args"]["candidates"] == 3.0
        # Child interval contained in root, in microseconds.
        child = events[1]
        assert child["ts"] >= root_event["ts"]
        assert child["ts"] + child["dur"] <= root_event["ts"] + root_event["dur"] + 1

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"][0]["name"] == "only"


class TestThreads:
    def test_worker_thread_spans_become_own_roots(self):
        tracer = Tracer()

        def work():
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        names = sorted(s.name for s in tracer.spans)
        assert names == ["main", "worker"]
        by_name = {s.name: s for s in tracer.spans}
        # The worker span is not a child of main and carries its own tid.
        assert by_name["main"].children == []
        assert by_name["worker"].thread_id != by_name["main"].thread_id


class TestClear:
    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.clear()
        assert tracer.spans == []


class TestAdoptedWorkerTids:
    """Spans adopted from pool workers render on their own synthetic
    Chrome rows instead of interleaving with the parent's threads."""

    def _worker_trace(self, name):
        tracer = Tracer()
        with tracer.span(name):
            with tracer.span(f"{name}-child"):
                pass
        return tracer

    def test_each_worker_gets_a_distinct_synthetic_tid(self):
        parent = Tracer()
        with parent.span("batch"):
            pass
        for label in ("pid-100", "pid-200"):
            worker = self._worker_trace(f"task-{label}")
            parent.adopt(worker.spans, worker.epoch_unix, worker=label)
        trace = parent.to_chrome_trace()
        events = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        tid_a = events["task-pid-100"]["tid"]
        tid_b = events["task-pid-200"]["tid"]
        assert tid_a != tid_b
        # Synthetic tids sit in a narrow band above the base, one per
        # distinct worker label.
        assert {tid_a, tid_b} == {1_000_000, 1_000_001}
        # Parent spans keep their real thread id, outside that band.
        assert events["batch"]["tid"] not in {tid_a, tid_b}
        # Children ride on their root's synthetic row.
        assert events["task-pid-100-child"]["tid"] == tid_a
        assert events["task-pid-200-child"]["tid"] == tid_b

    def test_synthetic_tids_are_stable_across_exports(self):
        parent = Tracer()
        for label in ("pid-7", "pid-8", "pid-7"):
            worker = self._worker_trace(f"t-{label}")
            parent.adopt(worker.spans, worker.epoch_unix, worker=label)
        first = parent.to_chrome_trace()
        second = parent.to_chrome_trace()
        tids = lambda t: [
            e["tid"] for e in t["traceEvents"] if e["ph"] == "X"
        ]
        assert tids(first) == tids(second)
        # Both spans from the same worker share one row.
        by_name = {
            e["name"]: e["tid"] for e in first["traceEvents"]
            if e["ph"] == "X"
        }
        assert by_name["t-pid-7"] == sorted(
            tid for name, tid in by_name.items() if name == "t-pid-7"
        )[0]

    def test_thread_name_metadata_labels_worker_rows(self):
        parent = Tracer()
        worker = self._worker_trace("task")
        parent.adopt(worker.spans, worker.epoch_unix, worker="pid-42")
        trace = parent.to_chrome_trace()
        meta = [
            e for e in trace["traceEvents"] if e["ph"] == "M"
            and e["name"] == "thread_name"
        ]
        assert any(
            e["args"]["name"] == "worker pid-42" and e["tid"] == 1_000_000
            for e in meta
        )
        assert "epochUnix" in trace

    def test_adopt_rebases_worker_offsets_onto_parent_epoch(self):
        parent = Tracer()
        worker = Tracer()
        # Simulate a worker whose perf_counter epoch started 5 wall
        # seconds after the parent's.
        with worker.span("late"):
            pass
        parent.adopt(worker.spans, parent.epoch_unix + 5.0)
        (span,) = parent.spans
        assert span.start >= 5.0
