"""Tests for the sampling wall-clock profiler."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import SamplingProfiler, Tracer, active_profiler


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(200))


class TestSampling:
    def test_samples_the_main_thread_stack(self):
        with SamplingProfiler(interval=0.001) as profiler:
            _spin(0.15)
        assert profiler.sample_count > 10
        stacks = profiler.stacks()
        assert stacks
        assert any(
            any(frame.endswith(":_spin") for frame in stack)
            for stack in stacks
        )
        # Its own frames (module label "profiler") never appear.
        for stack in stacks:
            assert not any(
                frame.startswith("profiler:") for frame in stack
            )

    def test_signal_mode_samples_without_sweeping_main(self):
        profiler = SamplingProfiler(interval=0.001, use_signal=True)
        with profiler:
            _spin(0.1)
        assert profiler.signal_samples > 0

    def test_sweep_only_mode_still_samples_main(self):
        profiler = SamplingProfiler(interval=0.001, use_signal=False)
        with profiler:
            _spin(0.15)
        assert profiler.signal_samples == 0
        assert profiler.sweep_samples > 0
        assert profiler.sample_count > 0

    def test_worker_threads_are_swept(self):
        stop = threading.Event()

        def busy_worker():
            while not stop.is_set():
                sum(range(200))

        worker = threading.Thread(target=busy_worker, name="busy")
        worker.start()
        try:
            with SamplingProfiler(interval=0.001) as profiler:
                time.sleep(0.15)
        finally:
            stop.set()
            worker.join()
        assert any(
            any(frame.endswith(":busy_worker") for frame in stack)
            for stack in profiler.stacks()
        )

    def test_span_attribution_prefixes_open_spans(self):
        tracer = Tracer()
        profiler = SamplingProfiler(interval=0.001, tracer=tracer)
        with profiler:
            with tracer.span("select_top_k"):
                with tracer.span("enumerate"):
                    _spin(0.15)
        prefixed = [
            stack for stack in profiler.stacks()
            if stack[:2] == ("select_top_k", "enumerate")
        ]
        assert prefixed


class TestLifecycle:
    def test_one_profiler_per_process(self):
        first = SamplingProfiler(interval=0.01).start()
        try:
            assert active_profiler() is first
            with pytest.raises(RuntimeError):
                SamplingProfiler(interval=0.01).start()
            with pytest.raises(RuntimeError):
                first.start()
        finally:
            first.stop()
        assert active_profiler() is None

    def test_stop_is_idempotent_and_accumulates_wall_time(self):
        profiler = SamplingProfiler(interval=0.01)
        profiler.start()
        time.sleep(0.02)
        profiler.stop()
        wall = profiler.wall_seconds
        assert wall > 0
        profiler.stop()
        assert profiler.wall_seconds == wall

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_signal_handler_is_restored(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        with SamplingProfiler(interval=0.01, use_signal=True):
            assert signal.getsignal(signal.SIGALRM) != before
        assert signal.getsignal(signal.SIGALRM) == before


class TestExport:
    def _profiled(self):
        profiler = SamplingProfiler(interval=0.002)
        with profiler:
            _spin(0.1)
        return profiler

    def test_collapsed_format(self):
        profiler = self._profiled()
        text = profiler.collapsed()
        assert text.endswith("\n")
        lines = text.strip().split("\n")
        counts = []
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack
            counts.append(int(count))
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == profiler.sample_count

    def test_empty_profiler_collapses_to_empty_string(self):
        assert SamplingProfiler().collapsed() == ""

    def test_speedscope_document(self):
        profiler = self._profiled()
        doc = profiler.to_speedscope(name="unit test")
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        frames = doc["shared"]["frames"]
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert profile["unit"] == "seconds"
        assert len(profile["samples"]) == len(profile["weights"])
        for sample in profile["samples"]:
            for index in sample:
                assert 0 <= index < len(frames)
        assert sum(profile["weights"]) == pytest.approx(
            profiler.sample_count * profiler.interval
        )
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))

    def test_write_files_round_trip(self, tmp_path):
        profiler = self._profiled()
        collapsed_path = tmp_path / "prof.collapsed"
        speedscope_path = tmp_path / "prof.speedscope.json"
        profiler.write_collapsed(collapsed_path)
        profiler.write_speedscope(speedscope_path)
        assert collapsed_path.read_text() == profiler.collapsed()
        doc = json.loads(speedscope_path.read_text())
        assert doc["profiles"][0]["samples"]

    def test_summary_accounting(self):
        profiler = self._profiled()
        summary = profiler.summary()
        assert summary["samples"] == profiler.sample_count
        assert (
            summary["signal_samples"] + summary["sweep_samples"]
            >= summary["samples"] - summary["sweep_samples"]
        )
        assert summary["distinct_stacks"] == len(profiler.stacks())
        assert summary["wall_seconds"] > 0


#: A signal tick delivered while the interrupted main thread holds a
#: lock the handler path could take.  Run in a subprocess so a deadlock
#: fails the test on its timeout instead of hanging the suite.
_TICK_UNDER_LOCK = """
import signal, sys
from repro.obs import SamplingProfiler, Tracer

tracer = Tracer()
profiler = SamplingProfiler(interval=60.0, tracer=tracer, use_signal=False)
profiler.start()
with tracer.span("outer"):
    with {lock}:
        profiler._on_signal(signal.SIGALRM, sys._getframe())
profiler.stop()
stacks = profiler.stacks()
assert sum(stacks.values()) == 1, stacks
assert all(stack[0] == "outer" for stack in stacks), stacks
print("ok")
"""


class TestSignalHandlerNeverBlocks:
    @pytest.mark.parametrize("lock", ["tracer._lock", "profiler._lock"])
    def test_tick_under_a_held_lock_returns_and_keeps_its_sample(self, lock):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _TICK_UNDER_LOCK.format(lock=lock)],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


class TestCliProfile:
    def test_profile_flag_writes_both_outputs(
        self, flights_table, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.dataset import write_csv

        csv_path = str(tmp_path / "t.csv")
        write_csv(flights_table, csv_path)
        profile_path = str(tmp_path / "prof.collapsed")
        assert main([
            "visualize", csv_path, "--k", "2", "--format", "list",
            "--profile", profile_path,
            "--profile-interval", "0.001",
        ]) == 0
        out = capsys.readouterr().out
        assert "# wrote profile to" in out
        collapsed = (tmp_path / "prof.collapsed").read_text()
        doc = json.loads(
            (tmp_path / "prof.collapsed.speedscope.json").read_text()
        )
        assert doc["profiles"][0]["weights"]
        # Span attribution: stacks group under the CLI command span.
        assert collapsed.startswith("visualize")
