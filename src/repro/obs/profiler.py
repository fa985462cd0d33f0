"""Low-overhead sampling wall-clock profiler with span attribution.

Answers the question the span tree cannot: *where inside a phase* did
the wall-clock go?  Spans bound the three coarse pipeline phases; the
:class:`SamplingProfiler` attributes time to the full Python call stack
under them, at a fixed sampling interval, without instrumenting any
code:

* **main thread** — ``signal.setitimer(ITIMER_REAL)`` delivers
  ``SIGALRM`` every ``interval`` seconds of wall-clock; the handler
  receives the interrupted frame directly, so main-thread samples cost
  one handler call and no thread introspection;
* **pool / worker threads** — a daemon sweeper thread wakes at the
  same interval and walks :func:`sys._current_frames` for every other
  live thread (signals only ever interrupt the main thread, so sweeping
  is the only way to see a ``ThreadPoolExecutor`` worker).

Each sample collapses its frame chain into a ``module:function`` stack,
root first.  When a :class:`~repro.obs.trace.Tracer` is attached, the
sampled thread's currently-open span names prefix the stack — the
flamegraph then reads *phase → function tree* (``select_top_k;
enumerate;binning:bin_numeric;...``), which is exactly the
request-latency attribution a serving fleet wants.

Exports: :meth:`SamplingProfiler.collapsed` emits the
``stack;stack;leaf count`` text `flamegraph.pl
<https://github.com/brendangregg/FlameGraph>`_ consumes, and
:meth:`SamplingProfiler.to_speedscope` the `speedscope
<https://www.speedscope.app>`_ sampled-profile JSON.  The CLI wires
both behind one ``--profile PATH`` flag on every pipeline command.

Limits, stated honestly: process-pool workers run in other processes,
which no in-process sampler can see — their samples attribute to the
parent's ``future.result()`` wait (the thread backend profiles fully).
POSIX clears interval timers across ``fork``, so a forked worker never
inherits a stray ``SIGALRM``.  On platforms without ``setitimer``
(Windows) or off the main thread, the profiler degrades to sweeping
every thread including the main one — same stacks, slightly coarser
main-thread timing.

Pure stdlib; sibling imports only (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from collections import Counter, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["SamplingProfiler", "active_profiler"]

#: Default sampling interval (seconds): 5ms ≈ 200Hz, low enough that a
#: multi-millisecond selection run lands tens of samples while keeping
#: handler overhead far under the 1.15x CI budget.
DEFAULT_INTERVAL = 0.005

#: Frames whose code lives in these files never appear in stacks (the
#: profiler watching itself, and the sweeper's own sleep).
_SELF_FILE = os.path.abspath(__file__)

_ACTIVE: Optional["SamplingProfiler"] = None
_ACTIVE_LOCK = threading.Lock()


def active_profiler() -> Optional["SamplingProfiler"]:
    """The currently-running profiler, if any (one per process)."""
    return _ACTIVE


#: Per-code-object label cache: sampling runs inside a signal handler,
#: where every saved path/split call directly buys sampling headroom.
_LABEL_CACHE: Dict[Any, Optional[str]] = {}


def _frame_label(code) -> Optional[str]:
    """``module:function`` label of one code object (``None`` for the
    profiler's own frames), cached and stable across runs."""
    label = _LABEL_CACHE.get(code)
    if label is None and code not in _LABEL_CACHE:
        filename = code.co_filename
        if os.path.abspath(filename) == _SELF_FILE:
            label = None
        else:
            module = os.path.splitext(os.path.basename(filename))[0]
            label = f"{module}:{code.co_name}"
        _LABEL_CACHE[code] = label
    return label


def _collapse(frame) -> Tuple[str, ...]:
    """The frame chain as a root-first tuple of labels, profiler frames
    dropped."""
    labels: List[str] = []
    while frame is not None:
        label = _frame_label(frame.f_code)
        if label is not None:
            labels.append(label)
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


class SamplingProfiler:
    """Aggregating sampling profiler; start/stop or use as a context
    manager.

    Parameters
    ----------
    interval:
        Seconds between samples (both the itimer period and the sweeper
        wake period).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when given, each
        sample is prefixed with the sampled thread's open span names
        (via :meth:`~repro.obs.trace.Tracer.open_stacks`), so stacks
        group under the phase that was running.
    use_signal:
        ``True``/``False`` forces the main-thread itimer on or off;
        ``None`` (default) auto-detects (requires ``signal.setitimer``
        and being called from the main thread).
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        tracer=None,
        use_signal: Optional[bool] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = float(interval)
        self.tracer = tracer
        self._use_signal_request = use_signal
        self.samples: Counter = Counter()
        self._lock = threading.Lock()
        # Samples taken while ``_lock`` is busy (a signal may interrupt
        # its holder): parked lock-free, folded in by the next access.
        self._parked: Deque[Tuple[str, ...]] = deque()
        self._running = False
        self._signal_active = False
        self._in_handler = False
        self._old_handler: Any = None
        self._sweeper: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._started_at: Optional[float] = None
        self.wall_seconds = 0.0
        self.sample_count = 0
        self.signal_samples = 0
        self.sweep_samples = 0

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "SamplingProfiler":
        """Install the itimer (when possible), start the sweeper, and
        register as the process's active profiler."""
        global _ACTIVE
        if self._running:
            raise RuntimeError("profiler already running")
        with _ACTIVE_LOCK:
            if _ACTIVE is not None:
                raise RuntimeError(
                    "another SamplingProfiler is already running in this "
                    "process"
                )
            _ACTIVE = self
        self._running = True
        self._started_at = time.perf_counter()
        self._stop_event.clear()

        want_signal = self._use_signal_request
        if want_signal is None:
            want_signal = (
                hasattr(signal, "setitimer")
                and threading.current_thread() is threading.main_thread()
            )
        if want_signal:
            try:
                self._old_handler = signal.signal(
                    signal.SIGALRM, self._on_signal
                )
                signal.setitimer(
                    signal.ITIMER_REAL, self.interval, self.interval
                )
                self._signal_active = True
            except (ValueError, OSError, AttributeError):
                # Not the main thread / no itimer support: sweep instead.
                self._signal_active = False
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="repro-profiler", daemon=True
        )
        self._sweeper.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Tear the timer and sweeper down; safe to call once only."""
        global _ACTIVE
        if not self._running:
            return self
        self._running = False
        if self._signal_active:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self._signal_active = False
        self._stop_event.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=max(1.0, 5 * self.interval))
            self._sweeper = None
        self.stacks()  # folds in parked samples
        if self._started_at is not None:
            self.wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        with _ACTIVE_LOCK:
            if _ACTIVE is self:
                _ACTIVE = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- sampling --------------------------------------------------------
    def _span_prefix(self, thread_id: int) -> Tuple[str, ...]:
        if self.tracer is None:
            return ()
        return self.tracer.open_stacks().get(thread_id, ())

    def _record(self, thread_id: int, frame) -> None:
        stack = self._span_prefix(thread_id) + _collapse(frame)
        if not stack:
            return
        if not self._lock.acquire(blocking=False):
            self._parked.append(stack)
            return
        try:
            self._unpark()
            self.samples[stack] += 1
            self.sample_count += 1
        finally:
            self._lock.release()

    def _unpark(self) -> None:
        """Fold parked signal-handler samples in (caller holds the lock)."""
        while self._parked:
            self.samples[self._parked.popleft()] += 1
            self.sample_count += 1

    def _on_signal(self, signum, frame) -> None:
        # The handler runs on the main thread with the interrupted
        # frame in hand — no _current_frames walk needed.  The guard
        # drops ticks that land while a previous handler is still
        # walking a deep stack: Python-level handlers re-enter, and at
        # small intervals that recursion would otherwise be unbounded.
        # It never blocks: a busy profiler lock (the interrupted code may
        # hold it) parks the sample; open-span names need no lock.
        if not self._running or self._in_handler:
            return
        self._in_handler = True
        try:
            self.signal_samples += 1
            self._record(threading.main_thread().ident, frame)
        finally:
            self._in_handler = False

    def _sweep_loop(self) -> None:
        main_ident = threading.main_thread().ident
        own_ident = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            frames = sys._current_frames()
            for thread_id, frame in frames.items():
                if thread_id == own_ident:
                    continue
                if thread_id == main_ident and self._signal_active:
                    continue  # the itimer owns main-thread sampling
                self.sweep_samples += 1
                self._record(thread_id, frame)

    # -- export ----------------------------------------------------------
    def stacks(self) -> Dict[Tuple[str, ...], int]:
        """The aggregated ``{stack tuple: sample count}`` map (a copy)."""
        with self._lock:
            self._unpark()
            return dict(self.samples)

    def collapsed(self) -> str:
        """The folded-stacks text ``flamegraph.pl`` consumes: one
        ``frame;frame;leaf count`` line per distinct stack, most
        samples first."""
        items = sorted(self.stacks().items(), key=lambda kv: (-kv[1], kv[0]))
        return "\n".join(
            ";".join(stack) + f" {count}" for stack, count in items
        ) + ("\n" if items else "")

    def write_collapsed(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.collapsed())

    def to_speedscope(self, name: str = "repro profile") -> Dict[str, Any]:
        """The speedscope sampled-profile JSON document (open at
        https://www.speedscope.app or with the local viewer)."""
        items = sorted(self.stacks().items())
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []
        samples: List[List[int]] = []
        weights: List[float] = []
        for stack, count in items:
            indexed = []
            for label in stack:
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                indexed.append(frame_index[label])
            samples.append(indexed)
            weights.append(count * self.interval)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro.obs.profiler",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }

    def write_speedscope(self, path, name: str = "repro profile") -> None:
        with open(path, "w") as handle:
            json.dump(self.to_speedscope(name), handle)

    def summary(self) -> Dict[str, Any]:
        """Headline accounting: samples, wall seconds, distinct stacks,
        and the sampling duty split (signal vs sweep)."""
        distinct = len(self.stacks())
        return {
            "interval": self.interval,
            "samples": self.sample_count,
            "signal_samples": self.signal_samples,
            "sweep_samples": self.sweep_samples,
            "distinct_stacks": distinct,
            "wall_seconds": self.wall_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._running else "stopped"
        return (
            f"SamplingProfiler({state}, interval={self.interval}, "
            f"samples={self.sample_count})"
        )
