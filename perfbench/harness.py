"""Measurement helpers: the closed-loop client, percentiles, goldens.

The client is a single closed loop: one request in flight, the
next sent as soon as the previous one returns, no think time.  Every
request is timed on its own, checked against its golden outside the
timed region, and counted as failed when it raised or returned a
different top-k.  Failures are never filtered out.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile (0 < q < 1) of ``values``, or ``None`` when
    fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond it (p90 needs
    at least 100 samples)."""
    n = len(values)
    if n * (1.0 - q) < MIN_TAIL_SAMPLES - 1e-9:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def golden_prefix_ok(golden: Sequence[str], got: Sequence[str], k: int) -> bool:
    """True when ``got`` is exactly the first ``k`` ids of ``golden``,
    position by position (a top-k for any k is a prefix of the top-10)."""
    return list(got) == list(golden[:k])


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """Latencies and failures of one measured request stream."""

    latencies: List[float] = field(default_factory=list)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, seconds: float, ok: bool, why: str = "") -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(why)

    @property
    def requests_per_s(self) -> float:
        return self.attempted / self.wall if self.wall > 0 else 0.0


def drive(
    workload,
    seconds: float,
    passes: Iterable[List[object]],
    outcome: Outcome,
    recorder=None,
    untraced_outcome: Optional[Outcome] = None,
) -> None:
    """Serve requests from ``passes`` until ``seconds`` have elapsed.

    Pass-based workloads (``workload.whole_passes``) always finish the
    pass they are in, so every run serves the same request mix; stream
    workloads stop at the first request past the deadline.  With a
    ``recorder``, blocks alternate between traced (patches installed)
    and untraced (original code) so both see the same state evolution;
    untraced blocks record into ``untraced_outcome``.
    """
    deadline = time.perf_counter() + seconds
    block = 0
    for requests in passes:
        for unit in _blocks(workload, requests):
            tracing = recorder is not None and block % 2 == 1
            block += 1
            target = outcome if tracing or recorder is None else untraced_outcome
            if tracing:
                recorder.install()
            try:
                start = time.perf_counter()
                for request in unit:
                    _serve_one(workload, request, target, recorder if tracing else None)
                target.wall += time.perf_counter() - start
            finally:
                if tracing:
                    recorder.uninstall()
            if not workload.whole_passes and _done(deadline, outcome, untraced_outcome):
                return
        if _done(deadline, outcome, untraced_outcome):
            return


def _done(deadline: float, outcome: Outcome, untraced: Optional[Outcome]) -> bool:
    """Past the deadline, with at least one request in each outcome."""
    if time.perf_counter() < deadline or outcome.attempted == 0:
        return False
    return untraced is None or untraced.attempted > 0


def _blocks(workload, requests: List[object]) -> List[List[object]]:
    size = workload.block_size or len(requests)
    return [requests[i:i + size] for i in range(0, len(requests), size)]


def _serve_one(workload, request, outcome: Outcome, recorder) -> None:
    kind = workload.kind_of(request)
    start = time.perf_counter()
    try:
        if recorder is not None:
            with recorder.request(outcome.attempted, kind):
                result = workload.serve(request)
        else:
            result = workload.serve(request)
    except Exception as exc:  # a failed request is data, not a crash
        outcome.record(
            time.perf_counter() - start, False,
            f"{workload.describe(request)}: {type(exc).__name__}: {exc}",
        )
        return
    elapsed = time.perf_counter() - start
    ok = workload.check(request, result)
    outcome.record(
        elapsed, ok, "" if ok else f"{workload.describe(request)}: top-k mismatch"
    )


def environment(seed: int, root: str) -> Dict[str, object]:
    """What a result must carry to be reproduced."""
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(root),
        "src_sha256": _source_digest(os.path.join(root, "src")),
    }


def _source_digest(src: str) -> str:
    """SHA-256 over the program's source files, for checkouts that are
    not git repositories (first 16 hex digits)."""
    digest = hashlib.sha256()
    for folder, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"
