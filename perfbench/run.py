"""Layered end-to-end benchmark of the DeepEye engine.

Serves one named workload as a single closed-loop client (one request
in flight, no think time, serial) and prints, as the last line of
standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (set-up time,
throughput, median latency, peak RSS); with ``--trace 1`` they are the
per-layer ones from a run whose requests alternate, block by block,
between traced and untraced, so the trace overhead is measured on the
same state.  Lines before the JSON give every metric by name and unit,
the p90 latency where at least 100 samples back it, the error rate, and
what the numbers were measured on.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_cold --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Set-up runs per run; the median is reported, the last one serves.
SETUP_REPEATS = 3
#: Where traced runs write their spans (inside the checkout).
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_benchmark():
    """Import the program from ``src/``; exit 2 when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    from perfbench import harness, layers, tracing, workloads

    return harness, layers, tracing, workloads


def main(argv=None) -> int:
    args = _parse(argv)
    # Turn SIGTERM into SystemExit so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness, layers, tracing, workloads = _import_benchmark()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        start = time.perf_counter()
        workload.fixture(args.seed, workdir)
        fixture_s = time.perf_counter() - start

        setup_runs = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_runs.append(
                workload.setup_seconds(time.perf_counter() - start)
            )

        start = time.perf_counter()
        workload.prepare()
        gc.collect()
        fixture_s += time.perf_counter() - start

        rng = np.random.default_rng([args.seed, 1])
        outcome = harness.Outcome()
        recorder = untraced = None
        if args.trace:
            recorder = tracing.Recorder()
            layers.install_layer_patches(recorder)
            untraced = harness.Outcome()
        harness.drive(
            workload, args.seconds, workload.passes(rng), outcome,
            recorder=recorder, untraced_outcome=untraced,
        )
        peak = harness.peak_rss_mb()
        counters = workload.counters()
        defects = workload.known_defects()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK_ROOT)

    env = harness.environment(args.seed, ROOT)
    print(f"# perfbench workload={workload.name} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# why: {workload.why}")
    total = outcome if untraced is None else _merge(harness, outcome, untraced)
    failures = total.failures
    for line in failures:
        print(f"# FAILED {line}")
    for line in defects:
        print(f"# KNOWN DEFECT (untimed, outside the result) {line}")
    if args.trace:
        metrics = layers.per_layer_metrics(recorder, *counters)
        metrics["bench.fixture_s"] = fixture_s
        metrics["bench.requests_per_s.untraced"] = untraced.requests_per_s
        metrics["bench.requests_per_s.traced"] = outcome.requests_per_s
        metrics["bench.trace_overhead"] = (
            outcome.requests_per_s / untraced.requests_per_s
            if untraced.requests_per_s else 0.0
        )
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(
            TRACE_DIR, f"spans-{workload.name}-seed{args.seed}.json"
        )
        recorder.write(trace_path)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        for name, unit, _ in layers.PER_LAYER:
            print(f"{name:40s} {metrics[name]:14.6g} {unit}")
        print(f"# trace overhead: traced {outcome.requests_per_s:.4g}/s "
              f"({outcome.attempted} requests) / untraced "
              f"{untraced.requests_per_s:.4g}/s ({untraced.attempted} requests)")
        print(f"# spans written to {os.path.relpath(trace_path, ROOT)}")
        for layer, moves, where in layers.PREDICTIONS:
            print(f"# predicts: {layer} -> {moves} on {where}")
        reported = {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        }
    else:
        p90 = harness.tail_percentile(outcome.latencies, 0.9)
        values = {
            "setup_s": (statistics.median(setup_runs), "s"),
            "requests_per_s": (outcome.requests_per_s, "1/s"),
            "latency_p50_s": (statistics.median(outcome.latencies), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        n = len(outcome.latencies)
        for name, (value, unit) in values.items():
            samples = f"  [n={n}]" if name == "latency_p50_s" else ""
            print(f"{name:16s} {value:14.6g} {unit}{samples}")
        print(f"{'latency_p90_s':16s} "
              + (f"{p90:14.6g} s" if p90 is not None
                 else f"{'n/a':>14s} s (needs 100 samples)")
              + f"  [n={n}]")
        print(f"{'error_rate':16s} {total.failed / total.attempted:14.6g} "
              f"ratio ({total.failed} of {total.attempted})")
        print(f"{'bench.fixture_s':16s} {fixture_s:14.6g} s")
        print(f"# setup runs: {', '.join(f'{s:.4f}' for s in setup_runs)}; "
              f"latency samples: {n}; wall {outcome.wall:.3f} s")
        reported = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        }
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": reported,
    }))
    return 0


def _merge(harness, *outcomes):
    merged = harness.Outcome()
    for outcome in outcomes:
        merged.attempted += outcome.attempted
        merged.failed += outcome.failed
        merged.failures.extend(outcome.failures)
    return merged


if __name__ == "__main__":
    sys.exit(main())
