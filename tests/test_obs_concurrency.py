"""Concurrent requests over one shared cache keep their telemetry apart.

Four threads each run ``select_top_k`` on their own table over one
shared :class:`~repro.engine.MultiLevelCache`, each with its own tracer,
registry and event log; one of them fans enumeration out over a thread
pool.  Every answer must equal the serial golden, and every request's
spans, events and kernel accounting must be exactly what the same
request records when it runs alone.
"""

import sys
import threading

import pytest

from repro.core.enumeration import EnumerationConfig
from repro.core.selection import select_top_k
from repro.corpus.generators import make_table
from repro.engine import MultiLevelCache
from repro.obs import EventLog, MetricsRegistry, Tracer
from repro.obs.drift import node_id

_TABLES = (
    "Hollywood's Stories",
    "NFL Player Statistics",
    "Happiness Rank",
    "McDonald's Menu",
)

#: The request that fans its enumeration out over a two-thread pool.
_FANNED = "NFL Player Statistics"


@pytest.fixture(scope="module")
def tables():
    return [make_table(name, scale=0.03, seed=1) for name in _TABLES]


def _config(table) -> EnumerationConfig:
    if table.name == _FANNED:
        return EnumerationConfig(n_jobs=2, backend="thread")
    return EnumerationConfig()


def _instrumented_run(table, cache):
    tracer, registry, log = Tracer(), MetricsRegistry(), EventLog()
    result = select_top_k(
        table, k=5, cache=cache, config=_config(table),
        tracer=tracer, metrics=registry, events=log,
    )
    return result, tracer, registry, log


def _kernel_samples(registry: MetricsRegistry) -> int:
    family = registry.to_json().get("kernel_seconds", {"series": []})
    return sum(entry["count"] for entry in family["series"])


def _kernel_calls(tracer: Tracer) -> dict:
    """The ``kernel.<name>.calls`` attributes of the enumerate span."""
    return {
        key: value
        for key, value in tracer.find("enumerate").attributes.items()
        if key.startswith("kernel.") and key.endswith(".calls")
    }


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)


def test_concurrent_requests_keep_their_telemetry_apart(tables):
    golden = {
        table.name: [node_id(n) for n in select_top_k(table, k=5).nodes]
        for table in tables
    }
    solo = {}
    for table in tables:
        _, tracer, registry, _ = _instrumented_run(table, MultiLevelCache())
        solo[table.name] = (_kernel_samples(registry), _kernel_calls(tracer))

    shared = MultiLevelCache()
    barrier = threading.Barrier(len(tables))
    runs = {}

    def serve(table):
        barrier.wait(timeout=60)
        runs[table.name] = _instrumented_run(table, shared)

    threads = [threading.Thread(target=serve, args=(t,)) for t in tables]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the requests finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    request_ids = set()
    for table in tables:
        result, tracer, registry, log = runs[table.name]
        assert [node_id(n) for n in result.nodes] == golden[table.name]
        span_ids = {
            span.attributes.get("request_id") for span in _walk(tracer.spans)
        }
        assert len(span_ids) == 1 and None not in span_ids
        assert {event.get("request_id") for event in log.events} == span_ids
        request_ids |= span_ids
        samples, calls = solo[table.name]
        assert _kernel_samples(registry) == samples, table.name
        assert _kernel_calls(tracer) == calls, table.name
    assert len(request_ids) == len(tables)
