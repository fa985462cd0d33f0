"""Tests for incremental append-delta top-k maintenance.

The acceptance bar: after *any* sequence of appends, the session's
top-k — chart ids, order, and scores — is byte-identical to a
from-scratch ``select_top_k`` over the grown table, gated through
``classify_drift`` exactly as the CI job does.
"""

import datetime as dt

import numpy as np
import pytest

from repro import IncrementalSession, Table
from repro.core import select_top_k
from repro.core.enumeration import EnumerationConfig
from repro.engine import DiskCacheTier, MultiLevelCache
from repro.engine.incremental import AppendReport, IncrementalDriftError
from repro.errors import DatasetError, SelectionError
from repro.obs import MetricsRegistry, Tracer, parse_prometheus_text
from repro.obs.drift import classify_drift, entry_from_result
from repro.obs.events import EventLog


def _rows(seed, n, new_label=False, nan_price=False):
    rng = np.random.default_rng(seed)
    cats = ["alpha", "beta", "gamma", "delta"]
    rows = []
    for i in range(n):
        label = "epsilon" if new_label and i == 0 else cats[rng.integers(4)]
        price = float("nan") if nan_price and i == 0 else float(rng.normal(50, 10))
        rows.append(
            [
                label,
                price,
                float(rng.integers(0, 1000)),
                dt.date(2020 + int(rng.integers(5)), int(rng.integers(1, 13)), int(rng.integers(1, 28))),
            ]
        )
    return rows


def _living_table(seed=0, n=150):
    return Table.from_rows(
        "living", ["region", "price", "units", "day"], _rows(seed, n)
    )


def _scratch_entry(table, k=5):
    result = select_top_k(table, k=k, provenance=True)
    return entry_from_result(table.name, table.fingerprint(), result)


class TestByteIdentity:
    def test_every_append_matches_scratch(self):
        session = IncrementalSession(_living_table(), k=5)
        for seed, batch in enumerate(
            [_rows(1, 40), _rows(2, 120, new_label=True), _rows(3, 1), _rows(4, 64)]
        ):
            session.append(batch)
            drift = classify_drift(
                _scratch_entry(session.table), session.entry
            )
            assert drift["kind"] == "identical", drift

    def test_auto_verify_never_raises_over_sequences(self):
        session = IncrementalSession(_living_table(3, 120), k=4, auto_verify=True)
        for batch in [_rows(7, 30), _rows(8, 90, new_label=True), [], _rows(9, 15)]:
            session.append(batch)
        assert session.epoch == 3  # the empty batch is not an epoch

    def test_verify_returns_identical_report(self):
        session = IncrementalSession(_living_table(), k=5)
        session.append(_rows(5, 50))
        report = session.verify()
        assert report["kind"] == "identical"
        assert report["epoch"] == 1

    def test_verify_raises_on_tampered_state(self):
        session = IncrementalSession(_living_table(), k=5)
        session.append(_rows(5, 50))
        session._entry = dict(session._entry, chart_ids=["bogus"], scores=[1.0])
        with pytest.raises(IncrementalDriftError) as excinfo:
            session.verify()
        assert excinfo.value.report["kind"] in ("churned", "missing")

    def test_nan_append_invalidates_and_still_matches_scratch(self):
        # A NaN row reaching the numeric column makes its binning
        # transforms inexecutable; the session must converge to exactly
        # what scratch produces for the grown (NaN-bearing) table.
        session = IncrementalSession(_living_table(), k=5)
        report = session.append(_rows(6, 20, nan_price=True))
        assert report.transforms_invalidated > 0
        assert session.verify()["kind"] == "identical"
        # ...and keep matching on subsequent appends.
        session.append(_rows(7, 20))
        assert session.verify()["kind"] == "identical"

    def test_new_label_batch_grows_buckets_not_rebuilds(self):
        session = IncrementalSession(_living_table(), k=5)
        report = session.append(_rows(2, 30, new_label=True))
        assert report.transforms_merged > 0
        assert session.verify()["kind"] == "identical"


class TestSharedPipeline:
    def test_append_runs_select_top_k_phases(self, monkeypatch):
        import repro.core.selection as selection

        seen = []
        for name in ("_recognize_phase", "_rank_phase"):
            phase = getattr(selection, name)

            def spy(*args, _name=name, _phase=phase, **kwargs):
                seen.append(_name)
                return _phase(*args, **kwargs)

            monkeypatch.setattr(selection, name, spy)
        session = IncrementalSession(_living_table(), k=5)
        assert seen == ["_recognize_phase", "_rank_phase"]
        seen.clear()
        report = session.append(_rows(1, 40))
        assert seen == ["_recognize_phase", "_rank_phase"]
        assert report.raw_m_reused + report.raw_m_computed == (
            report.result.candidates
        )
        assert session.verify()["kind"] == "identical"


class TestAppendReport:
    def test_report_shape(self):
        session = IncrementalSession(_living_table(), k=3)
        report = session.append(_rows(1, 25))
        assert isinstance(report, AppendReport)
        assert report.epoch == 1
        assert report.appended_rows == 25
        assert report.total_rows == 175
        assert report.fingerprint == session.table.fingerprint()
        assert set(report.timings) >= {"merge", "enumerate", "recognize", "rank"}
        assert report.transforms_merged + report.transforms_rebuilt > 0

    def test_empty_append_is_identical_and_free(self):
        session = IncrementalSession(_living_table(), k=3)
        before = session.topk_ids
        report = session.append([])
        assert report.appended_rows == 0
        assert report.drift["kind"] == "identical"
        assert not report.churned
        assert session.topk_ids == before
        assert session.epoch == 0

    def test_k_must_be_non_negative(self):
        with pytest.raises(SelectionError):
            IncrementalSession(_living_table(), k=-1)

    def test_schema_is_pinned_on_append(self):
        session = IncrementalSession(_living_table(), k=3)
        with pytest.raises(DatasetError):
            session.append([["alpha", 1.0]])  # wrong cell count


class TestChurnSubscription:
    def test_callback_fires_only_on_churn(self):
        session = IncrementalSession(_living_table(), k=5)
        seen = []
        unsubscribe = session.subscribe(lambda r: seen.append(r.epoch))
        session.append([])  # identical -> no callback
        assert seen == []
        # A large skewed batch reshapes most aggregates.
        report = session.append(_rows(11, 200, new_label=True))
        if report.churned:
            assert seen == [report.epoch]
        else:
            assert seen == []
        unsubscribe()
        session.append(_rows(12, 200))
        assert len(seen) <= 1  # no further deliveries after unsubscribe

    def test_unsubscribe_is_idempotent(self):
        session = IncrementalSession(_living_table(), k=3)
        unsubscribe = session.subscribe(lambda r: None)
        unsubscribe()
        unsubscribe()  # second call must not raise


class TestObservability:
    def test_delta_events_cover_every_merge_decision(self):
        events = EventLog(sample_rate=1.0)
        session = IncrementalSession(_living_table(), k=3, events=events)
        report = session.append(_rows(13, 40))
        deltas = events.by_kind("delta")
        per_transform = [e for e in deltas if "summary" not in e]
        summaries = [e for e in deltas if e.get("summary")]
        assert len(per_transform) == (
            report.transforms_merged
            + report.transforms_rebuilt
            + report.transforms_invalidated
        )
        assert len(summaries) == 1
        assert summaries[0]["drift"] == report.drift["kind"]
        assert {e["action"] for e in per_transform} <= {
            "merged", "rebuilt", "invalidated"
        }

    def test_phase_score_and_rank_events_per_epoch(self):
        events = EventLog(sample_rate=1.0)
        session = IncrementalSession(_living_table(), k=3, events=events)
        session.append(_rows(14, 30))
        phases = {e["phase"] for e in events.by_kind("phase")}
        assert {"merge", "enumerate", "recognize", "rank"} <= phases
        ranks = events.by_kind("rank")
        assert len(ranks) == 2  # init epoch + one append
        assert ranks[-1]["chart_ids"] == session.topk_ids
        scores = events.by_kind("score")
        assert len(scores) == 2 * len(session.topk_ids)

    def test_spans_and_metrics(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        session = IncrementalSession(
            _living_table(), k=3, tracer=tracer, metrics=registry
        )
        report = session.append(_rows(15, 30))
        root = tracer.find("incremental_append")
        assert root is not None
        child_names = [c.name for c in root.children]
        for name in ("merge", "enumerate", "recognize", "rank"):
            assert name in child_names
        samples = parse_prometheus_text(registry.to_prometheus_text())
        assert samples[("incremental_appends_total", ())] == 1
        assert samples[("incremental_appended_rows_total", ())] == 30
        assert (
            samples[
                ("incremental_transforms_total", (("action", "merged"),))
            ]
            == report.transforms_merged
        )
        kind = report.drift["kind"]
        assert samples[
            ("incremental_topk_drift_total", (("kind", kind),))
        ] == 1
        assert samples[("incremental_append_seconds_count", ())] == 1


class TestCacheInterplay:
    def test_merged_transforms_published_under_new_fingerprint(self):
        cache = MultiLevelCache()
        session = IncrementalSession(_living_table(), k=3, cache=cache)
        report = session.append(_rows(16, 40))
        new_fp = session.table.fingerprint()
        published = [
            key
            for key in cache.transforms
            if isinstance(key, tuple) and key[0] == new_fp
        ]
        assert len(published) >= report.transforms_merged
        # A scratch run over the grown table rides the published merges:
        # zero transform kernel misses beyond what enumeration needs.
        result = select_top_k(session.table, k=3, cache=cache, provenance=True)
        entry = entry_from_result(
            session.table.name, new_fp, result
        )
        assert classify_drift(entry, session.entry)["kind"] == "identical"

    def test_disk_tier_riding_session_stays_identical(self, tmp_path):
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        session = IncrementalSession(_living_table(), k=3, cache=cache)
        session.append(_rows(17, 30))
        assert session.verify()["kind"] == "identical"

    def test_session_never_stores_result_level_entries(self):
        # Results-level entries are written by select_top_k calls only;
        # the session shares its merged transforms, not whole answers.
        cache = MultiLevelCache()
        session = IncrementalSession(_living_table(), k=3, cache=cache)
        session.append(_rows(18, 30))
        assert len(cache.results) == 0


class TestConfigSurface:
    def test_exhaustive_enumeration_supported(self):
        table = _living_table(5, 80)
        session = IncrementalSession(table, k=4, enumeration="exhaustive")
        session.append(_rows(19, 40))
        result = select_top_k(
            session.table, k=4, enumeration="exhaustive", provenance=True
        )
        entry = entry_from_result(
            session.table.name, session.table.fingerprint(), result
        )
        assert classify_drift(entry, session.entry)["kind"] == "identical"

    def test_custom_config_threads_through(self):
        config = EnumerationConfig(numeric_bins=(7,))
        session = IncrementalSession(_living_table(), k=3, config=config)
        session.append(_rows(20, 30))
        result = select_top_k(
            session.table, k=3, config=config, provenance=True
        )
        entry = entry_from_result(
            session.table.name, session.table.fingerprint(), result
        )
        assert classify_drift(entry, session.entry)["kind"] == "identical"
