"""Tests for the disk-backed L4 cache tier (repro.engine.persistent)."""

import multiprocessing
import os
import pickle

import pytest

from repro.core import DeepEye, select_top_k
from repro.dataset import Table
from repro.engine import DiskCacheTier, MultiLevelCache
from repro.engine.persistent import (
    PERSISTENT_CACHE_SCHEMA_VERSION,
    cache_key_signature,
)
from repro.language.ast import BinGranularity, BinByGranularity, GroupBy
from repro.obs import EventLog, MetricsRegistry
from repro.obs.drift import build_snapshot, diff_snapshots, entry_from_result


def _table(name="t"):
    return Table.from_dict(
        name,
        {
            "city": ["a", "b", "a", "c", "b", "a"],
            "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            "size": [9.0, 8.0, 7.0, 6.0, 5.0, 4.0],
        },
    )


class TestCacheKeySignature:
    def test_stable_across_equal_keys(self):
        a = ("fp", GroupBy("city"), 3, None)
        b = ("fp", GroupBy("city"), 3, None)
        assert cache_key_signature(a) == cache_key_signature(b)

    def test_sensitive_to_every_component(self):
        base = cache_key_signature(("fp", GroupBy("city"), 3))
        assert cache_key_signature(("fp2", GroupBy("city"), 3)) != base
        assert cache_key_signature(("fp", GroupBy("town"), 3)) != base
        assert cache_key_signature(("fp", GroupBy("city"), 4)) != base

    def test_enum_uses_value_not_repr(self):
        sig = cache_key_signature((BinByGranularity("d", BinGranularity.MONTH),))
        assert "MONTH" in sig or "month" in sig.lower()
        # str-enum formatting differs across Python versions; the
        # signature must come from .value, never str()/format().
        assert "BinGranularity.MONTH" not in sig

    def test_string_vs_none_vs_bool_disambiguated(self):
        assert cache_key_signature(("x",)) != cache_key_signature((None,))
        assert cache_key_signature((True,)) != cache_key_signature(("True",))
        assert cache_key_signature((1,)) != cache_key_signature(("1",))

    def test_nested_tuples_flatten_unambiguously(self):
        assert cache_key_signature((("a", "b"), "c")) != cache_key_signature(
            ("a", ("b", "c"))
        )

    def test_unstable_objects_are_rejected(self):
        with pytest.raises(TypeError):
            cache_key_signature((object(),))


class TestDiskCacheTier:
    def test_roundtrip_and_counters(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        key = ("fp", GroupBy("city"))
        assert tier.get("transforms", key) is None
        assert tier.put("transforms", key, {"payload": 42})
        assert tier.get("transforms", key) == {"payload": 42}
        stats = tier.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["stores"] == 1 and stats["size"] == 1

    def test_fresh_instance_reads_previous_entries(self, tmp_path):
        DiskCacheTier(tmp_path).put("results", ("fp", 5), [1, 2, 3])
        assert DiskCacheTier(tmp_path).get("results", ("fp", 5)) == [1, 2, 3]

    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        key = ("fp", "k")
        tier.put("features", key, list(range(100)))
        path = tier._path("features", key)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        fresh = DiskCacheTier(tmp_path)
        assert fresh.get("features", key) is None
        assert fresh.stats()["errors"] == 1
        # the corrupt file is reclaimed, so the next read is a plain miss
        assert not os.path.exists(path)

    def test_garbage_entry_degrades_to_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        key = ("fp", "k")
        tier.put("features", key, "value")
        with open(tier._path("features", key), "wb") as handle:
            handle.write(b"not an entry at all")
        assert DiskCacheTier(tmp_path).get("features", key) is None

    def test_bad_checksum_degrades_to_miss(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        key = ("fp", "k")
        tier.put("features", key, "value")
        path = tier._path("features", key)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-1] ^= 0xFF  # flip a payload bit; header checksum now fails
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        assert DiskCacheTier(tmp_path).get("features", key) is None

    def test_version_bump_invalidates_cleanly(self, tmp_path, monkeypatch):
        tier = DiskCacheTier(tmp_path)
        tier.put("transforms", ("fp", "k"), "old")
        import repro.engine.persistent as persistent

        monkeypatch.setattr(
            persistent, "PERSISTENT_CACHE_SCHEMA_VERSION",
            PERSISTENT_CACHE_SCHEMA_VERSION + 1,
        )
        bumped = DiskCacheTier(tmp_path)
        # entries of the old version are simply never addressed
        assert bumped.get("transforms", ("fp", "k")) is None
        assert bumped.entry_count() == 0

    def test_eviction_respects_budget_oldest_first(self, tmp_path):
        tier = DiskCacheTier(tmp_path, max_bytes=2000)
        for i in range(40):
            tier.put("features", ("fp", f"k{i}"), list(range(100)))
        stats = tier.stats()
        assert stats["bytes"] <= 2000
        assert stats["evictions"] > 0
        # the newest entry must have survived
        assert tier.get("features", ("fp", "k39")) is not None

    def test_disabled_level_is_skipped(self, tmp_path):
        tier = DiskCacheTier(tmp_path, levels=("transforms",))
        assert not tier.put("features", ("fp", "k"), "v")
        assert tier.get("features", ("fp", "k")) is None
        assert tier.entry_count() == 0

    def test_unpicklable_value_is_skipped_silently(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        assert not tier.put("results", ("fp", "k"), lambda: None)
        assert tier.entry_count() == 0

    def test_clear_removes_everything(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.put("transforms", ("fp", "a"), 1)
        tier.put("results", ("fp", "b"), 2)
        assert tier.clear() == 2
        assert tier.entry_count() == 0
        assert tier.total_bytes() == 0

    def test_pickle_roundtrip_drops_counters(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.put("transforms", ("fp", "k"), "v")
        tier.get("transforms", ("fp", "k"))
        clone = pickle.loads(pickle.dumps(tier))
        assert clone.directory == tier.directory
        assert clone.stats()["hits"] == 0  # worker-local accounting
        assert clone.get("transforms", ("fp", "k")) == "v"


class TestRunningTotals:
    """``stats()`` reports running totals, so each step that changes
    the tier must move them exactly as a rescan would see it."""

    @staticmethod
    def _assert_in_sync(tier):
        stats = tier.stats()
        assert stats["size"] == tier.entry_count()
        assert stats["bytes"] == tier.total_bytes()

    def test_totals_track_every_kind_of_change(self, tmp_path):
        tier = DiskCacheTier(tmp_path)
        tier.put("features", ("fp", "a"), list(range(50)))
        self._assert_in_sync(tier)  # seeded by the first put
        tier.put("features", ("fp", "b"), list(range(80)))  # put new
        self._assert_in_sync(tier)
        tier.put("features", ("fp", "a"), list(range(200)))  # overwrite
        self._assert_in_sync(tier)

        path = tier._path("features", ("fp", "b"))
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[-1] ^= 0xFF  # corrupt in place: checksum fails, size holds
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        assert tier.get("features", ("fp", "b")) is None  # reclaimed
        assert not os.path.exists(path)
        self._assert_in_sync(tier)
        assert tier.stats()["size"] == 1

        tier.max_bytes = 3000
        for i in range(20):  # evict under a small budget
            tier.put("transforms", ("fp", f"k{i}"), list(range(100)))
        assert tier.stats()["evictions"] > 0
        self._assert_in_sync(tier)

        tier.clear()
        self._assert_in_sync(tier)
        assert tier.stats()["size"] == 0

    def test_overwrites_never_trigger_an_eviction_walk(
        self, tmp_path, monkeypatch
    ):
        tier = DiskCacheTier(tmp_path)
        tier.put("results", ("fp", "k"), list(range(100)))
        tier.max_bytes = tier.total_bytes() + 64
        walks = []
        original = DiskCacheTier._evict_to_budget
        monkeypatch.setattr(
            DiskCacheTier, "_evict_to_budget",
            lambda self: (walks.append(1), original(self)),
        )
        for _ in range(50):
            assert tier.put("results", ("fp", "k"), list(range(100)))
        assert walks == []
        assert tier.stats()["bytes"] == tier.total_bytes()
        assert tier.stats()["size"] == 1

    def test_prewarm_seeds_the_totals_from_its_own_walk(
        self, tmp_path, monkeypatch
    ):
        writer = DiskCacheTier(tmp_path)
        for i in range(5):
            writer.put("transforms", ("fp", f"k{i}"), i)
        writer.put("results", ("fp", "r"), "result")
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        cache.prewarm()
        import repro.engine.persistent as persistent

        def no_walk(*args, **kwargs):
            raise AssertionError("stats() walked the cache directory")

        monkeypatch.setattr(persistent.os, "walk", no_walk)
        stats = cache.disk.stats()
        assert stats["size"] == 6
        assert "disk=6" in repr(cache)
        monkeypatch.undo()
        assert stats["bytes"] == cache.disk.total_bytes()


class TestNoScanOnWarmHits:
    def test_warm_hits_never_walk_the_disk_tier(
        self, tmp_path, flights_table, monkeypatch
    ):
        filler = DeepEye(
            ranking="partial_order", cache_dir=tmp_path, provenance=True
        )
        expected = filler.top_k(flights_table, k=3).nodes
        server = DeepEye(
            ranking="partial_order", cache_dir=tmp_path,
            metrics=MetricsRegistry(), events=EventLog(), slo=True,
        )
        import repro.engine.persistent as persistent

        walks = []
        original_walk = persistent.os.walk

        def counting_walk(*args, **kwargs):
            walks.append(args)
            return original_walk(*args, **kwargs)

        monkeypatch.setattr(persistent.os, "walk", counting_walk)
        first = server.top_k(flights_table, k=3)
        assert first.nodes == expected
        after_first = len(walks)
        for _ in range(19):
            assert server.top_k(flights_table, k=3).nodes == expected
        assert len(walks) == after_first
        assert server.cache.stats_by_level()["results"]["hits"] >= 19


class TestMultiLevelIntegration:
    def test_fetch_promotes_disk_hit_into_memory(self, tmp_path):
        DiskCacheTier(tmp_path).put("transforms", ("fp", "k"), "v")
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        assert cache.fetch("transforms", ("fp", "k")) == "v"
        assert cache.disk.stats()["hits"] == 1
        # promoted: the second fetch is a pure memory hit
        assert cache.fetch("transforms", ("fp", "k")) == "v"
        assert cache.disk.stats()["hits"] == 1
        assert cache.transforms.hits == 1

    def test_store_writes_through_unless_opted_out(self, tmp_path):
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        cache.store("results", ("fp", "a"), 1)
        cache.store("results", ("fp", "b"), 2, disk=False)
        assert cache.disk.entry_count("results") == 1

    def test_stats_by_level_gains_disk_entry(self, tmp_path):
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        by_level = cache.stats_by_level()
        assert "disk" in by_level
        assert {"hits", "misses", "stores", "size", "bytes"} <= set(
            by_level["disk"]
        )
        # the aggregate rollup stays memory-only (stable meaning)
        assert "stores" not in by_level["aggregate"]

    def test_no_disk_keeps_legacy_shape(self):
        by_level = MultiLevelCache().stats_by_level()
        assert set(by_level) == {
            "transforms", "features", "results", "aggregate",
        }

    def test_prewarm_loads_hottest_entries(self, tmp_path):
        writer = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        for i in range(5):
            writer.store("transforms", ("fp", f"k{i}"), i)
        fresh = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        loaded = fresh.prewarm()
        assert loaded["transforms"] == 5
        # prewarmed entries answer from memory, not disk
        assert fresh.transforms.get(("fp", "k3")) == 3

    def test_prewarm_without_disk_is_noop(self):
        assert MultiLevelCache().prewarm() == {}


def _selection_entry(table, cache):
    result = select_top_k(table, k=5, provenance=True, cache=cache)
    return entry_from_result(table.name, table.fingerprint(), result)


class TestByteIdenticalTopK:
    """The ISSUE's correctness gate: golden-snapshot identity with the
    disk tier on / off / corrupted."""

    def test_topk_identical_disk_on_off_corrupted(self, tmp_path, flights_table):
        baseline = build_snapshot(
            [_selection_entry(flights_table, None)], k=5
        )

        # cold disk tier (populates)
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        cold = build_snapshot([_selection_entry(flights_table, cache)], k=5)
        assert diff_snapshots(baseline, cold)["clean"]

        # warm disk tier in a fresh cache (serves from disk)
        warm_cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        warm = build_snapshot(
            [_selection_entry(flights_table, warm_cache)], k=5
        )
        assert warm_cache.disk.stats()["hits"] > 0
        assert diff_snapshots(baseline, warm)["clean"]

        # corrupt every entry: selection must silently recompute
        for root, _dirs, files in os.walk(tmp_path):
            for name in files:
                if name.endswith(".entry"):
                    with open(os.path.join(root, name), "wb") as handle:
                        handle.write(b"garbage")
        corrupt_cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        corrupted = build_snapshot(
            [_selection_entry(flights_table, corrupt_cache)], k=5
        )
        assert diff_snapshots(baseline, corrupted)["clean"]


def _hammer_writer(directory, worker_id, n_writes):
    from repro.engine import DiskCacheTier

    tier = DiskCacheTier(directory)
    payload = {"worker": worker_id, "data": list(range(500))}
    for _ in range(n_writes):
        tier.put("results", ("shared", "entry"), payload)


class TestConcurrentWriters:
    def test_two_processes_never_produce_a_torn_read(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        workers = [
            ctx.Process(target=_hammer_writer, args=(str(tmp_path), i, 25))
            for i in range(2)
        ]
        for worker in workers:
            worker.start()
        # read concurrently while both writers race on the same entry
        reader = DiskCacheTier(tmp_path)
        observed = 0
        while any(w.is_alive() for w in workers):
            value = reader.get("results", ("shared", "entry"))
            if value is not None:
                observed += 1
                # a torn write would fail the checksum (miss), and a
                # surviving read must always be a complete payload
                assert value["data"] == list(range(500))
        for worker in workers:
            worker.join()
        assert reader.stats()["errors"] == 0
        final = reader.get("results", ("shared", "entry"))
        assert final is not None and final["data"] == list(range(500))


def _stale_writer(directory, old_fp, n_writes):
    """Concurrently re-publish stale pre-append entries under the old
    fingerprint while the parent queries the grown table."""
    from repro.engine import DiskCacheTier
    from repro.language.ast import GroupBy

    tier = DiskCacheTier(directory)
    for i in range(n_writes):
        tier.put("transforms", (old_fp, GroupBy("city")), {"stale": i})
        tier.put("results", (old_fp, ("k", 5)), {"stale": i})


class TestAppendStaleness:
    """Satellite: a pre-append cache entry must never be served for a
    post-append fingerprint — appends change the fingerprint, and every
    cache level keys on it."""

    def _grown(self, table):
        return table.append_rows(
            [["d", 7.0, 3.0], ["a", 8.0, 2.0], ["e", 9.0, 1.0]]
        )

    def test_append_changes_the_cache_key(self):
        table = _table()
        grown = self._grown(table)
        assert grown.fingerprint() != table.fingerprint()
        # ...and the change is content-derived, not instance-derived:
        again = _table().append_rows(
            [["d", 7.0, 3.0], ["a", 8.0, 2.0], ["e", 9.0, 1.0]]
        )
        assert again.fingerprint() == grown.fingerprint()

    def test_poisoned_pre_append_entries_never_served(self, tmp_path):
        table = _table()
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        select_top_k(table, k=5, cache=cache)  # populate under old fp

        # Poison every entry (memory + disk). If any pre-append entry
        # were served for the grown table, selection would crash or
        # drift; instead it must recompute cleanly.
        for level_name in ("transforms", "features", "results"):
            level = getattr(cache, level_name)
            for key in list(level):
                level.put(key, "poison")
                cache.disk.put(level_name, key, "poison")

        grown = self._grown(table)
        baseline = build_snapshot(
            [_selection_entry(grown, None)], k=5
        )
        poisoned = build_snapshot(
            [_selection_entry(grown, cache)], k=5
        )
        assert diff_snapshots(baseline, poisoned)["clean"]

        # A fresh process-equivalent (new cache over the same poisoned
        # disk directory) is just as safe.
        fresh = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        refetched = build_snapshot([_selection_entry(grown, fresh)], k=5)
        assert diff_snapshots(baseline, refetched)["clean"]

    def test_incremental_session_on_poisoned_disk(self, tmp_path):
        from repro import IncrementalSession

        table = _table("living")
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        session = IncrementalSession(table, k=4, cache=cache)
        old_fp = table.fingerprint()
        # Poison everything published under the pre-append fingerprint,
        # in memory and on disk.  Post-append lookups key on the *new*
        # fingerprint, so none of these may ever be served again.
        for key in list(cache.transforms):
            cache.transforms.put(key, "poison")
            cache.disk.put("transforms", key, "poison")
        session.append([["d", 7.0, 3.0], ["e", 8.0, 2.0]])
        assert session.table.fingerprint() != old_fp
        assert session.verify()["kind"] == "identical"

    def test_concurrent_stale_writer_never_pollutes_grown_reads(self, tmp_path):
        table = _table()
        grown = self._grown(table)
        baseline = build_snapshot([_selection_entry(grown, None)], k=5)

        ctx = multiprocessing.get_context("spawn")
        writer = ctx.Process(
            target=_stale_writer,
            args=(str(tmp_path), table.fingerprint(), 40),
        )
        writer.start()
        try:
            while writer.is_alive():
                cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
                snapshot = build_snapshot(
                    [_selection_entry(grown, cache)], k=5
                )
                assert diff_snapshots(baseline, snapshot)["clean"]
        finally:
            writer.join()
        # One last read after the writer finished flooding stale keys.
        cache = MultiLevelCache(disk=DiskCacheTier(tmp_path))
        final = build_snapshot([_selection_entry(grown, cache)], k=5)
        assert diff_snapshots(baseline, final)["clean"]
