"""Disk-backed L4 cache tier: serving-cache entries that survive restarts.

The in-memory :class:`~repro.engine.cache.MultiLevelCache` (L1-L3:
transforms, feature vectors, whole results) dies with the process —
wrong for a fleet serving repeat traffic, where the same tables come
back hour after hour across deploys and worker restarts.  This module
adds the persistence axis: a :class:`DiskCacheTier` sits *behind* the
LRU levels as "L4", consulted on a memory miss and written through on a
memory store, so a fresh process facing a table the fleet has already
served answers from disk instead of recomputing the pipeline.

Design constraints, and how each is met:

* **content-addressed** — every entry's filename is the SHA-256 of a
  canonical *string* signature of its cache key (table content
  fingerprint + level-specific parts), so re-parsed CSVs, renamed table
  objects, and different processes all address the same file;
* **schema-versioned** — entries live under a ``v<N>/`` directory and
  carry the version in their header (like
  :data:`repro.obs.events.EVENT_LOG_SCHEMA_VERSION`); bumping
  :data:`PERSISTENT_CACHE_SCHEMA_VERSION` invalidates cleanly because
  old entries are simply never addressed again;
* **safe for concurrent writers** — one file per entry (no global lock
  or index to corrupt) written to a temporary file in the same
  directory and published with an atomic ``os.replace``, so a reader
  never observes a torn entry no matter how many processes race;
* **corruption-tolerant** — a truncated, garbled, or wrong-version
  entry fails its checksum/header validation and degrades to a *miss*
  (counted in ``errors`` and unlinked), never an exception;
* **size-bounded** — an approximate byte budget triggers
  oldest-first (mtime) eviction; hits refresh mtime so hot entries
  survive;
* **O(1) to report** — the tier keeps a running entry count and byte
  total (seeded by one directory walk, moved by each put, corrupt-entry
  reclaim and eviction), so :meth:`DiskCacheTier.stats`, which every
  warm hit reads, never walks the directory;
* **pre-warmable** — :meth:`DiskCacheTier.prewarm` loads the hottest
  entries back into the in-memory LRU levels on startup, so a restarted
  server's first requests hit L1-L3 rather than paying even the disk
  round-trip.

Entry file layout (binary)::

    MAGIC(4) | version(4, big-endian) | sha256(payload)(32) | payload

where ``payload`` is the pickle of ``(memory_key, value)`` — the
original in-memory cache key rides along so :meth:`prewarm` can
re-insert entries into the LRU levels without reverse-engineering
hashes.

Like :mod:`repro.engine.cache`, this module imports nothing from
:mod:`repro.core`, so it loads from either side of the engine/core
boundary without cycles.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import struct
import tempfile
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "PERSISTENT_CACHE_SCHEMA_VERSION",
    "DiskCacheTier",
    "cache_key_signature",
]

#: Version stamped into the tier's directory name and every entry
#: header; bump on any incompatible change to the payload shape (e.g. a
#: ``TransformResult`` or ``SelectionResult`` field change) and old
#: entries are never addressed again — a clean, total invalidation.
#: v2: ``SelectionResult`` gained the ``source`` ingest-record field —
#: v1 pickles would crash ``dataclasses.replace`` on the result-cache
#: hit path.
#: v3: ``FeatureVector``'s ``y_entropy``, ``y_spread`` and ``trend_r2``
#: come from the centred-moments kernel, once per data variant; they
#: can differ from v2 values in the last bits, and one L4 must never
#: mix the two.
PERSISTENT_CACHE_SCHEMA_VERSION = 3

#: File magic for entry headers ("DeepEye L4").
_MAGIC = b"DEL4"

#: ``magic + version + sha256`` — everything before the payload.
_HEADER = struct.Struct(">4sI32s")

#: Default disk budget: generous for feature vectors and transform
#: results, small enough not to surprise a laptop.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def cache_key_signature(key: Any) -> str:
    """Canonical, process-independent string form of a cache key.

    The in-memory cache keys are tuples of strings, numbers, ``None``,
    enums, and frozen AST fragments (transforms / orderings, which all
    expose ``describe()``).  Each component maps to a stable token —
    enum *values* rather than reprs (str-enum formatting changed across
    Python versions), ``describe()`` for AST nodes, ``repr`` for
    numbers — so the same logical key produces the same signature in
    every process on every platform.

    Raises ``TypeError`` for components with no stable form (arbitrary
    objects); callers gate those keys out before reaching the disk tier
    (see ``select_top_k``'s model-identity handling).
    """
    return "|".join(_token(part) for part in _flatten(key))


#: Structural markers for nested tuples — sentinel objects, so a key
#: component that is literally the string ``"("`` cannot collide.
_OPEN = object()
_CLOSE = object()


def _flatten(obj: Any) -> Iterable[Any]:
    if isinstance(obj, (tuple, list)):
        yield _OPEN
        for part in obj:
            yield from _flatten(part)
        yield _CLOSE
    else:
        yield obj


def _token(obj: Any) -> str:
    if obj is _OPEN:
        return "("
    if obj is _CLOSE:
        return ")"
    if obj is None:
        return "~"
    if isinstance(obj, enum.Enum):
        return f"e:{type(obj).__name__}:{obj.value}"
    if isinstance(obj, bool):
        return f"b:{obj}"
    if isinstance(obj, str):
        return f"s:{obj}"
    if isinstance(obj, (int, float)):
        return f"n:{obj!r}"
    describe = getattr(obj, "describe", None)
    if callable(describe):
        return f"d:{type(obj).__name__}:{describe()}"
    raise TypeError(
        f"cache key component {obj!r} ({type(obj).__name__}) has no "
        f"stable cross-process signature"
    )


class DiskCacheTier:
    """The disk-backed L4 level behind a ``MultiLevelCache``.

    Parameters
    ----------
    directory:
        Root of the cache; entries live under
        ``directory/v<schema>/<level>/<hash[:2]>/<hash>.entry``.
    max_bytes:
        Approximate byte budget; exceeding it evicts oldest-mtime
        entries across all levels until back under.  ``None`` disables
        eviction.
    levels:
        Which cache levels persist (default: all three).  Dropping
        ``"features"`` trades warm-start coverage for far fewer small
        files on write-heavy workloads.
    touch_on_hit:
        Refresh an entry's mtime when it serves a hit, so eviction
        (oldest-first) and :meth:`prewarm` (newest-first) both see
        *recency of use*, not just creation order.
    """

    LEVELS = ("transforms", "features", "results")

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        levels: Tuple[str, ...] = LEVELS,
        touch_on_hit: bool = True,
    ) -> None:
        self.directory = os.fspath(directory)
        self.max_bytes = max_bytes
        self.levels = tuple(levels)
        self.touch_on_hit = bool(touch_on_hit)
        self.version_dir = os.path.join(
            self.directory, f"v{PERSISTENT_CACHE_SCHEMA_VERSION}"
        )
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[str, int]] = {
            level: self._zero_counters() for level in self.LEVELS
        }
        #: Running estimates of on-disk entries and bytes; seeded lazily
        #: (by the first ``stats()``/``put()`` walk, or free from the
        #: walk ``prewarm()`` already does) so construction stays O(1).
        self._approx_entries: Optional[int] = None
        self._approx_bytes: Optional[int] = None

    @staticmethod
    def _zero_counters() -> Dict[str, int]:
        return {"hits": 0, "misses": 0, "stores": 0, "evictions": 0,
                "errors": 0}

    # -- addressing -----------------------------------------------------
    def _path(self, level: str, key: Any) -> str:
        digest = hashlib.sha256(
            cache_key_signature((level, key)).encode("utf-8")
        ).hexdigest()
        return os.path.join(
            self.version_dir, level, digest[:2], f"{digest}.entry"
        )

    # -- read side ------------------------------------------------------
    def get(self, level: str, key: Any) -> Any:
        """Look the entry up, returning its value or ``None`` on a miss.

        Every failure mode — absent file, truncated payload, checksum
        mismatch, wrong magic or version, unpicklable bytes — is a miss
        (corrupt files additionally count as ``errors`` and are
        unlinked), never an exception: the cache must only ever make
        serving faster, not more fragile.
        """
        if level not in self.levels:
            return None
        path = self._path(level, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self._count(level, "misses")
            return None
        value = self._decode(blob)
        if value is None:
            self._count(level, "errors")
            self._count(level, "misses")
            with self._lock:
                try:  # a corrupt entry will never validate; reclaim it
                    os.remove(path)
                except OSError:
                    pass
                else:
                    self._move_totals(-1, -len(blob))
            return None
        if self.touch_on_hit:
            try:
                os.utime(path, None)
            except OSError:
                pass
        self._count(level, "hits")
        return value[1]

    @staticmethod
    def _decode(blob: bytes) -> Optional[Tuple[Any, Any]]:
        """``(memory_key, value)`` from an entry blob, or ``None``."""
        if len(blob) < _HEADER.size:
            return None
        magic, version, digest = _HEADER.unpack_from(blob)
        if magic != _MAGIC or version != PERSISTENT_CACHE_SCHEMA_VERSION:
            return None
        payload = blob[_HEADER.size:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        try:
            decoded = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(decoded, tuple) or len(decoded) != 2:
            return None
        return decoded

    # -- write side -----------------------------------------------------
    def put(self, level: str, key: Any, value: Any) -> bool:
        """Persist one entry (write-to-temp + atomic ``os.replace``).

        Returns whether the entry was written; unpicklable values and
        disabled levels are skipped silently (persistence is best
        effort), and anything already on disk for this key is replaced
        atomically — concurrent writers of the same key each publish a
        complete entry, last writer wins, readers never see a tear.
        """
        if level not in self.levels:
            return False
        try:
            payload = pickle.dumps((key, value), protocol=4)
        except Exception:
            return False
        blob = _HEADER.pack(
            _MAGIC,
            PERSISTENT_CACHE_SCHEMA_VERSION,
            hashlib.sha256(payload).digest(),
        ) + payload
        path = self._path(level, key)
        parent = os.path.dirname(path)
        try:
            os.makedirs(parent, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=".tmp-", suffix=".entry", dir=parent
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                # Publish and move the totals under one lock, so this
                # process's writers never double-count an overwrite.
                with self._lock:
                    try:
                        replaced: Optional[int] = os.stat(path).st_size
                    except OSError:
                        replaced = None
                    os.replace(tmp_path, path)
                    if replaced is None:
                        self._move_totals(1, len(blob))
                    else:
                        self._move_totals(0, len(blob) - replaced)
                    over_budget = (
                        self.max_bytes is not None
                        and self._approx_bytes > self.max_bytes
                    )
            except BaseException:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self._count(level, "stores")
        if over_budget:
            self._evict_to_budget()
        return True

    # -- running totals (callers hold ``_lock``) ------------------------
    def _seed_totals(self) -> None:
        """Seed the running totals from one walk, the first time they
        are needed."""
        if self._approx_entries is None:
            entries = self._entries()
            self._approx_entries = len(entries)
            self._approx_bytes = sum(size for _, _, size in entries)

    def _move_totals(self, entries: int, nbytes: int) -> None:
        """Move the running totals by a net change already on disk (an
        unseeded tier seeds instead: its walk already sees the change)."""
        if self._approx_entries is None:
            self._seed_totals()
        else:
            self._approx_entries += entries
            self._approx_bytes += nbytes

    # -- eviction -------------------------------------------------------
    def _entries(
        self, levels: Optional[Iterable[str]] = None
    ) -> List[Tuple[str, float, int]]:
        """Entry files of ``levels`` (default: all persisted levels) as
        ``(path, mtime, size)`` (best effort)."""
        found: List[Tuple[str, float, int]] = []
        for level in self.levels if levels is None else levels:
            level_dir = os.path.join(self.version_dir, level)
            if not os.path.isdir(level_dir):
                continue
            for root, _dirs, files in os.walk(level_dir):
                for name in files:
                    if not name.endswith(".entry") or name.startswith("."):
                        continue
                    path = os.path.join(root, name)
                    try:
                        stat = os.stat(path)
                    except OSError:
                        continue
                    found.append((path, stat.st_mtime, stat.st_size))
        return found

    def _evict_to_budget(self) -> None:
        """Remove oldest-mtime entries until back under ``max_bytes``,
        re-syncing the running totals from this scan."""
        if self.max_bytes is None:
            return
        entries = sorted(self._entries(), key=lambda e: e[1])
        count = len(entries)
        total = sum(size for _, _, size in entries)
        for path, _mtime, size in entries:
            if total <= self.max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            count -= 1
            total -= size
            self._count(self._level_of(path), "evictions")
        with self._lock:
            self._approx_entries = count
            self._approx_bytes = total

    def _level_of(self, path: str) -> str:
        """The level an entry path belongs to (first component under the
        version directory)."""
        relative = os.path.relpath(path, self.version_dir)
        head = relative.split(os.sep, 1)[0]
        return head if head in self._counters else self.LEVELS[0]

    # -- maintenance / reporting ----------------------------------------
    def clear(self) -> int:
        """Delete every entry (all schema versions); returns the count."""
        removed = 0
        if not os.path.isdir(self.directory):
            return 0
        for root, _dirs, files in os.walk(self.directory):
            for name in files:
                if name.endswith(".entry"):
                    try:
                        os.remove(os.path.join(root, name))
                        removed += 1
                    except OSError:
                        pass
        with self._lock:
            self._approx_entries = 0
            self._approx_bytes = 0
        return removed

    def entry_count(self, level: Optional[str] = None) -> int:
        """Entries currently on disk (one level, or all)."""
        levels = (level,) if level else self.levels
        count = 0
        for name in levels:
            level_dir = os.path.join(self.version_dir, name)
            if not os.path.isdir(level_dir):
                continue
            for _root, _dirs, files in os.walk(level_dir):
                count += sum(
                    1 for f in files
                    if f.endswith(".entry") and not f.startswith(".")
                )
        return count

    def total_bytes(self) -> int:
        """Actual on-disk bytes across all entries (rescans)."""
        return sum(size for _, _, size in self._entries())

    def stats(self) -> Dict[str, int]:
        """Aggregate ``{hits, misses, stores, evictions, errors, size,
        bytes}`` across the persisted levels — the shape
        ``MultiLevelCache.stats_by_level`` surfaces as its ``disk``
        entry (``size`` counts on-disk entries so the CLI cache report
        reads uniformly across levels).

        ``size`` and ``bytes`` are this tier's running estimate, not a
        rescan: one walk seeds them (the first ``stats()`` or ``put()``,
        or ``prewarm()``'s own walk), and puts, corrupt-entry reclaims,
        evictions and :meth:`clear` move them, so they are exact for a
        single writer.  Other processes' writes show up after the next
        eviction scan (which re-syncs both) or in a fresh tier.  For an
        exact rescan use :meth:`entry_count` and :meth:`total_bytes`.
        """
        with self._lock:
            merged = self._zero_counters()
            for counters in self._counters.values():
                for name, value in counters.items():
                    merged[name] += value
            self._seed_totals()
            merged["size"] = self._approx_entries
            merged["bytes"] = self._approx_bytes
        return merged


    def stats_by_level(self) -> Dict[str, Dict[str, int]]:
        """This process's per-level L4 counters."""
        with self._lock:
            return {
                level: dict(counters)
                for level, counters in self._counters.items()
            }

    def _count(self, level: str, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counters.setdefault(level, self._zero_counters())
            self._counters[level][counter] = (
                self._counters[level].get(counter, 0) + amount
            )

    # -- prewarm --------------------------------------------------------
    def prewarm(self, cache, per_level: Optional[int] = None) -> Dict[str, int]:
        """Load the hottest entries back into a ``MultiLevelCache``.

        For each persisted level, entries are read newest-mtime-first
        (mtime is refreshed on hit, so this is recency of *use*) and
        inserted into the corresponding LRU level until ``per_level``
        entries (default: that LRU's capacity) are loaded or the disk
        runs dry.  Corrupt entries are skipped.  Returns the per-level
        loaded counts — a restarted server calls this once on startup
        so its first requests hit memory, not disk.
        """
        loaded: Dict[str, int] = {}
        # When every level is walked, the walk seeds the running totals.
        walked = walked_bytes = 0
        walked_all = True
        for level in self.levels:
            lru = getattr(cache, level, None)
            if lru is None:
                walked_all = False
                continue
            budget = per_level if per_level is not None else lru.maxsize
            if budget <= 0:
                loaded[level] = 0
                walked_all = False
                continue
            files = self._entries((level,))
            walked += len(files)
            walked_bytes += sum(size for _, _, size in files)
            files.sort(key=lambda item: item[1], reverse=True)
            count = 0
            for path, _mtime, _size in files[:budget]:
                try:
                    with open(path, "rb") as handle:
                        blob = handle.read()
                except OSError:
                    continue
                decoded = self._decode(blob)
                if decoded is None:
                    self._count(level, "errors")
                    continue
                memory_key, value = decoded
                lru.put(memory_key, value)
                count += 1
            loaded[level] = count
        if walked_all:
            with self._lock:
                if self._approx_entries is None:
                    self._approx_entries = walked
                    self._approx_bytes = walked_bytes
        return loaded

    # -- pickling (locks cannot cross process boundaries) ---------------
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        # Workers keep their own hit/miss accounting and size estimate.
        state["_counters"] = {
            level: self._zero_counters() for level in self.LEVELS
        }
        state["_approx_entries"] = None
        state["_approx_bytes"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskCacheTier({self.directory!r}, "
            f"v{PERSISTENT_CACHE_SCHEMA_VERSION}, levels={self.levels})"
        )
