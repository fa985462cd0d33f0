"""Multi-backend ingestion: chunked CSV, JSONL, and sqlite SQL sources.

The selection pipeline historically had exactly one entry point — an
in-memory CSV — which means a 10M-row table pays full materialisation
before the first transform kernel runs.  This module adds a
``TableSource`` layer with three backends behind one chunked-iteration
protocol, and two build modes in :func:`from_source`:

* **materialized** — gather every (NA-normalised) row and build a plain
  :class:`~repro.dataset.table.Table` through the exact
  ``Table.from_rows`` path :func:`repro.dataset.io.read_csv` has always
  used, so small tables stay byte-identical to the historical loader.
  A materialised sqlite source additionally carries a
  :class:`SqlitePushdown` provider that translates
  ``GROUP BY`` / ``BIN INTO`` / ``BIN BY`` transform signatures into SQL
  ``GROUP BY`` queries — bucket arrays come back from the database and
  raw rows never enter Python.
* **streaming** — feed each chunk through a
  :class:`~repro.dataset.sketches.TableSketch` (one pass, bounded
  memory) and build a reservoir-sample table whose column types are
  pinned to the full-stream vote and whose per-column features come
  from the sketch's exact streaming statistics.

Every built table is annotated with ``source_info`` (kind, content id,
query fingerprint, mode) that flows into request events, selection
results, and provenance reports, and with a ``cache_scope`` that keys
the existing L1–L4 cache levels (see ``Table.cache_fingerprint``) so
pushdown-backed and sample-backed results can never collide with pure
in-memory ones.

NA handling is unified here: :data:`NA_TOKENS` is the single token
table shared by all three backends (and, via delegation, by
``read_csv``), so the same logical table ingested from CSV, JSONL, or
sqlite coerces cell-for-cell identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sqlite3
import time
from pathlib import Path
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import DatasetError
from ..obs.context import Observer, request_scope
from .column import Column, ColumnType
from .inference import _parse_number
from .sketches import (
    DEFAULT_SAMPLE_ROWS,
    DEFAULT_SEED,
    TableSketch,
    categorical_token,
    temporal_seconds,
)
from .table import Table

__all__ = [
    "NA_TOKENS",
    "normalize_cell",
    "TableSource",
    "CsvSource",
    "JsonlSource",
    "SqliteSource",
    "SqlitePushdown",
    "resolve_source",
    "from_source",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_MATERIALIZE_ROWS",
]

#: Rows per chunk handed to the sketch / accumulated per batch.
DEFAULT_CHUNK_ROWS = 65536

#: ``materialize="auto"`` switches to streaming past this many rows.
DEFAULT_MATERIALIZE_ROWS = 500_000

#: The one shared missing-value token table (case-insensitive, after
#: stripping).  Every backend maps these to ``None`` before type
#: inference, which is what makes the same logical table byte-identical
#: across CSV, JSONL, and sqlite ingestion.
NA_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none"})


def normalize_cell(value):
    """Map NA-token strings to ``None``; pass everything else through."""
    if isinstance(value, str) and value.strip().lower() in NA_TOKENS:
        return None
    return value


def _normalize_row(row: Sequence) -> tuple:
    return tuple(normalize_cell(value) for value in row)


def _short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TableSource:
    """One chunked, restartable relational data source.

    Subclasses yield ``(header, rows_chunk)`` pairs from
    :meth:`iter_chunks` — the header is identical in every pair, rows
    are NA-normalised tuples in header order.  Identity accessors
    (:meth:`source_id`, :meth:`query_fingerprint`, :meth:`describe`)
    feed observability and cache scoping; they never read data.
    """

    kind: str = "abstract"

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[List[str], List[tuple]]]:
        """Yield ``(header, rows_chunk)`` pairs over the whole relation."""
        raise NotImplementedError

    def count_rows(self) -> Optional[int]:
        """Exact row count when the backend can answer it cheaply."""
        return None

    @property
    def default_name(self) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        """A human-readable one-line identity of the source."""
        raise NotImplementedError

    def source_id(self) -> str:
        """A short stable digest of the source identity (not the data)."""
        return _short_digest(f"{self.kind}|{self.describe()}")

    def query_fingerprint(self) -> Optional[str]:
        """Digest of the defining query, for query-backed sources only."""
        return None


class CsvSource(TableSource):
    """Chunked CSV reader — the single CSV parse path.

    ``read_csv`` delegates its materialised loads here, so the historic
    error contract is preserved exactly: an empty file raises
    ``DatasetError(f"{path}: empty CSV file")``, and a ragged row in
    streaming mode raises with the same row index ``Table.from_rows``
    would report.
    """

    kind = "csv"

    def __init__(
        self,
        path: Union[str, Path],
        name: Optional[str] = None,
        delimiter: str = ",",
        encoding: str = "utf-8",
    ) -> None:
        self.path = Path(path)
        self.name = name
        self.delimiter = delimiter
        self.encoding = encoding

    @property
    def default_name(self) -> str:
        return self.name or self.path.stem

    def describe(self) -> str:
        """The CSV path and delimiter."""
        return f"{self.path} (delimiter={self.delimiter!r})"

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[List[str], List[tuple]]]:
        """Yield NA-normalised row chunks, validating row width."""
        with self.path.open(newline="", encoding=self.encoding) as handle:
            reader = csv.reader(handle, delimiter=self.delimiter)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{self.path}: empty CSV file") from None
            chunk: List[tuple] = []
            index = 0
            for row in reader:
                if len(row) != len(header):
                    raise DatasetError(
                        f"table {self.default_name!r}: row {index} has "
                        f"{len(row)} cells, expected {len(header)}"
                    )
                chunk.append(_normalize_row(row))
                index += 1
                if len(chunk) >= chunk_rows:
                    yield header, chunk
                    chunk = []
            yield header, chunk


class JsonlSource(TableSource):
    """Chunked JSON-lines reader (one object per line).

    The schema is the key order of the first record; later records may
    omit keys (missing cells become ``None``) but introducing a key the
    first record lacked is a :class:`DatasetError` — a streaming reader
    cannot retroactively add a column to chunks it already emitted.
    """

    kind = "jsonl"

    def __init__(
        self,
        path: Union[str, Path],
        name: Optional[str] = None,
        encoding: str = "utf-8",
    ) -> None:
        self.path = Path(path)
        self.name = name
        self.encoding = encoding

    @property
    def default_name(self) -> str:
        return self.name or self.path.stem

    def describe(self) -> str:
        """The JSONL path."""
        return str(self.path)

    @staticmethod
    def _cell(value):
        if isinstance(value, (dict, list)):
            # Nested JSON has no relational shape; keep its text form.
            value = json.dumps(value, sort_keys=True)
        return normalize_cell(value)

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[List[str], List[tuple]]]:
        """Yield row chunks under the first record's key schema."""
        header: Optional[List[str]] = None
        known: Optional[frozenset] = None
        chunk: List[tuple] = []
        with self.path.open(encoding=self.encoding) as handle:
            for line_number, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    record = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise DatasetError(
                        f"{self.path}:{line_number}: invalid JSON ({exc})"
                    ) from None
                if not isinstance(record, dict):
                    raise DatasetError(
                        f"{self.path}:{line_number}: expected a JSON "
                        f"object per line, got {type(record).__name__}"
                    )
                if header is None:
                    header = list(record)
                    known = frozenset(header)
                unknown = [key for key in record if key not in known]
                if unknown:
                    raise DatasetError(
                        f"{self.path}:{line_number}: keys {unknown} not in "
                        f"the first record's schema {header}"
                    )
                chunk.append(
                    tuple(self._cell(record.get(key)) for key in header)
                )
                if len(chunk) >= chunk_rows:
                    yield header, chunk
                    chunk = []
        if header is None:
            raise DatasetError(f"{self.path}: empty JSONL file")
        yield header, chunk


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class SqliteSource(TableSource):
    """A stdlib ``sqlite3`` relation: a table name or an arbitrary query.

    ``table`` sources keep ``rowid`` visible (needed by the pushdown's
    first-appearance ordering); ``query`` sources wrap the statement as
    a subquery, which strips ``rowid`` — GROUP BY pushdown then falls
    back per chart where ordering matters.
    """

    kind = "sqlite"

    def __init__(
        self,
        path: Union[str, Path],
        table: Optional[str] = None,
        query: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        if (table is None) == (query is None):
            raise DatasetError(
                "SqliteSource needs exactly one of table= or query="
            )
        self.path = Path(path)
        self.table = table
        self.query = query
        self.name = name

    @property
    def default_name(self) -> str:
        if self.name:
            return self.name
        return self.table if self.table is not None else self.path.stem

    def describe(self) -> str:
        """The database path plus table name or query digest."""
        relation = (
            f"table {self.table}" if self.table is not None
            else f"query sha256:{_short_digest(self.query)}"
        )
        return f"{self.path} ({relation})"

    def query_fingerprint(self) -> Optional[str]:
        """Digest of the defining SQL query (None for table sources)."""
        if self.query is None:
            return None
        return _short_digest(self.query)

    def from_clause(self) -> str:
        """The relation as a SQL FROM operand (table keeps rowid)."""
        if self.table is not None:
            return _quote_ident(self.table)
        return f"({self.query})"

    def count_rows(self) -> Optional[int]:
        conn = sqlite3.connect(str(self.path))
        try:
            row = conn.execute(
                f"SELECT COUNT(*) FROM {self.from_clause()}"
            ).fetchone()
        finally:
            conn.close()
        return int(row[0])

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[List[str], List[tuple]]]:
        """Yield NA-normalised row chunks via ``fetchmany``."""
        conn = sqlite3.connect(str(self.path))
        try:
            cursor = conn.execute(
                f"SELECT * FROM {self.from_clause()}"
            )
            header = [col[0] for col in cursor.description]
            while True:
                rows = cursor.fetchmany(chunk_rows)
                yield header, [_normalize_row(row) for row in rows]
                if len(rows) < chunk_rows:
                    break
        finally:
            conn.close()

    def pushdown(
        self, column_types: Mapping[str, ColumnType]
    ) -> "SqlitePushdown":
        """A GROUP BY pushdown provider for this relation."""
        return SqlitePushdown(
            self.path,
            self.from_clause(),
            column_types,
            has_rowid_relation=self.table is not None,
        )


# ----------------------------------------------------------------------
# sqlite GROUP BY pushdown
# ----------------------------------------------------------------------
#: Probe: rows whose storage class would make SQL-side float arithmetic
#: diverge from the coerced in-memory column (text/blob storage, or the
#: two IEEE infinities, which ``_parse_number`` maps to 0.0).
_UNCLEAN_PREDICATE = (
    "typeof({col}) NOT IN ('integer', 'real', 'null') "
    "OR {col} IN (9e999, -9e999)"
)


class SqlitePushdown:
    """Translate transform signatures into sqlite ``GROUP BY`` queries.

    Two strategies, both constructed to be *byte-identical* to running
    the in-memory kernels on the materialised table:

    * **index pushdown** (``BIN INTO n`` over cleanly stored numerics):
      the database groups by the kernel's own bucket-index arithmetic
      (:func:`~repro.language.binning.numeric_bin_index_sql`) and
      returns per-bucket ``COUNT`` / ``SUM`` — labels are rebuilt in
      Python from the shared ``np.linspace`` edges.  Rows never enter
      Python.
    * **distinct pushdown** (``GROUP BY`` / ``BIN BY`` / unclean
      numerics): the database collapses the relation to its distinct
      values (``GROUP BY x, typeof(x)`` so sqlite's cross-storage-class
      equality cannot merge ``5`` with ``'5'``), each distinct is
      coerced by the exact ``build_column`` value rules, and the
      *existing* kernel runs on the tiny distinct column — every label,
      sort key, and bucket value is produced by the same code path as
      the in-memory case, then real counts/sums scatter onto the
      buckets.  Only ``d(X)`` values enter Python.

    Anything outside those contracts (UDF bins, empty relations,
    cardinality above ``distinct_limit``, missing ``rowid`` where
    first-appearance order matters, unclean ``y`` storage for SUM/AVG)
    returns ``None`` and the caller falls back to the kernel path; the
    per-reason fallback tally lands in the ``pushdown_*`` metrics.
    """

    def __init__(
        self,
        path: Union[str, Path],
        from_clause: str,
        column_types: Mapping[str, ColumnType],
        has_rowid_relation: bool = True,
        distinct_limit: int = 50_000,
    ) -> None:
        self.path = str(path)
        self.from_clause = from_clause
        self.column_types: Dict[str, ColumnType] = {
            name: ColumnType(ctype) for name, ctype in column_types.items()
        }
        self.has_rowid_relation = bool(has_rowid_relation)
        self.distinct_limit = int(distinct_limit)
        self.served = 0
        self.fallbacks: Dict[str, int] = {}
        self._conn: Optional[sqlite3.Connection] = None
        self._row_count: Optional[int] = None
        self._rowid_ok: Optional[bool] = None
        self._clean: Dict[str, bool] = {}
        self._cardinality_ok: Dict[str, bool] = {}
        self._charts: Dict[tuple, Optional[dict]] = {}
        self._distincts: Dict[tuple, Optional[tuple]] = {}

    # -- lifecycle ------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        # Connections and memoised chart payloads stay process-local.
        state["_conn"] = None
        return state

    def close(self) -> None:
        """Close the lazily opened sqlite connection, if any."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            self._conn = sqlite3.connect(self.path)
        return self._conn

    def _fallback(self, reason: str) -> None:
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    # -- probes (memoised) ---------------------------------------------
    def row_count(self) -> int:
        """Memoised ``COUNT(*)`` of the relation."""
        if self._row_count is None:
            row = self._connection().execute(
                f"SELECT COUNT(*) FROM {self.from_clause}"
            ).fetchone()
            self._row_count = int(row[0])
        return self._row_count

    def _has_rowid(self) -> bool:
        if self._rowid_ok is None:
            if not self.has_rowid_relation:
                self._rowid_ok = False
            else:
                try:
                    self._connection().execute(
                        f"SELECT MIN(rowid) FROM {self.from_clause}"
                    ).fetchone()
                    self._rowid_ok = True
                except sqlite3.OperationalError:
                    # WITHOUT ROWID tables, views, etc.
                    self._rowid_ok = False
        return self._rowid_ok

    def _is_clean_numeric(self, name: str) -> bool:
        """True when every stored value is integer/real/NULL and finite,
        i.e. SQL float arithmetic sees exactly the coerced column."""
        cached = self._clean.get(name)
        if cached is None:
            col = _quote_ident(name)
            predicate = _UNCLEAN_PREDICATE.format(col=col)
            row = self._connection().execute(
                f"SELECT COUNT(*) FROM {self.from_clause} WHERE {predicate}"
            ).fetchone()
            cached = int(row[0]) == 0
            self._clean[name] = cached
        return cached

    def _cardinality_within_limit(self, name: str) -> bool:
        cached = self._cardinality_ok.get(name)
        if cached is None:
            col = _quote_ident(name)
            row = self._connection().execute(
                f"SELECT COUNT(*) FROM (SELECT {col} FROM "
                f"{self.from_clause} GROUP BY {col}, typeof({col}) "
                f"LIMIT {self.distinct_limit + 1})"
            ).fetchone()
            cached = int(row[0]) <= self.distinct_limit
            self._cardinality_ok[name] = cached
        return cached

    # -- value coercion (the build_column contract) --------------------
    def _coerce(self, value, ctype: ColumnType):
        # The ingestion path NA-normalises every cell before coercion;
        # distinct values fetched straight from sqlite must take the
        # same trip or 'NA' would group apart from ''.
        value = normalize_cell(value)
        if ctype is ColumnType.NUMERICAL:
            number = _parse_number(value)
            return 0.0 if number is None else number
        if ctype is ColumnType.TEMPORAL:
            return temporal_seconds(value)
        return categorical_token(value)

    # -- distinct fetching ---------------------------------------------
    def _distinct_groups(
        self, x: str, y: Optional[str], need_rowid: bool
    ) -> Optional[tuple]:
        """``(coerced_values, counts, sums)`` of the relation collapsed
        to distinct ``x`` values, coerced and merged, ordered by first
        appearance when ``need_rowid`` — else by coerced value."""
        key = (x, y, need_rowid)
        if key in self._distincts:
            return self._distincts[key]
        ctype = self.column_types[x]
        col = _quote_ident(x)
        selects = [col, "COUNT(*)"]
        if need_rowid:
            selects.append("MIN(rowid)")
        if y is not None:
            selects.append(f"SUM(COALESCE({_quote_ident(y)}, 0.0))")
        sql = (
            f"SELECT {', '.join(selects)} FROM {self.from_clause} "
            f"GROUP BY {col}, typeof({col})"
        )
        rows = self._connection().execute(sql).fetchall()
        # Merge storage-class groups that coerce to the same value
        # (e.g. integer 5 and text '5' both become '5' categorically).
        merged: Dict[object, list] = {}
        for position, row in enumerate(rows):
            coerced = self._coerce(row[0], ctype)
            count = row[1]
            first = row[2] if need_rowid else position
            total = row[-1] if y is not None else 0.0
            if total is None:
                total = 0.0
            entry = merged.get(coerced)
            if entry is None:
                merged[coerced] = [coerced, count, first, float(total)]
            else:
                entry[1] += count
                entry[2] = min(entry[2], first)
                entry[3] += float(total)
        entries = sorted(merged.values(), key=lambda e: e[2])
        result = (
            [e[0] for e in entries],
            np.asarray([e[1] for e in entries], dtype=np.float64),
            np.asarray([e[3] for e in entries], dtype=np.float64),
        )
        self._distincts[key] = result
        return result

    # -- the entry point ------------------------------------------------
    def serve(self, transform, op, y: Optional[str]) -> Optional[dict]:
        """Bucket arrays + aggregated y for one (transform, op, y) chart.

        Returns ``None`` (recording the reason) when the signature is
        not expressible — the caller then runs the in-memory kernels.
        """
        from ..language.ast import AggregateOp

        op = AggregateOp(op)
        y_key = None if op is AggregateOp.CNT else y
        cache_key = (transform, op, y_key)
        if cache_key in self._charts:
            hit = self._charts[cache_key]
            if hit is not None:
                self.served += 1
            return hit
        result = self._serve_uncached(transform, op, y_key)
        self._charts[cache_key] = result
        if result is not None:
            self.served += 1
        return result

    def _serve_uncached(
        self, transform, op, y: Optional[str]
    ) -> Optional[dict]:
        from ..language.ast import (
            AggregateOp,
            BinByUDF,
            BinIntoBuckets,
            GroupBy,
        )
        from ..language import binning as _binning

        if isinstance(transform, BinByUDF):
            self._fallback("udf")
            return None
        x = transform.column
        if x not in self.column_types or (
            y is not None and y not in self.column_types
        ):
            self._fallback("unknown_column")
            return None
        try:
            if self.row_count() == 0:
                self._fallback("empty")
                return None
            if y is not None and not self._is_clean_numeric(y):
                # Text-stored or infinite y cells break SUM parity.
                self._fallback("y_storage")
                return None
            if isinstance(transform, BinIntoBuckets) and self._is_clean_numeric(x):
                parts = self._serve_numeric_index(transform, y, _binning)
            else:
                parts = self._serve_distinct(transform, y, _binning)
        except sqlite3.Error:
            self._fallback("sql_error")
            return None
        if parts is None:
            return None
        labels, sort_keys, values, counts, sums = parts
        if op is AggregateOp.CNT:
            y_values = counts
        elif op is AggregateOp.SUM:
            y_values = sums
        elif op is AggregateOp.AVG:
            with np.errstate(invalid="ignore", divide="ignore"):
                y_values = np.where(counts > 0, sums / counts, 0.0)
        else:
            self._fallback("aggregate")
            return None
        return {
            "labels": tuple(labels),
            "sort_keys": tuple(np.asarray(sort_keys, dtype=np.float64).tolist()),
            "values": tuple(np.asarray(values, dtype=np.float64).tolist()),
            "y_values": tuple(np.asarray(y_values, dtype=np.float64).tolist()),
            "x_is_discrete": isinstance(transform, GroupBy),
            "source_rows": self.row_count(),
        }

    def _serve_numeric_index(self, transform, y: Optional[str], _binning):
        """Index pushdown: GROUP BY the kernel's bucket-index SQL."""
        x = transform.column
        if self.column_types[x] is not ColumnType.NUMERICAL:
            self._fallback("type_mismatch")
            return None
        n = transform.n
        if n < 1:
            self._fallback("invalid_n")
            return None
        col = f"COALESCE({_quote_ident(x)}, 0.0)"
        y_sql = (
            f"SUM(COALESCE({_quote_ident(y)}, 0.0))"
            if y is not None
            else "0.0"
        )
        conn = self._connection()
        lo, hi = conn.execute(
            f"SELECT MIN({col}), MAX({col}) FROM {self.from_clause}"
        ).fetchone()
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            count, total = conn.execute(
                f"SELECT COUNT(*), {y_sql} FROM {self.from_clause}"
            ).fetchone()
            labels, sort_keys, values = _binning.numeric_bucket_arrays(
                lo, hi, n
            )
            counts = np.asarray([count], dtype=np.float64)
            sums = np.asarray([float(total or 0.0)], dtype=np.float64)
            return labels, sort_keys, values, counts, sums
        index_sql = _binning.numeric_bin_index_sql(col, lo, hi, n)
        rows = conn.execute(
            f"SELECT {index_sql} AS bucket, COUNT(*), {y_sql} "
            f"FROM {self.from_clause} GROUP BY bucket ORDER BY bucket"
        ).fetchall()
        occupied = np.asarray([row[0] for row in rows], dtype=np.int64)
        counts = np.asarray([row[1] for row in rows], dtype=np.float64)
        sums = np.asarray(
            [float(row[2] or 0.0) for row in rows], dtype=np.float64
        )
        labels, sort_keys, values = _binning.numeric_bucket_arrays(
            lo, hi, n, occupied
        )
        return labels, sort_keys, values, counts, sums

    def _serve_distinct(self, transform, y: Optional[str], _binning):
        """Distinct pushdown: kernel over the coerced distinct column."""
        from ..language.ast import BinByGranularity, BinIntoBuckets, GroupBy

        x = transform.column
        ctype = self.column_types[x]
        need_rowid = isinstance(transform, GroupBy)
        if need_rowid and not self._has_rowid():
            # GROUP BY buckets are ordered by first appearance, which
            # needs MIN(rowid); query relations don't expose one.
            self._fallback("rowid")
            return None
        if not self._cardinality_within_limit(x):
            self._fallback("cardinality")
            return None
        distinct_values, counts, sums = self._distinct_groups(
            x, y, need_rowid
        )
        if not distinct_values:
            self._fallback("empty")
            return None
        column = Column(x, ctype, distinct_values)
        if isinstance(transform, GroupBy):
            small = _binning.group_categorical(column)
        elif isinstance(transform, BinByGranularity):
            if ctype is not ColumnType.TEMPORAL:
                self._fallback("type_mismatch")
                return None
            small = _binning.bin_temporal(column, transform.granularity)
        elif isinstance(transform, BinIntoBuckets):
            if ctype is not ColumnType.NUMERICAL:
                self._fallback("type_mismatch")
                return None
            if transform.n < 1:
                self._fallback("invalid_n")
                return None
            small = _binning.bin_numeric(column, transform.n)
        else:
            self._fallback("transform")
            return None
        num_buckets = small.num_buckets
        assignment = small.assignment
        bucket_counts = np.bincount(
            assignment, weights=counts, minlength=num_buckets
        )
        bucket_sums = np.bincount(
            assignment, weights=sums, minlength=num_buckets
        )
        return (
            small.labels,
            small.sort_keys,
            small.values,
            bucket_counts,
            bucket_sums,
        )

    # -- observability ---------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Served / fallback tallies for tests and diagnostics."""
        return {
            "served": self.served,
            "fallbacks": dict(self.fallbacks),
        }

    def record_metrics(self, registry) -> None:
        """Flush served/fallback tallies into a metrics registry."""
        registry.counter(
            "pushdown_served_total", labels={"source": "sqlite"}
        ).inc(self.served)
        for reason, count in self.fallbacks.items():
            registry.counter(
                "pushdown_fallback_total", labels={"reason": reason}
            ).inc(count)


# ----------------------------------------------------------------------
# Building tables from sources
# ----------------------------------------------------------------------
_EXTENSION_KINDS = {
    ".csv": "csv",
    ".tsv": "csv",
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".db": "sqlite",
    ".sqlite": "sqlite",
    ".sqlite3": "sqlite",
}


def resolve_source(
    path: Union[str, Path],
    kind: Optional[str] = None,
    query: Optional[str] = None,
    table: Optional[str] = None,
    name: Optional[str] = None,
    delimiter: str = ",",
) -> TableSource:
    """Build the right :class:`TableSource` for a path.

    ``kind`` may be ``csv`` / ``jsonl`` / ``sqlite`` or ``None`` to
    infer from the file extension (``auto``).  A tsv extension implies a
    tab delimiter unless one was given explicitly.
    """
    path = Path(path)
    resolved = kind if kind not in (None, "auto") else None
    if resolved is None:
        resolved = _EXTENSION_KINDS.get(path.suffix.lower())
        if resolved is None and (query is not None or table is not None):
            resolved = "sqlite"
        if resolved is None:
            resolved = "csv"
    if resolved == "csv":
        if path.suffix.lower() == ".tsv" and delimiter == ",":
            delimiter = "\t"
        return CsvSource(path, name=name, delimiter=delimiter)
    if resolved == "jsonl":
        return JsonlSource(path, name=name)
    if resolved == "sqlite":
        return SqliteSource(path, table=table, query=query, name=name)
    raise DatasetError(
        f"unknown source kind {resolved!r} "
        f"(expected csv, jsonl, or sqlite)"
    )


def _source_info(
    source: TableSource,
    mode: str,
    rows: int,
    pushdown: bool,
) -> Dict[str, object]:
    return {
        "kind": source.kind,
        "id": source.source_id(),
        "detail": source.describe(),
        "query_fingerprint": source.query_fingerprint(),
        "mode": mode,
        "pushdown": pushdown,
        "rows_ingested": rows,
    }


def _materialized_table(
    source: TableSource,
    header: List[str],
    rows: List[tuple],
    types,
    pushdown: bool,
) -> Table:
    table = Table.from_rows(source.default_name, header, rows, types)
    use_pushdown = pushdown and isinstance(source, SqliteSource)
    if use_pushdown:
        table.pushdown_provider = source.pushdown(
            {column.name: column.ctype for column in table.columns}
        )
        # Pushdown-backed results mix SQL aggregation into chart data;
        # scope them away from the pure in-memory cache entries.
        table.cache_scope = "sqlpush"
    table.source_info = _source_info(
        source, "materialized", len(rows), use_pushdown
    )
    return table


def _streaming_table(
    source: TableSource,
    sketch: TableSketch,
    types,
) -> Table:
    overrides = dict(types or {})
    profile = sketch.finish(overrides)
    table = sketch.sample_table(source.default_name, overrides)
    table.stream_profile = profile
    # The sample table's bytes do not determine the full-stream stats
    # backing its features: scope by the profile digest.
    table.cache_scope = f"stream-{profile.digest()[:16]}"
    table.source_info = _source_info(
        source, "streaming", sketch.rows_seen, False
    )
    return table


def from_source(
    source: TableSource,
    materialize: Union[bool, str] = "auto",
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    max_materialize_rows: int = DEFAULT_MATERIALIZE_ROWS,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    seed: int = DEFAULT_SEED,
    pushdown: bool = True,
    types=None,
    tracer=None,
    metrics=None,
) -> Table:
    """Build a :class:`Table` from any :class:`TableSource`, one pass.

    ``materialize`` is ``True`` (always materialise), ``False`` (always
    stream into a sketch+sample), or ``"auto"``: materialise while the
    source stays within ``max_materialize_rows``, and switch to the
    streaming build mid-pass — already-accumulated rows are replayed
    into the sketch, so the source is still read exactly once.
    """
    if isinstance(materialize, str):
        if materialize not in ("auto", "materialized", "streaming"):
            raise DatasetError(
                f"materialize must be True, False, 'auto', 'materialized' "
                f"or 'streaming', got {materialize!r}"
            )
        mode = materialize
    else:
        mode = "materialized" if materialize else "streaming"
    if mode == "auto":
        known = source.count_rows()
        if known is not None:
            mode = (
                "materialized" if known <= max_materialize_rows
                else "streaming"
            )

    observer = Observer(tracer, metrics)
    with request_scope(source=source.kind), observer, observer.span(
        "ingest",
        source=source.kind,
        source_id=source.source_id(),
        requested_mode=str(materialize),
    ) as span:
        ingest_start = time.perf_counter()
        sketch: Optional[TableSketch] = None
        pending: List[tuple] = []
        header: List[str] = []
        rows_seen = 0
        chunks_seen = 0
        for header, chunk in source.iter_chunks(chunk_rows):
            rows_seen += len(chunk)
            chunks_seen += 1
            if mode == "streaming" and sketch is None:
                sketch = TableSketch(
                    header, sample_capacity=sample_rows, seed=seed
                )
            if sketch is not None:
                sketch.add_rows(chunk)
                continue
            pending.extend(chunk)
            if mode == "auto" and rows_seen > max_materialize_rows:
                # Too big to materialise: demote the accumulated rows
                # into the sketch and keep streaming — still one pass.
                mode = "streaming"
                sketch = TableSketch(
                    header, sample_capacity=sample_rows, seed=seed
                )
                sketch.add_rows(pending)
                pending = []
        if mode == "streaming" and sketch is None:
            sketch = TableSketch(
                header, sample_capacity=sample_rows, seed=seed
            )
        if sketch is not None:
            table = _streaming_table(source, sketch, types)
            final_mode = "streaming"
        else:
            table = _materialized_table(
                source, header, pending, types, pushdown
            )
            final_mode = "materialized"
        span.set("mode", final_mode)
        span.set("rows", rows_seen)
        span.set("chunks", chunks_seen)
        span.set("columns", len(header))
        kind = source.kind
        observer.count("ingest_rows_total", rows_seen, source=kind)
        observer.count("ingest_chunks_total", chunks_seen, source=kind)
        observer.count("ingest_tables_total", source=kind, mode=final_mode)
        observer.observe(
            "ingest_seconds", time.perf_counter() - ingest_start, source=kind
        )
    return table
