"""Automatic column type inference.

The paper states that temporal data types "can be automatically detected
based on the attribute values" (Section II-A).  This module implements
that detection for raw (string or mixed) value sequences:

1. values that parse as timestamps/dates under a set of common formats
   are **temporal**;
2. values that parse as floats are **numerical** — unless they look like
   four-digit years (then temporal) or like low-cardinality integer codes
   (then categorical);
3. everything else is **categorical**.

Inference is majority-vote tolerant: a column is accepted as a type when
at least :data:`TYPE_THRESHOLD` of its non-empty values conform, which
mirrors how real CSVs contain occasional stray cells.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Iterable, Optional, Sequence

import numpy as np

from .column import Column, ColumnType

__all__ = [
    "TYPE_THRESHOLD",
    "parse_temporal",
    "infer_type",
    "build_column",
]

#: Fraction of non-null values that must conform for a type to win.
TYPE_THRESHOLD = 0.95

#: Formats tried, in order, when parsing temporal strings.
_TEMPORAL_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d-%b %H:%M",  # "01-Jan 00:05" as in the paper's Table I
    "%d-%b",
    "%b %Y",
    "%Y-%m",
    "%m/%d/%Y",
    "%m/%d/%Y %H:%M",
    "%H:%M:%S",
    "%H:%M",
)

#: Formats tried on strings shaped "YYYY-MM-DD HH:MM:SS.f..." (how
#: ``str(datetime)`` writes sub-second timestamps).  Other strings never
#: try the fractional format, so they pay no extra ``strptime`` call.
_FRACTIONAL_FORMATS = ("%Y-%m-%d %H:%M:%S.%f",) + _TEMPORAL_FORMATS

#: Year assumed for formats that lack one (e.g. "01-Jan 00:05").
_DEFAULT_YEAR = 2015


def parse_temporal(value) -> Optional[_dt.datetime]:
    """Parse a single raw value into a ``datetime``, or ``None``.

    Handles ``datetime``/``date`` instances, four-digit year integers, and
    strings in any of the :data:`_TEMPORAL_FORMATS`.
    """
    if isinstance(value, _dt.datetime):
        return value
    if isinstance(value, _dt.date):
        return _dt.datetime(value.year, value.month, value.day)
    if isinstance(value, (int, np.integer)) and 1800 <= int(value) <= 2200:
        return _dt.datetime(int(value), 1, 1)
    if isinstance(value, float) and value.is_integer() and 1800 <= value <= 2200:
        return _dt.datetime(int(value), 1, 1)
    if not isinstance(value, str):
        return None
    text = value.strip()
    if not text:
        return None
    fractional = text[19:20] == "." and text[13:14] == text[16:17] == ":"
    for fmt in _FRACTIONAL_FORMATS if fractional else _TEMPORAL_FORMATS:
        try:
            parsed = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        if "%Y" not in fmt:
            parsed = parsed.replace(year=_DEFAULT_YEAR)
        return parsed
    return None


def _parse_number(value) -> Optional[float]:
    """Parse a raw value into a float, or ``None`` when it is not numeric."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float, np.integer, np.floating)):
        result = float(value)
        return result if math.isfinite(result) else None
    if isinstance(value, str):
        text = value.strip().replace(",", "")
        if not text:
            return None
        try:
            result = float(text)
        except ValueError:
            return None
        return result if math.isfinite(result) else None
    return None


def _non_null(values: Iterable) -> list:
    return [
        v
        for v in values
        if v is not None
        and not (isinstance(v, float) and math.isnan(v))
        and not (isinstance(v, str) and not v.strip())
    ]


def infer_type(values: Sequence) -> ColumnType:
    """Infer the :class:`ColumnType` of a raw value sequence.

    Empty or all-null columns default to categorical (the safest type: it
    supports grouping and counting but no arithmetic).
    """
    present = _non_null(values)
    if not present:
        return ColumnType.CATEGORICAL

    n = len(present)
    n_temporal = sum(1 for v in present if parse_temporal(v) is not None)
    numbers = [_parse_number(v) for v in present]
    n_numeric = sum(1 for v in numbers if v is not None)

    # Strings like "2015-01-03" also parse as neither number; integers like
    # 2015 parse as both.  Prefer temporal only when the values *look* like
    # dates rather than plain measurements: either they are non-numeric
    # strings, or they are all four-digit-year-like integers.
    if n_temporal / n >= TYPE_THRESHOLD:
        non_numeric_temporal = n_temporal > n_numeric
        year_like = n_numeric / n >= TYPE_THRESHOLD and all(
            v is not None and float(v).is_integer() and 1800 <= v <= 2200
            for v in numbers
        )
        if non_numeric_temporal or year_like:
            return ColumnType.TEMPORAL

    if n_numeric / n >= TYPE_THRESHOLD:
        return ColumnType.NUMERICAL
    return ColumnType.CATEGORICAL


def build_column(name: str, values: Sequence, ctype: Optional[ColumnType] = None) -> Column:
    """Build a typed :class:`Column`, inferring the type when not given.

    Raw values are coerced to the chosen representation; unparseable cells
    fall back to a neutral value (0.0 / epoch / empty string) so that a
    column with a handful of stray cells still loads.
    """
    if ctype is None:
        ctype = infer_type(values)
    ctype = ColumnType(ctype)

    if ctype is ColumnType.TEMPORAL:
        coerced = []
        for value in values:
            parsed = parse_temporal(value)
            if parsed is None:
                number = _parse_number(value)
                parsed = (
                    _dt.datetime(1970, 1, 1) + _dt.timedelta(seconds=number)
                    if number is not None
                    else _dt.datetime(1970, 1, 1)
                )
            coerced.append(parsed)
        return Column(name, ctype, coerced)

    if ctype is ColumnType.NUMERICAL:
        coerced = []
        for value in values:
            number = _parse_number(value)
            coerced.append(0.0 if number is None else number)
        return Column(name, ctype, coerced)

    return Column(name, ctype, ["" if v is None else str(v) for v in values])
