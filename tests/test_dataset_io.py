"""Unit tests for CSV IO round-trips."""

import datetime as dt

import pytest

from repro.dataset import ColumnType, Table, read_csv, write_csv
from repro.errors import DatasetError


def _table():
    return Table.from_dict(
        "sample",
        {
            "city": ["a", "b"],
            "value": [1.5, 2.0],
            "count": [3, 4],
            "when": [dt.datetime(2020, 1, 1, 9, 30), dt.datetime(2020, 2, 2)],
        },
    )


def test_roundtrip_preserves_schema_and_values(tmp_path):
    path = tmp_path / "sample.csv"
    write_csv(_table(), path)
    loaded = read_csv(path)
    assert loaded.name == "sample"
    assert loaded.column("city").ctype is ColumnType.CATEGORICAL
    assert loaded.column("value").ctype is ColumnType.NUMERICAL
    assert loaded.column("when").ctype is ColumnType.TEMPORAL
    assert list(loaded.column("value").values) == [1.5, 2.0]
    assert loaded.column("when").as_datetimes()[0] == dt.datetime(2020, 1, 1, 9, 30)


def test_integer_cells_written_without_decimal(tmp_path):
    path = tmp_path / "ints.csv"
    write_csv(_table(), path)
    text = path.read_text()
    assert ",3," in text or ",3\n" in text  # not "3.0"


def test_read_csv_type_pinning(tmp_path):
    path = tmp_path / "pin.csv"
    path.write_text("code\n1\n2\n")
    loaded = read_csv(path, types={"code": ColumnType.CATEGORICAL})
    assert loaded.column("code").ctype is ColumnType.CATEGORICAL


def test_read_csv_custom_name_and_delimiter(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("a;b\n1;x\n")
    loaded = read_csv(path, name="renamed", delimiter=";")
    assert loaded.name == "renamed"
    assert loaded.num_columns == 2


def test_read_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetError):
        read_csv(path)


def test_fractional_second_timestamps_roundtrip_as_temporal(tmp_path):
    # write_csv renders sub-second datetimes as "YYYY-MM-DD HH:MM:SS.ffffff";
    # read_csv must infer them back as temporal, so the charts a CSV
    # yields are the charts of the in-memory table.
    from repro.core import select_top_k
    from repro.corpus.generators import make_table
    from repro.obs.drift import node_id

    table = make_table("FlyDelay", scale=0.02, seed=401)
    path = tmp_path / "flydelay.csv"
    write_csv(table, path)
    assert "." in path.read_text().splitlines()[1]
    loaded = read_csv(path, name=table.name)
    assert loaded.column("scheduled").ctype is ColumnType.TEMPORAL
    expected = select_top_k(table, k=10).nodes
    actual = select_top_k(loaded, k=10).nodes
    assert [node_id(n) for n in actual] == [node_id(n) for n in expected]
