"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.corpus import make_table
from repro.dataset import write_csv


@pytest.fixture
def flights_csv(tmp_path):
    table = make_table("FlyDelay", scale=0.005)
    path = tmp_path / "flights.csv"
    write_csv(table, path)
    return str(path)


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestVisualize:
    def test_ascii_output(self, flights_csv):
        code, text = _run(["visualize", flights_csv, "--k", "3"])
        assert code == 0
        assert "candidates" in text
        assert text.count("--- #") == 3

    def test_list_output(self, flights_csv):
        code, text = _run(["visualize", flights_csv, "--k", "2", "--format", "list"])
        assert code == 0
        assert text.count("\n1. ") + text.count("\n2. ") >= 1

    def test_vega_output_is_json(self, flights_csv):
        code, text = _run(["visualize", flights_csv, "--k", "1", "--format", "vega"])
        assert code == 0
        body = text.split("\n", 1)[1]
        spec = json.loads(body)
        assert spec["$schema"].startswith("https://vega.github.io")

    def test_missing_file_is_an_error(self):
        code, _ = _run(["visualize", "/nonexistent.csv"])
        assert code == 2


class TestSearch:
    def test_finds_matching_chart(self, flights_csv):
        code, text = _run(
            ["search", flights_csv, "average delay by hour", "--format", "list"]
        )
        assert code == 0
        assert "AVG" in text
        assert "score=" in text

    def test_no_match_exit_code(self, flights_csv):
        code, text = _run(["search", flights_csv, "zzzz"])
        assert code == 1
        assert "no charts match" in text


class TestQuery:
    def test_runs_inline_query(self, flights_csv):
        query = (
            "VISUALIZE bar\n"
            "SELECT carrier, CNT(carrier)\n"
            "FROM flights\n"
            "GROUP BY carrier"
        )
        code, text = _run(["query", flights_csv, "--text", query])
        assert code == 0
        assert "bar" in text

    def test_bad_query_is_an_error(self, flights_csv):
        code, _ = _run(["query", flights_csv, "--text", "VISUALIZE donut"])
        assert code == 2


class TestDatasetsAndGenerate:
    def test_datasets_lists_corpus(self):
        code, text = _run(["datasets"])
        assert code == 0
        assert "FlyDelay" in text
        assert "Monthly Sales" in text

    def test_generate_writes_csv(self, tmp_path):
        out_path = tmp_path / "gen.csv"
        code, text = _run(
            ["generate", "Monthly Sales", str(out_path), "--scale", "0.1"]
        )
        assert code == 0
        assert out_path.exists()
        header = out_path.read_text().splitlines()[0]
        assert "revenue_usd" in header

    def test_generate_unknown_dataset(self, tmp_path):
        code, _ = _run(["generate", "Nope", str(tmp_path / "x.csv")])
        assert code == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["visualize", "x.csv"])
        assert args.k == 5
        assert args.format == "ascii"
        assert args.enumeration == "rules"


class TestObservabilityFlags:
    def test_no_cache_prints_explicit_na(self, flights_csv):
        code, text = _run(
            ["visualize", flights_csv, "--k", "2", "--format", "list",
             "--no-cache"]
        )
        assert code == 0
        assert "# cache: n/a (caching disabled)" in text
        assert "# phases:" in text

    def test_cache_line_shows_levels_when_enabled(self, flights_csv):
        code, text = _run(
            ["visualize", flights_csv, "--k", "2", "--format", "list"]
        )
        assert code == 0
        assert "results=" in text and "transforms=" in text

    def test_provenance_flag_appends_report(self, flights_csv):
        code, text = _run(
            ["visualize", flights_csv, "--k", "2", "--format", "list",
             "--provenance"]
        )
        assert code == 0
        assert "# provenance" in text
        assert "#1:" in text and "factors:" in text

    def test_events_flag_writes_jsonl(self, flights_csv, tmp_path):
        log_path = tmp_path / "events.jsonl"
        code, text = _run(
            ["visualize", flights_csv, "--k", "2", "--format", "list",
             "--events", str(log_path)]
        )
        assert code == 0
        assert log_path.exists()
        assert "# wrote" in text and "events" in text
        from repro.obs import read_event_log

        events = read_event_log(log_path)
        assert any(e["kind"] == "request" for e in events)
        assert any(e["kind"] == "rank" for e in events)


class TestObsCommand:
    def test_report_renders_tables(self, flights_csv, tmp_path):
        log_path = tmp_path / "events.jsonl"
        _run(["visualize", flights_csv, "--k", "2", "--format", "list",
              "--events", str(log_path)])
        code, text = _run(["obs", "report", str(log_path)])
        assert code == 0
        assert "per-phase:" in text
        assert "per-table:" in text

    def test_report_json(self, flights_csv, tmp_path):
        log_path = tmp_path / "events.jsonl"
        _run(["visualize", flights_csv, "--k", "2", "--format", "list",
              "--events", str(log_path)])
        code, text = _run(["obs", "report", str(log_path), "--json"])
        assert code == 0
        summary = json.loads(text)
        assert summary["requests"] == 1
        flights = summary["tables"]["flights"]
        assert flights["considered"] == flights["emitted"] + flights["pruned"]

    def test_snapshot_then_diff_is_clean(self, tmp_path):
        golden = tmp_path / "golden.json"
        code, text = _run(
            ["obs", "snapshot", "--out", str(golden), "--k", "2",
             "--scale", "0.02", "--tables", "Happiness Rank"]
        )
        assert code == 0
        snapshot = json.loads(golden.read_text())
        assert snapshot["tables"][0]["chart_ids"]
        report_path = tmp_path / "drift.json"
        code, text = _run(
            ["obs", "diff", str(golden), "--out", str(report_path)]
        )
        assert code == 0
        assert "drift: none" in text
        report = json.loads(report_path.read_text())
        assert report["clean"] is True

    def test_diff_fails_on_doctored_snapshot(self, tmp_path):
        golden = tmp_path / "golden.json"
        _run(["obs", "snapshot", "--out", str(golden), "--k", "2",
              "--scale", "0.02", "--tables", "Happiness Rank"])
        snapshot = json.loads(golden.read_text())
        snapshot["tables"][0]["chart_ids"].reverse()
        snapshot["tables"][0]["scores"].reverse()
        golden.write_text(json.dumps(snapshot))
        code, text = _run(["obs", "diff", str(golden)])
        assert code == 1
        assert "reordered" in text


def test_importing_the_cli_loads_no_corpus_pool_or_scipy():
    """``import repro.cli`` is the start-up path of every command: the
    synthetic corpus, the process pool and scipy load only when used."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        "import sys, repro.cli\n"
        "from repro.core import DeepEye\n"
        "DeepEye(ranking='partial_order', recognizer_model=None, cache=False)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    )
    loaded = done.stdout.split()
    assert "repro.cli" in loaded
    for prefix in ("repro.corpus", "multiprocessing", "scipy"):
        assert not [m for m in loaded if m == prefix or m.startswith(prefix + ".")]
