"""Command-line interface: automatic visualization from a shell.

Commands
--------
``visualize``  top-k charts of a CSV file (ASCII, Vega-Lite, or list)::

    python -m repro visualize data.csv --k 5 --format ascii

``search``     keyword search over a CSV's candidate charts::

    python -m repro search data.csv "average delay by hour"

``query``      run a visualization-language query against a CSV::

    python -m repro query data.csv --text "VISUALIZE bar
    SELECT carrier, CNT(carrier)
    FROM data
    GROUP BY carrier"

``datasets``   list the built-in synthetic corpus; ``generate`` writes
one of them to CSV for experimentation.

``obs``        observability tooling: ``obs report`` aggregates a JSONL
decision-event log, ``obs snapshot`` writes a golden top-k snapshot
over the bundled example tables, ``obs diff`` replays the current
code against a stored snapshot and classifies per-table quality drift,
and ``obs timeline`` joins an event log (plus optional trace / metrics
exports) into one ordered per-request narrative::

    python -m repro obs snapshot --out golden.json
    python -m repro obs diff golden.json
    python -m repro obs timeline events.jsonl --request <id>

Every pipeline command also accepts ``--profile PATH``: a sampling
wall-clock profiler runs for the duration of the command and writes
flamegraph-collapsed stacks to PATH plus a speedscope JSON profile to
PATH ``.speedscope.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .core import keyword_search, make_node, select_top_k
from .core.enumeration import EnumerationConfig
from .dataset import write_csv
from .errors import ReproError
from .obs import (
    EventLog,
    MetricsRegistry,
    RuntimeSampler,
    SamplingProfiler,
    Tracer,
    aggregate_events,
    build_snapshot,
    build_timeline,
    diff_snapshots,
    entry_from_result,
    format_drift_report,
    format_event_report,
    format_timeline,
    load_snapshot,
    maybe_span,
    parse_exemplars,
    read_event_log,
    request_scope,
    save_snapshot,
    timeline_request_ids,
)
from .language import parse_query
from .render import render_ascii, to_vega_lite_json

__all__ = ["main", "build_parser"]


def _serving_parent() -> argparse.ArgumentParser:
    """Serving + observability flags shared by every pipeline command.

    One parent parser instead of per-command copies, so ``--trace`` /
    ``--metrics`` (and ``--jobs`` / ``--backend`` / ``--no-cache``)
    behave identically under ``visualize``, ``search``, ``query``,
    ``explain``, and ``profile``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    # Marks commands carrying this parent: only they get live obs
    # plumbing in main().  Subcommand flags that happen to share a
    # dest (`obs timeline --trace/--metrics` name *input* files) must
    # not trigger trace/metrics *output* writers over their inputs.
    parent.set_defaults(obs_flags=True)
    serving = parent.add_argument_group("serving")
    serving.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers (1 = serial, -1 = all cores); results are "
        "identical at any value",
    )
    serving.add_argument(
        "--backend",
        choices=("process", "thread"),
        default="process",
        help="worker pool flavour for --jobs > 1",
    )
    serving.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the multi-level serving cache",
    )
    serving.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="attach a persistent disk cache tier (L4) rooted at DIR; "
        "entries survive across runs (ignored with --no-cache)",
    )
    ingest = parent.add_argument_group("ingestion")
    ingest.add_argument(
        "--source",
        choices=("auto", "csv", "jsonl", "sqlite"),
        default="auto",
        help="input backend; 'auto' infers from the file extension "
        "(.csv/.tsv, .jsonl/.ndjson, .db/.sqlite/.sqlite3)",
    )
    ingest.add_argument(
        "--table",
        metavar="NAME",
        help="sqlite only: read this table (rowid stays visible, so "
        "GROUP BY pushdown covers first-appearance ordering)",
    )
    ingest.add_argument(
        "--query",
        metavar="SQL",
        help="sqlite only: read the result of this SQL query instead "
        "of a whole table",
    )
    ingest.add_argument(
        "--stream",
        action="store_true",
        help="force the one-pass streaming build (sketch + reservoir "
        "sample) regardless of source size",
    )
    ingest.add_argument(
        "--no-pushdown",
        action="store_true",
        help="disable sqlite GROUP BY pushdown; transforms run on the "
        "materialised table via the in-memory kernels",
    )
    obs = parent.add_argument_group("observability")
    obs.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON of this run to PATH "
        "('-' = stdout); open via chrome://tracing",
    )
    obs.add_argument(
        "--metrics",
        metavar="PATH",
        help="write Prometheus-text metrics of this run to PATH "
        "('-' = stdout)",
    )
    obs.add_argument(
        "--events",
        metavar="PATH",
        help="append structured decision events (JSONL) of this run to "
        "PATH; inspect with `repro obs report PATH`",
    )
    obs.add_argument(
        "--profile",
        metavar="PATH",
        help="sample the run with the wall-clock profiler and write "
        "flamegraph-collapsed stacks to PATH plus speedscope JSON to "
        "PATH.speedscope.json",
    )
    obs.add_argument(
        "--profile-interval",
        type=float,
        default=0.005,
        metavar="SECONDS",
        help="sampling period for --profile (default: 0.005)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DeepEye reproduction: automatic data visualization",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    serving = _serving_parent()

    visualize = commands.add_parser(
        "visualize",
        help="top-k visualizations of a CSV file",
        parents=[serving],
    )
    visualize.add_argument(
        "csv", help="input path (CSV, JSONL, or sqlite; see --source)"
    )
    visualize.add_argument("--k", type=int, default=5, help="number of charts")
    visualize.add_argument(
        "--format",
        choices=("ascii", "vega", "list"),
        default="ascii",
        help="output format",
    )
    visualize.add_argument(
        "--enumeration",
        choices=("rules", "exhaustive"),
        default="rules",
        help="candidate generation mode",
    )
    visualize.add_argument(
        "--provenance",
        action="store_true",
        help="print a per-chart 'why this rank' provenance report "
        "(ignored with --format vega, which must stay pure JSON)",
    )

    search = commands.add_parser(
        "search", help="keyword visualization search", parents=[serving]
    )
    search.add_argument(
        "csv", help="input path (CSV, JSONL, or sqlite; see --source)"
    )
    search.add_argument("keywords", help="query, e.g. 'average delay by hour'")
    search.add_argument("--k", type=int, default=3)
    search.add_argument(
        "--format", choices=("ascii", "vega", "list"), default="ascii"
    )

    query = commands.add_parser(
        "query",
        help="run a visualization-language query",
        parents=[serving],
    )
    query.add_argument(
        "csv", help="input path (CSV, JSONL, or sqlite; see --source)"
    )
    query.add_argument(
        "--text",
        help="the query text; reads stdin when omitted",
    )
    query.add_argument(
        "--format", choices=("ascii", "vega"), default="ascii"
    )

    explain = commands.add_parser(
        "explain",
        help="rank a CSV's charts and explain each position",
        parents=[serving],
    )
    explain.add_argument(
        "csv", help="input path (CSV, JSONL, or sqlite; see --source)"
    )
    explain.add_argument("--k", type=int, default=3)

    profile = commands.add_parser(
        "profile",
        help="profile a CSV: types, cardinalities, correlations",
        parents=[serving],
    )
    profile.add_argument(
        "csv", help="input path (CSV, JSONL, or sqlite; see --source)"
    )

    commands.add_parser("datasets", help="list the built-in synthetic corpus")

    generate = commands.add_parser(
        "generate", help="write a synthetic corpus dataset to CSV"
    )
    generate.add_argument("name", help="dataset name (see `datasets`)")
    generate.add_argument("out", help="output CSV path")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)

    obs = commands.add_parser(
        "obs",
        help="observability tools: event-log reports and drift snapshots",
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    report = obs_commands.add_parser(
        "report", help="aggregate a JSONL decision-event log"
    )
    report.add_argument(
        "log", help="event-log path (rotated .1/.2/... backups included)"
    )
    report.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    snapshot = obs_commands.add_parser(
        "snapshot",
        help="write a golden top-k snapshot over the bundled example "
        "tables (the `repro datasets` testing corpus)",
    )
    snapshot.add_argument(
        "--out", default="golden_topk.json", help="snapshot output path"
    )
    snapshot.add_argument("--k", type=int, default=5)
    snapshot.add_argument(
        "--scale", type=float, default=0.05,
        help="size multiplier for the generated example tables",
    )
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument(
        "--tables",
        help="comma-separated subset of table names (default: all)",
    )
    snapshot.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="run the snapshot selections through a persistent disk "
        "cache tier rooted at DIR",
    )

    timeline = obs_commands.add_parser(
        "timeline",
        help="join an event log (plus optional trace/metrics exports) "
        "into one ordered per-request narrative",
    )
    timeline.add_argument(
        "log", help="event-log path (rotated .1/.2/... backups included)"
    )
    timeline.add_argument(
        "--request",
        metavar="ID",
        help="the request id to reconstruct (default: the log's only "
        "request; error when ambiguous)",
    )
    timeline.add_argument(
        "--list",
        action="store_true",
        help="list the request ids present in the log and exit",
    )
    timeline.add_argument(
        "--trace",
        metavar="PATH",
        help="also merge spans from a --trace Chrome-trace JSON export",
    )
    timeline.add_argument(
        "--metrics",
        metavar="PATH",
        help="also merge metric exemplars from a --metrics "
        "Prometheus-text export",
    )
    timeline.add_argument(
        "--json", action="store_true", help="emit the records as JSON"
    )

    diff = obs_commands.add_parser(
        "diff",
        help="replay the current code against a golden snapshot and "
        "classify per-table drift",
    )
    diff.add_argument("snapshot", help="golden snapshot path")
    diff.add_argument(
        "--out", help="also write the full JSON drift report to PATH"
    )
    diff.add_argument(
        "--fail-on",
        default="score_shifted,reordered,churned,missing,added",
        help="comma-separated drift kinds that make the command exit 1 "
        "(default: everything except 'identical')",
    )
    diff.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="replay through a persistent disk cache tier rooted at DIR "
        "(the cache-persistence CI job diffs twice against one DIR to "
        "prove disk-served answers are byte-identical)",
    )

    cache = commands.add_parser(
        "cache",
        help="manage a persistent disk cache tier (see --cache-dir)",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    cache_stats = cache_commands.add_parser(
        "stats", help="entry counts and on-disk bytes of a cache directory"
    )
    cache_stats.add_argument("dir", help="cache directory")
    cache_stats.add_argument(
        "--json", action="store_true", help="emit the stats as JSON"
    )

    cache_warm = cache_commands.add_parser(
        "warm",
        help="load the hottest disk entries into an in-memory cache and "
        "report per-level counts (validates a prewarm workflow)",
    )
    cache_warm.add_argument("dir", help="cache directory")
    cache_warm.add_argument(
        "--per-level", type=int, default=None,
        help="cap on entries loaded per level (default: the level's "
        "LRU capacity)",
    )

    cache_clear = cache_commands.add_parser(
        "clear", help="delete every entry under a cache directory"
    )
    cache_clear.add_argument("dir", help="cache directory")

    return parser


# ----------------------------------------------------------------------
# Observability plumbing
# ----------------------------------------------------------------------
def _obs_from_args(args):
    """(tracer, registry, events) per the --trace/--metrics/--events
    flags (None = off).

    ``--profile`` also gets a tracer even without ``--trace``: the
    profiler attributes samples to open spans, so phase context in the
    flamegraph costs nothing extra.  The trace file is still only
    written when ``--trace`` asked for one.
    """
    if not getattr(args, "obs_flags", False):
        return None, None, None
    wants_tracer = getattr(args, "trace", None) or getattr(
        args, "profile", None
    )
    tracer = Tracer() if wants_tracer else None
    registry = MetricsRegistry() if getattr(args, "metrics", None) else None
    events = (
        EventLog(path=args.events) if getattr(args, "events", None) else None
    )
    return tracer, registry, events


def _emit_obs(args, tracer: Optional[Tracer], registry, events, out) -> None:
    """Write the trace / metrics / events outputs the flags asked for."""
    if tracer is not None and getattr(args, "trace", None):
        if args.trace == "-":
            json.dump(tracer.to_chrome_trace(), out, indent=2)
            out.write("\n")
        else:
            tracer.write_chrome_trace(args.trace)
            print(f"# wrote trace to {args.trace}", file=out)
    if registry is not None:
        # One vitals sample per run, so even fast one-shot commands
        # report RSS / GC / thread gauges next to their request metrics.
        RuntimeSampler(registry).sample_once()
        text = registry.to_prometheus_text()
        if args.metrics == "-":
            out.write(text)
        else:
            with open(args.metrics, "w") as handle:
                handle.write(text)
            print(f"# wrote metrics to {args.metrics}", file=out)
    if events is not None:
        events.close()
        print(
            f"# wrote {len(events)} events to {args.events}", file=out
        )


def _emit_nodes(nodes, fmt: str, out) -> None:
    for rank, node in enumerate(nodes, start=1):
        if fmt == "vega":
            print(to_vega_lite_json(node), file=out)
        elif fmt == "ascii":
            print(f"--- #{rank} " + "-" * 50, file=out)
            print(render_ascii(node), file=out)
        else:
            print(f"{rank}. {node.describe()}", file=out)


def _phase_report(result) -> str:
    """The ``# phases:`` line body; explicit ``n/a`` when a run recorded
    no timings (e.g. a result-cache hit) instead of a blank line."""
    report = "  ".join(
        f"{name}={seconds:.3f}s ({fraction:.0%})"
        for name, seconds, fraction in result.phases()
    )
    return report or "n/a (no phase timings recorded)"


def _cache_report(result) -> str:
    """The ``# cache:`` line body; explicit ``n/a`` when the run had no
    serving cache rather than omitting the line."""
    stats = result.cache_stats
    if not stats:
        return "n/a (caching disabled)"
    levels: Dict[str, Dict[str, int]] = {}
    for key, value in stats.items():
        level, _, counter = key.rpartition("_")
        levels.setdefault(level, {})[counter] = value
    return "  ".join(
        f"{level}={counters.get('hits', 0)}h/{counters.get('misses', 0)}m"
        f"/{counters.get('size', 0)} entries"
        for level, counters in sorted(levels.items())
    )


def _cache_from_args(args):
    """The serving cache the --no-cache/--cache-dir flags ask for."""
    from .engine import DiskCacheTier, MultiLevelCache

    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    disk = DiskCacheTier(cache_dir) if cache_dir else None
    return MultiLevelCache(disk=disk)


def _load_table(args):
    """The input table per the ingestion flags.

    The positional stays named ``csv`` for compatibility, but
    --source/--table/--query route it through the multi-backend
    ingestion layer; a plain CSV path without --stream materialises
    through the exact ``read_csv`` build path.
    """
    from .dataset.sources import from_source, resolve_source

    source = resolve_source(
        args.csv,
        kind=getattr(args, "source", None),
        query=getattr(args, "query", None),
        table=getattr(args, "table", None),
    )
    return from_source(
        source,
        materialize="streaming" if getattr(args, "stream", False) else "auto",
        pushdown=not getattr(args, "no_pushdown", False),
        tracer=getattr(args, "obs_tracer", None),
        metrics=getattr(args, "obs_registry", None),
    )


def _cmd_visualize(args, out) -> int:
    from .core.explain import provenance_report

    table = _load_table(args)
    result = select_top_k(
        table,
        k=args.k,
        enumeration=args.enumeration,
        config=EnumerationConfig(n_jobs=args.jobs, backend=args.backend),
        cache=_cache_from_args(args),
        tracer=args.obs_tracer,
        metrics=args.obs_registry,
        events=args.obs_events,
        provenance=args.provenance,
    )
    print(
        f"# {table.name}: {result.candidates} candidates, "
        f"{result.valid} valid, top-{len(result.nodes)} "
        f"({result.total_seconds:.2f}s)",
        file=out,
    )
    if args.format != "vega":  # vega readers expect pure JSON after line 1
        print(f"# phases: {_phase_report(result)}", file=out)
        print(f"# cache: {_cache_report(result)}", file=out)
    _emit_nodes(result.nodes, args.format, out)
    if args.provenance and args.format != "vega":
        report = provenance_report(result)
        if report:
            print("# provenance", file=out)
            print(report, file=out, end="")
    return 0


def _cmd_search(args, out) -> int:
    table = _load_table(args)
    hits = keyword_search(table, args.keywords, k=args.k)
    if not hits:
        print(f"no charts match {args.keywords!r}", file=out)
        return 1
    for hit in hits:
        print(
            f"# score={hit.score:.2f} matched={','.join(hit.matched)}", file=out
        )
        _emit_nodes([hit.node], args.format, out)
    return 0


def _cmd_query(args, out) -> int:
    from .language import validate_query

    table = _load_table(args)
    text = args.text if args.text is not None else sys.stdin.read()
    parsed = parse_query(text)
    problems = validate_query(parsed.query, table)
    if problems:
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 2
    node = make_node(table, parsed.query)
    if args.format == "vega":
        print(to_vega_lite_json(node), file=out)
    else:
        print(render_ascii(node), file=out)
    return 0


def _cmd_datasets(args, out) -> int:
    from .corpus.generators import TESTING_SPECS, TRAINING_SPECS

    print("# testing datasets (Table IV)", file=out)
    for spec in TESTING_SPECS:
        print(f"  {spec.name}  ({spec.rows} rows, {spec.domain})", file=out)
    print("# training datasets", file=out)
    for spec in TRAINING_SPECS:
        print(f"  {spec.name}  ({spec.rows} rows, {spec.domain})", file=out)
    return 0


def _cmd_generate(args, out) -> int:
    from .corpus.generators import make_table

    table = make_table(args.name, scale=args.scale, seed=args.seed)
    write_csv(table, args.out)
    print(
        f"wrote {table.num_rows} rows x {table.num_columns} columns to "
        f"{args.out}",
        file=out,
    )
    return 0


def _cmd_explain(args, out) -> int:
    from .core import enumerate_rule_based, explain_ranking
    from .core.partial_order import matching_quality_raw

    table = _load_table(args)
    nodes = [
        n for n in enumerate_rule_based(table) if matching_quality_raw(n) > 0
    ]
    for explanation in explain_ranking(nodes, top=args.k):
        print(explanation.summary(), file=out)
        print("", file=out)
    return 0


def _cmd_profile(args, out) -> int:
    from .dataset import profile_table

    table = _load_table(args)
    print(profile_table(table).describe(), file=out)
    return 0


def _snapshot_entries(
    k: int,
    scale: float,
    seed: int,
    names: Optional[Sequence[str]],
    cache_dir: Optional[str] = None,
) -> List[dict]:
    """One snapshot entry per bundled example table (deterministic:
    `make_table` is seeded, selection runs serial partial-order).

    With ``cache_dir`` the selections run through a disk-backed cache —
    the answers must be byte-identical to the uncached replay, which is
    exactly what the cache-persistence CI job asserts by diffing a
    snapshot against a disk-tier replay twice in separate processes.
    """
    from .corpus.generators import TESTING_SPECS, make_table

    cache = None
    if cache_dir:
        from .engine import DiskCacheTier, MultiLevelCache

        cache = MultiLevelCache(disk=DiskCacheTier(cache_dir))
    wanted = list(names) if names else [s.name for s in TESTING_SPECS]
    entries = []
    for name in wanted:
        table = make_table(name, scale=scale, seed=seed)
        result = select_top_k(table, k=k, provenance=True, cache=cache)
        entries.append(
            entry_from_result(table.name, table.fingerprint(), result)
        )
    return entries


def _cmd_obs_timeline(args, out) -> int:
    """Join event / span / exemplar streams into one request narrative."""
    events = list(read_event_log(args.log))
    request_ids = timeline_request_ids(events)
    if args.list:
        if not request_ids:
            print("# no request ids in log", file=out)
            return 1
        for request_id in request_ids:
            print(request_id, file=out)
        return 0
    request_id = args.request
    if request_id is None:
        if len(request_ids) == 1:
            request_id = request_ids[0]
        else:
            print(
                f"error: log holds {len(request_ids)} request ids; pick "
                "one with --request (see --list)",
                file=sys.stderr,
            )
            return 2
    trace = None
    if args.trace:
        with open(args.trace) as handle:
            trace = json.load(handle)
    exemplars = None
    if args.metrics:
        with open(args.metrics) as handle:
            exemplars = parse_exemplars(handle.read())
    records = build_timeline(
        events, trace=trace, exemplars=exemplars, request_id=request_id
    )
    if not records:
        print(
            f"error: no records for request {request_id!r}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        json.dump(records, out, indent=2)
        out.write("\n")
    else:
        out.write(format_timeline(records))
    return 0


def _cmd_obs(args, out) -> int:
    if args.obs_command == "timeline":
        return _cmd_obs_timeline(args, out)

    if args.obs_command == "report":
        summary = aggregate_events(read_event_log(args.log))
        if args.json:
            json.dump(summary, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            out.write(format_event_report(summary))
        return 0

    if args.obs_command == "snapshot":
        names = (
            [n.strip() for n in args.tables.split(",") if n.strip()]
            if args.tables
            else None
        )
        entries = _snapshot_entries(
            args.k, args.scale, args.seed, names,
            cache_dir=getattr(args, "cache_dir", None),
        )
        config = {
            "scale": args.scale,
            "seed": args.seed,
            "tables": [entry["table"] for entry in entries],
        }
        save_snapshot(build_snapshot(entries, args.k, config), args.out)
        print(
            f"# wrote golden snapshot of {len(entries)} tables to "
            f"{args.out}",
            file=out,
        )
        return 0

    # diff: replay with the snapshot's own recorded configuration, so a
    # diff against the same code is identical by construction.
    old = load_snapshot(args.snapshot)
    config = old.get("config", {})
    k = int(old.get("k", 5))
    entries = _snapshot_entries(
        k,
        float(config.get("scale", 0.05)),
        int(config.get("seed", 0)),
        config.get("tables"),
        cache_dir=getattr(args, "cache_dir", None),
    )
    report = diff_snapshots(old, build_snapshot(entries, k, config))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    out.write(format_drift_report(report))
    fail_on = {
        kind.strip() for kind in args.fail_on.split(",") if kind.strip()
    }
    failures = sum(
        count for kind, count in report["counts"].items() if kind in fail_on
    )
    return 1 if failures else 0


def _cmd_cache(args, out) -> int:
    from .engine import DiskCacheTier, MultiLevelCache

    tier = DiskCacheTier(args.dir)
    if args.cache_command == "stats":
        stats = {
            "dir": tier.directory,
            "schema_version": int(
                tier.version_dir.rsplit("v", 1)[-1]
            ),
            "bytes": tier.total_bytes(),
            "entries": {
                level: tier.entry_count(level) for level in tier.levels
            },
        }
        if args.json:
            json.dump(stats, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            per_level = "  ".join(
                f"{level}={count}" for level, count in stats["entries"].items()
            )
            print(
                f"# cache {stats['dir']} (schema v{stats['schema_version']}):"
                f" {stats['bytes']} bytes  {per_level}",
                file=out,
            )
        return 0

    if args.cache_command == "warm":
        import time as _time

        cache = MultiLevelCache(disk=tier)
        start = _time.perf_counter()
        loaded = cache.prewarm(per_level=args.per_level)
        seconds = _time.perf_counter() - start
        per_level = "  ".join(
            f"{level}={count}" for level, count in loaded.items()
        )
        print(
            f"# prewarmed {sum(loaded.values())} entries in {seconds:.3f}s"
            f"  ({per_level or 'empty cache'})",
            file=out,
        )
        return 0

    # clear
    removed = tier.clear()
    print(f"# removed {removed} entries from {tier.directory}", file=out)
    return 0


_COMMANDS = {
    "visualize": _cmd_visualize,
    "search": _cmd_search,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "profile": _cmd_profile,
    "datasets": _cmd_datasets,
    "generate": _cmd_generate,
    "obs": _cmd_obs,
    "cache": _cmd_cache,
}


def _emit_profile(args, profiler: SamplingProfiler, out) -> None:
    """Write the --profile outputs: collapsed stacks + speedscope JSON."""
    profiler.write_collapsed(args.profile)
    speedscope = args.profile + ".speedscope.json"
    profiler.write_speedscope(speedscope, name=f"repro {args.command}")
    info = profiler.summary()
    print(
        f"# wrote profile to {args.profile} (+ .speedscope.json): "
        f"{info['samples']} samples / {info['distinct_stacks']} stacks "
        f"@ {info['interval'] * 1000:g}ms over "
        f"{info['wall_seconds']:.2f}s",
        file=out,
    )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer, registry, events = _obs_from_args(args)
    # Commands read these instead of re-parsing the flags; datasets /
    # generate / obs (no serving parent) get the disabled defaults.
    args.obs_tracer = tracer
    args.obs_registry = registry
    args.obs_events = events
    profiler = (
        SamplingProfiler(interval=args.profile_interval, tracer=tracer)
        if getattr(args, "profile", None)
        else None
    )
    try:
        # One CLI invocation is one request: ingestion, selection, and
        # every metric exemplar below correlate under a single id.
        with request_scope(command=args.command), maybe_span(
            tracer, args.command, argv=" ".join(argv or sys.argv[1:])
        ):
            if profiler is not None:
                profiler.start()
            try:
                code = _COMMANDS[args.command](args, out)
            finally:
                if profiler is not None:
                    profiler.stop()
    except (ReproError, FileNotFoundError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit_obs(args, tracer, registry, events, out)
    if profiler is not None:
        _emit_profile(args, profiler, out)
    return code
