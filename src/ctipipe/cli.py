"""Command-line front end for the pipeline.

Subcommands mirror the pipeline stages: ingest parses reports into report
events, enrich collects malware analyses and appends malware events, filter
rewrites the store with dedup/denylist and prints the noise report, stats and
correlate are read-only views, export writes one exchange document per event.

Exit codes: 0 success, 1 usage/config error, 2 data or provider error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Sequence

# Each command imports the stage modules it runs, so a process loads only
# what its command uses: a path query never loads enrichment or statistics.
from .config import ConfigError, PipelineConfig, load_config
from .events import (
    MALWARE,
    REPORT,
    build_report_event,
    event_to_json,
    group_event_sets,
    report_hashes,
)
from .extraction import extract_indicators, normalize_defanged
from .providers import AnalysisDataError, ProviderError
from .store import EventStore, StoreError, atomic_write


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit directly
        raise _UsageError(message)


def _read_meta(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise StoreError(f"missing metadata sidecar {path}")
    meta: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or ":" not in line:
            continue
        key, value = line.split(":", 1)
        meta[key.strip().lower()] = value.strip()
    for required in ("title", "date"):
        if not meta.get(required):
            raise StoreError(f"{path}: missing {required!r} line")
    return meta


def _report_files(config: PipelineConfig) -> list[Path]:
    if not config.reports_dir.is_dir():
        raise StoreError(f"reports directory not found: {config.reports_dir}")
    return sorted(config.reports_dir.glob("*.txt"))


def _read_report(text_path: Path, config: PipelineConfig) -> tuple[dict[str, str], str]:
    """The report's metadata and its text with defanging undone."""
    meta = _read_meta(text_path.with_suffix(".meta"))
    return meta, normalize_defanged(text_path.read_text(encoding="utf-8"), config.defang_extra)


def _normalized_report_texts(config: PipelineConfig) -> dict[str, str]:
    reports = (_read_report(text_path, config) for text_path in _report_files(config))
    return {meta["title"]: normalized for meta, normalized in reports}


def _sidecar_path(config: PipelineConfig) -> Path:
    return Path(str(config.store_path) + ".enrichment.json")


def _open_store(config: PipelineConfig) -> EventStore:
    """The store a command reads, refused when it holds no events."""
    store = EventStore(config.store_path)
    if not len(store):
        raise StoreError(f"{config.store_path} is empty")
    return store


def _cmd_ingest(config: PipelineConfig, args) -> int:
    reports = _report_files(config)
    if not reports:
        raise StoreError(f"no *.txt reports in {config.reports_dir}")
    store = EventStore(config.store_path, read=not args.force)
    if len(store):
        raise StoreError(
            f"{config.store_path} already contains {len(store)} events; re-run with --force to rebuild"
        )
    events = []
    indicator_count = 0
    titled: dict[str, Path] = {}  # title -> the .meta file that gave it
    for text_path in reports:
        meta, normalized = _read_report(text_path, config)
        meta_path = text_path.with_suffix(".meta")
        if meta["title"] in titled:
            raise StoreError(f"{meta_path}: title {meta['title']!r} is already used by {titled[meta['title']]}")
        titled[meta["title"]] = meta_path
        try:
            publication_date = dt.date.fromisoformat(meta["date"])
        except ValueError as exc:
            raise StoreError(f"{meta_path}: {exc}") from exc
        indicators = extract_indicators(normalized, text_path.name, config.extensions)
        events.append(build_report_event(meta["title"], publication_date, indicators))
        indicator_count += len(indicators)
    store.rebuild(events)
    print(f"ingested {len(reports)} reports, {indicator_count} indicators -> {config.store_path}")
    return 0


def _cmd_enrich(config: PipelineConfig, args) -> int:
    from .enrichment import EnrichmentResult, build_malware_event, enrich_transitively, replay_closure

    provider = config.make_provider()
    store = _open_store(config)
    events = store.events()
    if any(e.kind == MALWARE for e in events):
        raise StoreError(f"{config.store_path} already contains malware events")

    reports = [e for e in events if e.kind == REPORT]
    seeded = [(r, report_hashes(r)) for r in reports]
    all_seeds = set().union(*(seeds for _, seeds in seeded))
    result = EnrichmentResult()
    if all_seeds:
        result = enrich_transitively(
            all_seeds,
            provider,
            config.depth_limit,
            retries=config.retry_count,
            backoff=config.retry_backoff,
            max_workers=config.max_workers,
        )
    malware = []
    for report, seeds in seeded:
        closure = replay_closure(seeds, result, config.depth_limit)
        for hash_value in sorted(closure.all_hashes()):
            malware.append(build_malware_event(hash_value, closure.records.get(hash_value), report.info, report.date))

    # Sidecar first: the store's malware events mark the run as done, so a
    # failure before they are committed leaves a store enrich accepts again.
    atomic_write(_sidecar_path(config), [json.dumps(result.to_document(), indent=2) + "\n"])
    store.extend(malware)
    print(
        f"enriched {len(all_seeds)} extracted hashes: {len(result.records)} records, "
        f"{len(result.missing)} missing, {len(result.discovered)} discovered; "
        f"{len(malware)} malware events appended"
    )
    return 0


def _cmd_filter(config: PipelineConfig, args) -> int:
    from .filtering import (
        DEFAULT_DENYLIST,
        apply_denylist,
        contextual_noise_scores,
        dedup_attributes,
        drop_values,
        load_denylist,
    )

    rules = load_denylist(config.denylist_path) if config.denylist_path else list(DEFAULT_DENYLIST)
    store = _open_store(config)
    events = store.events()
    before = sum(len(e.attributes) for e in events)
    filtered = [apply_denylist(dedup_attributes(e), rules) for e in events]

    event_sets = group_event_sets(filtered)
    if len(event_sets) >= 2:
        noise = contextual_noise_scores(event_sets, config.noise_threshold)
        for value in sorted(noise.flagged, key=lambda v: (-noise.scores[v], v)):
            print(f"noise {noise.scores[value]:.3f} {value}")
        if not noise.flagged:
            print(f"no values flagged at threshold {config.noise_threshold} ({len(noise.scores)} scored)")
        if args.drop_noise and noise.flagged:
            filtered = [drop_values(e, noise.flagged) for e in filtered]
    else:
        print("noise scoring skipped: fewer than two event sets")

    store.rewrite(filtered)
    after = sum(len(e.attributes) for e in filtered)
    print(f"kept {after} of {before} attributes -> {config.store_path}")
    return 0


def _cmd_stats(config: PipelineConfig, args) -> int:
    from .analytics import categories_to_csv, categories_to_text, compute_stat_tables
    from .enrichment import EnrichmentResult

    events = _open_store(config).events()
    sidecar = _sidecar_path(config)
    if sidecar.is_file():
        try:
            enrichment = EnrichmentResult.from_document(json.loads(sidecar.read_text(encoding="utf-8")))
        except (AnalysisDataError, ValueError) as exc:
            raise StoreError(f"{sidecar}: {exc}") from exc
    else:
        enrichment = EnrichmentResult()
    tables = compute_stat_tables(events, enrichment, _normalized_report_texts(config))

    print(tables.summary.to_text())
    print(tables.by_type_year.to_text())
    print(categories_to_text(tables.category_pct), end="")

    if args.csv_dir:
        out = Path(args.csv_dir)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write(out / "summary.csv", [tables.summary.to_csv()])
        atomic_write(out / "data_types.csv", [tables.by_type_year.to_csv()])
        atomic_write(out / "categories.csv", [categories_to_csv(tables.category_pct)])
        print(f"CSV written to {out}")
    return 0


def _cmd_correlate(config: PipelineConfig, args) -> int:
    from .correlation import GraphOptions, build_graph, find_path, graph_to_dot, graph_to_json

    events = _open_store(config).events()
    options = GraphOptions(fuzzy=args.fuzzy, threshold=config.fuzzy_threshold, cross_set_only=args.cross_set_only)
    graph = build_graph(events, options)
    print(f"graph: {len(graph.nodes)} nodes, {graph.edge_count()} edges")
    if args.path:
        start, goal = args.path
        path = find_path(graph, start, goal)
        if path is None:
            print(f"no path between {start} and {goal}")
        else:
            print(" -> ".join(f"{node}:{graph.nodes[node][1]}" for node in path))
    if args.dot:
        atomic_write(Path(args.dot), graph_to_dot(graph))
    if args.json_out:
        atomic_write(Path(args.json_out), graph_to_json(graph))
    return 0


def _cmd_export(config: PipelineConfig, args) -> int:
    events = _open_store(config).events()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for event in events:
        (out / f"event_{event.id:05d}.json").write_text(event_to_json(event), encoding="utf-8")
    print(f"exported {len(events)} documents to {out}")
    return 0


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="ctipipe", description=__doc__)
    parser.add_argument("-c", "--config", default="pipeline.conf", help="pipeline config file")
    commands = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)

    ingest = commands.add_parser("ingest", help="parse reports into report events")
    ingest.add_argument("--force", action="store_true", help="rebuild an existing store")
    ingest.set_defaults(func=_cmd_ingest)

    enrich = commands.add_parser("enrich", help="collect malware analyses, append malware events")
    enrich.add_argument("--depth", dest="depth_limit", metavar="DEPTH", type=int,
                        help="override the configured recursion depth")
    enrich.set_defaults(func=_cmd_enrich)

    filter_cmd = commands.add_parser("filter", help="dedup, denylist, and report noise")
    filter_cmd.add_argument("--drop-noise", action="store_true", help="also remove flagged values")
    filter_cmd.set_defaults(func=_cmd_filter)

    stats = commands.add_parser("stats", help="print dataset statistics")
    stats.add_argument("--csv-dir", help="also write CSV tables into this directory")
    stats.set_defaults(func=_cmd_stats)

    correlate = commands.add_parser("correlate", help="build the correlation graph")
    correlate.add_argument("--fuzzy", action="store_true", help="add similarity edges")
    correlate.add_argument("--threshold", dest="fuzzy_threshold", metavar="THRESHOLD", type=float,
                           help="override the configured similarity threshold")
    correlate.add_argument("--cross-set-only", action="store_true", help="ignore back-link matches")
    correlate.add_argument("--path", nargs=2, type=int, metavar=("A", "B"), help="query a path between two event ids")
    correlate.add_argument("--dot", help="write the graph in DOT format")
    correlate.add_argument("--json", dest="json_out", help="write the graph as JSON")
    correlate.set_defaults(func=_cmd_correlate)

    export = commands.add_parser("export", help="write one exchange document per event")
    export.add_argument("--out", default="misp_export", help="output directory")
    export.set_defaults(func=_cmd_export)

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        # An option whose dest names a config field overrides that field,
        # and the result is validated like the file.
        config = load_config(args.config)
        config = replace(config, **{
            f.name: getattr(args, f.name) for f in fields(config) if getattr(args, f.name, None) is not None
        })
        return args.func(config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StoreError, AnalysisDataError, ProviderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())
