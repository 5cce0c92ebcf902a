"""Run one ctipipe CLI command with spans recorded around each module's
public calls.

    python3 trace.py OUT.json -c pipeline.conf <command> [args...]

Before the command runs, the functions listed in ``TARGETS`` are replaced,
in their module and in every ``ctipipe`` module that imported them by name,
with wrappers that record a span (name, start, end, parent, thread, error)
and, for some, a count taken from the arguments or the result. Spans and
counts stay in memory and are written to OUT.json when the command ends. A
target that no longer exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
import types

# (module, attribute path, span name, counter). A counter gets
# (counts, args, result) after a successful call.
TARGETS = [
    ("ctipipe.extraction", "normalize_defanged", "extraction.normalize", None),
    ("ctipipe.extraction", "extract_indicators", "extraction.extract", "extract"),
    ("ctipipe.store", "EventStore.__init__", "store.open", "open"),
    ("ctipipe.store", "load_all", "store.load_all", "load_all"),
    ("ctipipe.store", "EventStore.append", "store.append", None),
    ("ctipipe.store", "EventStore.rewrite", "store.rewrite", None),
    ("ctipipe.enrichment", "enrich_transitively", "enrichment.walk", None),
    ("ctipipe.providers", "FixtureProvider.fetch", "providers.fetch", None),
    ("ctipipe.providers", "HttpProvider.fetch", "providers.fetch", None),
    ("ctipipe.filtering", "dedup_attributes", "filtering.dedup", None),
    ("ctipipe.filtering", "apply_denylist", "filtering.denylist", None),
    ("ctipipe.filtering", "contextual_noise_scores", "filtering.noise", "noise"),
    ("ctipipe.cli", "_normalized_report_texts", "analytics.report_texts", None),
    ("ctipipe.analytics", "compute_stat_tables", "analytics.tables", None),
    ("ctipipe.correlation", "build_graph", "correlation.build_graph", None),
    ("ctipipe.correlation", "exact_edges", "correlation.exact", "edges"),
    ("ctipipe.correlation", "fuzzy_edges", "correlation.fuzzy", "edges"),
    ("ctipipe.correlation", "find_path", "correlation.path", None),
    ("ctipipe.correlation", "graph_to_json", "correlation.graph_to_json", None),
]

# Called once per compared pair: counted, not spanned, to keep overhead low.
COUNTED = [
    ("ctipipe.correlation", "name_similarity", "correlation.fuzzy_comparisons"),
    ("os", "fsync", "store.fsyncs"),
]


def _count_extract(counts, args, result):
    counts["extraction.indicators"] = counts.get("extraction.indicators", 0) + len(result)
    counts["extraction.text_chars"] = counts.get("extraction.text_chars", 0) + len(args[0])


def _count_open(counts, args, result):
    # args[0] is the store object; a parse happens when the file had content.
    if getattr(args[0], "_bench_parsed", False):
        counts["store.reads"] = counts.get("store.reads", 0) + 1


def _count_load_all(counts, args, result):
    counts["store.reads"] = counts.get("store.reads", 0) + 1


def _count_noise(counts, args, result):
    counts["filtering.values_scored"] = counts.get("filtering.values_scored", 0) + len(result.scores)
    counts["filtering.values_flagged"] = counts.get("filtering.values_flagged", 0) + len(result.flagged)


def _count_edges(counts, args, result, name=None):
    counts[name] = counts.get(name, 0) + len(result)


COUNTERS = {"extract": _count_extract, "open": _count_open, "load_all": _count_load_all, "noise": _count_noise}


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def wrap(self, name, function, counter=None):
        spans, local, lock, counts, ids = self.spans, self._local, self._lock, self.counts, self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident(), error))
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def counted(self, name, function):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return function(*args, **kwargs)

        return counting

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, handle)


def _replace(module_name: str, attribute: str, make) -> bool:
    """Swap ``module.attribute`` (or ``module.Class.method``) for
    ``make(original)``, also where a ctipipe module imported it by name."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if original is None:
        return False
    replacement = make(original)
    setattr(owner, name, replacement)
    if owner is module:
        for other in list(sys.modules.values()):
            if other is not None and other.__name__.startswith("ctipipe") and getattr(other, name, None) is original:
                setattr(other, name, replacement)
    return True


def install(recorder: Recorder) -> None:
    for module_name, attribute, span, counter_key in TARGETS:
        counter = COUNTERS.get(counter_key)
        if counter_key == "edges":
            counter = lambda counts, args, result, n=span + "_edges": _count_edges(counts, args, result, n)
        if attribute == "EventStore.__init__":
            make = lambda original, s=span, c=counter: recorder.wrap(s, _mark_parse(original), c)
        else:
            make = lambda original, s=span, c=counter: recorder.wrap(s, original, c)
        if not _replace(module_name, attribute, make):
            recorder.absent.append(f"{module_name}.{attribute}")
    for module_name, attribute, name in COUNTED:
        if not _replace(module_name, attribute, lambda original, n=name: recorder.counted(n, original)):
            recorder.absent.append(f"{module_name}.{attribute}")
    _wrap_cli_json(recorder)


def _mark_parse(original):
    def init(self, path, *args, **kwargs):
        self._bench_parsed = os.path.isfile(path) and os.path.getsize(path) > 0
        original(self, path, *args, **kwargs)

    return init


def _wrap_cli_json(recorder: Recorder) -> None:
    """Time the CLI's own JSON encoding (sidecar, graph, export documents)
    without touching json.dumps elsewhere, e.g. inside store appends."""
    cli = importlib.import_module("ctipipe.cli")
    module = getattr(cli, "json", None)
    if module is None or not hasattr(module, "dumps"):
        recorder.absent.append("ctipipe.cli.json.dumps")
        return
    shim = types.ModuleType("json")
    shim.__dict__.update(module.__dict__)
    shim.dumps = recorder.wrap("cli.json_dumps", module.dumps)
    cli.json = shim


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from ctipipe.cli import run_command

    try:
        return run_command(argv)
    finally:
        recorder.write(out)


if __name__ == "__main__":
    sys.exit(main())
