"""Seeded end-to-end benchmark of the ctipipe CLI.

    python3 bench/run.py --workload hub_corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark generates a seeded
corpus (see ``corpus.py``), then runs whole rounds until ``--seconds`` have
passed: the six commands ``ingest, enrich, filter, stats, correlate --json,
export``, then the workload's ``correlate --path A B`` queries. Every command
and query is its own ``python3`` process, run one at a time, the way a user
runs them. Every later round must reproduce the first round's outputs byte
for byte; after the last round, those outputs are checked against the
generator's ground truth and independent computations (``checks.py``), so
that no checking runs between timed operations.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
round as the baseline, then traced rounds (``trace.py``) and prints the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus as corpus_module

BENCH_DIR = Path(__file__).resolve().parent
PIPELINE = ("ingest", "enrich", "filter", "stats", "correlate", "export")
SETUP_STARTS = 15
PROCESS_TIMEOUT_S = 150
# No new round starts this long after the benchmark began, so that a run
# always exits well inside three minutes.
LAST_ROUND_START_S = 110

# The machines this runs on are shared, and their speed drifts: the median
# time of a fixed Python loop moves by a third between 2-second windows. So a
# fixed loop is timed just before and just after every operation, and the CPU
# time the operation's process used is scaled to the speed at which the loop
# takes REFERENCE_CALIBRATION_S ("reference seconds"). The rest of its wall
# time (waits on the provider, the disk, other processes) is not scaled: it
# does not grow when the processor slows. Nothing of the program runs in the
# loop, so a change to the program moves the figures and a change in machine
# speed moves them less.
CALIBRATION_LOOPS = 200_000
REFERENCE_CALIBRATION_S = 0.02

END_TO_END = {
    "reports_per_s": "reports/s",
    "path_query_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"cli.{step}_s": "s" for step in PIPELINE},
    **{f"cli.{step}_peak_mb": "MiB" for step in PIPELINE},
    "extraction.normalize_s": "s",
    "extraction.extract_s": "s",
    "extraction.indicators": "count",
    "extraction.text_mb": "MB",
    "store.appends": "count",
    "store.append_s": "s",
    "store.fsyncs": "count",
    "store.reads": "count",
    "store.read_s": "s",
    "store.rewrite_s": "s",
    "store.mb": "MB",
    "enrichment.walks": "count",
    "enrichment.walk_s": "s",
    "enrichment.in_flight": "ratio",
    "providers.fetches": "count",
    "providers.retries": "count",
    "providers.fetch_ms_p50": "ms",
    "filtering.dedup_s": "s",
    "filtering.denylist_s": "s",
    "filtering.noise_s": "s",
    "filtering.values_scored": "count",
    "filtering.values_flagged": "count",
    "analytics.report_texts_s": "s",
    "analytics.tables_s": "s",
    "correlation.exact_s": "s",
    "correlation.exact_edges": "count",
    "correlation.path_s": "s",
    "correlation.graph_json_s": "s",
    "correlation.graph_json_mb": "MB",
    "correlation.fuzzy_s": "s",
    "correlation.fuzzy_edges": "count",
    "correlation.fuzzy_comparisons": "count",
    "export.documents": "count",
    "export.mb": "MB",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "bench.calibration_ms": "ms",
}


def _calibration_sample() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@dataclass
class Proc:
    wall: float
    cpu: float        # user and system time of the process
    speed: float      # calibration loop time: mean of one sample just before and one just after
    peak_mb: float
    returncode: int
    stdout: str

    @property
    def reference_s(self) -> float:
        """Wall time with its CPU share scaled to reference seconds."""
        cpu = min(self.cpu, self.wall)
        return cpu * REFERENCE_CALIBRATION_S / self.speed + (self.wall - cpu)


@dataclass
class Round:
    number: int
    procs: dict[str, Proc] = field(default_factory=dict)
    queries: list[Proc] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    sizes: dict[str, float] = field(default_factory=dict)

    @property
    def all_procs(self) -> list[Proc]:
        return [*self.procs.values(), *self.queries]

    @property
    def operations_s(self) -> float:
        return sum(p.wall for p in self.all_procs)

    @property
    def pipeline_s(self) -> float:
        return sum(self.procs[step].wall for step in PIPELINE)

    @property
    def pipeline_reference_s(self) -> float:
        return sum(self.procs[step].reference_s for step in PIPELINE)


def _digest_paths(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes() if path.is_file() else b"<absent>")
    return digest.hexdigest()


class Bench:
    def __init__(self, args, checkout: Path):
        self.args = args
        work_root = checkout / ".bench_work"
        self.work = work_root / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
        self.corpus_dir = self.work / "corpus"
        self.logs = self.work / "logs"
        self.traces = self.work / "traces"
        self.kept = self.work / "kept"
        self.standin: subprocess.Popen | None = None
        self.errors: list[str] = []
        self.absent: set[str] = set()
        self.calibration: list[float] = []
        self.wall: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.lower().endswith("_proxy") and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONHOME")
        }
        self.env.update({
            "PYTHONPATH": str(checkout / "src"),
            "PYTHONPYCACHEPREFIX": str(work_root / "pycache"),
            "NO_PROXY": "127.0.0.1,localhost",
            "no_proxy": "127.0.0.1,localhost",
            corpus_module.API_KEY_ENV: "bench",
        })
        # The program's worker count: the stand-in provider's thread and the
        # workers together use at most the processors available.
        self.max_workers = max(1, len(os.sched_getaffinity(0)) - 1)

    # processes ---------------------------------------------------------------

    def run_process(self, argv: list[str], log_name: str) -> Proc:
        before = _calibration_sample()
        out_path = self.logs / f"{log_name}.out"
        with open(out_path, "wb") as out, open(self.logs / f"{log_name}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.corpus_dir, env=self.env, stdout=out, stderr=err)
            signal.alarm(PROCESS_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                proc.wait()
                return Proc(time.perf_counter() - start, 0.0, before, 0.0, -9, "")
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        after = _calibration_sample()
        self.calibration += [before, after]
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, (before + after) / 2, usage.ru_maxrss / 1024.0,
                    proc.returncode, out_path.read_text(encoding="utf-8"))

    def cli_argv(self, arguments: list[str], trace_out: Path | None) -> list[str]:
        config = ["-c", str(self.corpus.config_path)]
        if trace_out is None:
            return [sys.executable, "-c", "from ctipipe.cli import main; main()", *config, *arguments]
        return [sys.executable, str(BENCH_DIR / "trace.py"), str(trace_out), *config, *arguments]

    def start_standin(self) -> None:
        fail_file = self.work / "standin-fail.txt"
        fail_file.write_text("\n".join(sorted(self.corpus.fail_first)) + "\n", encoding="utf-8")
        with open(self.logs / "standin.err", "wb") as err:
            self.standin = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "standin.py"), "--docs", str(self.corpus_dir / "analyses"),
                 "--fail", str(fail_file), "--delay-ms", str(self.corpus.delay_ms)],
                env=self.env, stdout=subprocess.PIPE, stderr=err,
            )
        ready, _, _ = select.select([self.standin.stdout], [], [], 30)
        line = self.standin.stdout.readline().decode() if ready else ""
        if not line.startswith("port "):
            raise RuntimeError("stand-in provider did not start")
        self.port = int(line.split()[1])
        corpus_module.write_config(self.corpus, f"http://127.0.0.1:{self.port}/analyses", self.max_workers)

    def request_log(self) -> list[tuple[str, int]]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/_control/log")
            return [tuple(entry) for entry in json.loads(connection.getresponse().read())]
        finally:
            connection.close()

    def stop(self) -> None:
        if self.standin is not None:
            self.standin.terminate()
            try:
                self.standin.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.standin.kill()
                self.standin.wait()
            self.standin.stdout.close()
            self.standin = None
        shutil.rmtree(self.work, ignore_errors=True)

    # set-up ------------------------------------------------------------------

    def prepare(self) -> None:
        self.logs.mkdir(parents=True)
        self.traces.mkdir()
        self.kept.mkdir()
        self.corpus = corpus_module.generate(self.args.workload, self.args.seed, self.corpus_dir, self.args.size)
        if self.args.workload == "slow_provider":
            self.start_standin()
        else:
            corpus_module.write_config(self.corpus, None, self.max_workers)

    def measure_setup(self) -> list[Proc]:
        """Fresh interpreters that import ctipipe and load the workload's
        config, after one warm-up start."""
        code = "import sys, ctipipe; from ctipipe.config import load_config; load_config(sys.argv[1])"
        argv = [sys.executable, "-c", code, str(self.corpus.config_path)]
        starts = []
        for start in range(SETUP_STARTS + 1):
            proc = self.run_process(argv, f"setup-{start}")
            if proc.returncode != 0:
                raise RuntimeError(f"set-up start failed: {(self.logs / f'setup-{start}.err').read_text()[-500:]}")
            starts.append(proc)
        return starts[1:]

    # rounds ------------------------------------------------------------------

    def step_arguments(self, step: str) -> list[str]:
        fuzzy = ["--fuzzy"] if self.corpus.fuzzy else []
        if step == "correlate":
            return ["correlate", *fuzzy, "--json", str(self.work / "graph.json")]
        if step == "export":
            return ["export", "--out", str(self.work / "export")]
        return [step]

    def step_outputs(self, step: str) -> list[Path]:
        store = self.corpus_dir / "store" / "events.jsonl"
        if step in ("ingest", "filter"):
            return [store]
        if step == "enrich":
            return [store, Path(str(store) + ".enrichment.json")]
        if step == "correlate":
            return [self.work / "graph.json"]
        if step == "export":
            return sorted((self.work / "export").glob("*"))
        return []

    def run_round(self, number: int, traced: bool, reference: Round | None) -> Round:
        """One round of every operation. The first round keeps copies of the
        store after ingest and after enrich for the checks; later rounds must
        reproduce every output of the first byte for byte."""
        for path in (self.corpus_dir / "store", self.work / "export"):
            shutil.rmtree(path, ignore_errors=True)
        (self.work / "graph.json").unlink(missing_ok=True)
        if self.standin is not None:
            self.request_log()  # clears the stand-in's log and first-request state
        record = Round(number)
        for step in PIPELINE:
            trace_out = self.traces / f"{number}-{step}.json" if traced else None
            proc = self.run_process(self.cli_argv(self.step_arguments(step), trace_out), f"{number}-{step}")
            record.procs[step] = proc
            outputs = self.step_outputs(step)
            record.digests[step] = _digest_paths(outputs) + hashlib.sha256(proc.stdout.encode()).hexdigest()
            if reference is None and step in ("ingest", "enrich") and proc.returncode == 0:
                for output in outputs:
                    shutil.copyfile(output, self.kept / f"{step}-{output.name}")
            if step == "enrich" and self.standin is not None:
                errors = checks.check_request_log(self.corpus, self.truth, self.request_log())
                self.errors += [f"round {number} enrich: {e}" for e in errors[:5]]
        fuzzy = ["--fuzzy"] if self.corpus.fuzzy else []
        for index, (a, b, _) in enumerate(self.corpus.queries):
            trace_out = self.traces / f"{number}-query{index}.json" if traced else None
            proc = self.run_process(self.cli_argv(["correlate", *fuzzy, "--path", str(a), str(b)], trace_out),
                                    f"{number}-query{index}")
            record.queries.append(proc)
            record.digests[f"query{index}"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
        record.sizes["store"] = self._size([self.corpus_dir / "store" / "events.jsonl"])
        record.sizes["graph"] = self._size([self.work / "graph.json"])
        export_files = list((self.work / "export").glob("*.json"))
        record.sizes["export"] = self._size(export_files)
        record.sizes["documents"] = len(export_files)
        for proc in record.all_procs:
            self.attempted += 1
            if proc.returncode != 0:
                self.failed += 1
        if reference is not None:
            for key, digest in record.digests.items():
                if digest != reference.digests.get(key):
                    self.errors.append(f"round {number}: {key} output differs from round {reference.number}")
        return record

    @staticmethod
    def _size(paths: list[Path]) -> float:
        return sum(p.stat().st_size for p in paths if p.is_file()) / 1e6

    def check_outputs(self, reference: Round) -> None:
        """Check the first round's outputs; the store copies kept after ingest
        and enrich, and the last round's final files, which equal the first
        round's by digest."""
        corpus, procs = self.corpus, reference.procs
        ok = {step: procs[step].returncode == 0 for step in PIPELINE}
        if ok["ingest"]:
            self.errors += checks.check_ingest(corpus, checks.parse_store(self.kept / "ingest-events.jsonl"))
        if not ok["enrich"]:
            return
        enriched = checks.parse_store(self.kept / "enrich-events.jsonl")
        sidecar = json.loads((self.kept / "enrich-events.jsonl.enrichment.json").read_text(encoding="utf-8"))
        self.errors += checks.check_enrich(corpus, self.truth, enriched, sidecar)
        if not ok["filter"]:
            return
        filtered = checks.parse_store(self.corpus_dir / "store" / "events.jsonl")
        self.errors += checks.check_filter(corpus, enriched, filtered)
        self.errors += checks.check_noise(corpus, filtered, procs["filter"].stdout, self.args.seed)
        if ok["stats"]:
            self.errors += checks.check_stats(corpus, self.truth, filtered, procs["stats"].stdout)
        adjacency = checks.Adjacency(filtered, corpus.fuzzy, corpus.threshold)
        if ok["correlate"]:
            graph = json.loads((self.work / "graph.json").read_text(encoding="utf-8"))
            self.errors += checks.check_correlate(corpus, adjacency, filtered, graph, procs["correlate"].stdout,
                                                  self.args.seed)
        if ok["export"]:
            self.errors += checks.check_export(filtered, self.work / "export")
        for (a, b, connected), proc in zip(corpus.queries, reference.queries):
            if proc.returncode == 0:
                self.errors += checks.check_query(corpus, adjacency, a, b, connected, proc.stdout)

    def run(self) -> dict:
        began = time.perf_counter()
        self.prepare()
        self.truth = checks.EnrichTruth(self.corpus)
        setup = [] if self.args.trace else self.measure_setup()
        deadline = time.perf_counter() + self.args.seconds
        reference = self.run_round(1, False, None)
        rounds = [reference]
        traced: list[Round] = []
        batch = traced if self.args.trace else rounds
        while time.perf_counter() - began < LAST_ROUND_START_S:
            # Start a round only if one as long as the last ends by the
            # deadline. Every run has at least two rounds, so that every run
            # compares a later round's outputs with the first's; in a traced
            # run, the second is the first traced round.
            if len(rounds) + len(traced) >= 2 and time.perf_counter() + batch[-1].operations_s > deadline:
                break
            batch.append(self.run_round(len(rounds) + len(traced) + 1, bool(self.args.trace), reference))
        self.rounds = rounds
        self.traced_rounds = traced
        self.check_outputs(reference)
        if self.args.trace:
            return self.layer_metrics(reference, traced)
        self.wall = self.timings(rounds, setup, lambda p: p.wall)
        return {
            **self.timings(rounds, setup, lambda p: p.reference_s),
            "peak_rss_mb": max(p.peak_mb for r in rounds for p in r.all_procs),
        }

    def timings(self, rounds: list[Round], setup: list[Proc], seconds) -> dict[str, float]:
        # Each command's median over the rounds, summed: one slow command in
        # one round moves the figure less than a median of round sums would.
        pipeline_s = sum(statistics.median(seconds(r.procs[step]) for r in rounds) for step in PIPELINE)
        return {
            "reports_per_s": len(self.corpus.reports) / pipeline_s,
            "path_query_s": statistics.median(seconds(q) for r in rounds for q in r.queries),
            "setup_s": statistics.median(seconds(p) for p in setup),
        }

    # per-layer metrics ---------------------------------------------------------

    def layer_metrics(self, baseline: Round, traced: list[Round]) -> dict:
        per_round = [self._round_layers(r) for r in traced]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in PER_LAYER if name in per_round[0]}
        # In reference seconds, so that machine drift between the baseline
        # round and the traced rounds moves it less.
        overhead = statistics.median(r.pipeline_reference_s for r in traced) - baseline.pipeline_reference_s
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / baseline.pipeline_reference_s
        metrics["bench.calibration_ms"] = 1000.0 * statistics.median(self.calibration)
        return metrics

    def _round_layers(self, record: Round) -> dict:
        self_s: dict[tuple[str, str], float] = {}
        durations: dict[tuple[str, str], list[float]] = {}
        errors: dict[tuple[str, str], int] = {}
        counts: dict[tuple[str, str], int] = {}
        query_path_s = []
        steps = [*PIPELINE, *(f"query{i}" for i in range(len(record.queries)))]
        for step in steps:
            path = self.traces / f"{record.number}-{step}.json"
            if not path.is_file():
                continue
            trace = json.loads(path.read_text(encoding="utf-8"))
            self.absent.update(trace["absent"])
            for name, seconds in _self_times(trace["spans"]).items():
                self_s[step, name] = self_s.get((step, name), 0.0) + seconds
            for span_id, name, start, end, parent, thread, error in trace["spans"]:
                durations.setdefault((step, name), []).append(end - start)
                if error:
                    errors[step, name] = errors.get((step, name), 0) + 1
            for key, value in trace["counts"].items():
                counts[step, key] = value
            if step.startswith("query"):
                query_path_s.append(self_s.get((step, "correlation.path"), 0.0))

        def pipeline_self(name):
            return sum(self_s.get((step, name), 0.0) for step in PIPELINE)

        def pipeline_count(key):
            return sum(counts.get((step, key), 0) for step in PIPELINE)

        def spans(step, name):
            return durations.get((step, name), [])

        m: dict[str, float] = {}
        for step in PIPELINE:
            m[f"cli.{step}_s"] = record.procs[step].wall
            m[f"cli.{step}_peak_mb"] = record.procs[step].peak_mb
        m["extraction.normalize_s"] = pipeline_self("extraction.normalize")
        m["extraction.extract_s"] = pipeline_self("extraction.extract")
        m["extraction.indicators"] = pipeline_count("extraction.indicators")
        m["extraction.text_mb"] = pipeline_count("extraction.text_chars") / 1e6
        m["store.appends"] = sum(len(spans(step, "store.append")) for step in PIPELINE)
        m["store.append_s"] = pipeline_self("store.append")
        m["store.fsyncs"] = pipeline_count("store.fsyncs")
        m["store.reads"] = pipeline_count("store.reads")
        m["store.read_s"] = pipeline_self("store.open") + pipeline_self("store.load_all")
        m["store.rewrite_s"] = pipeline_self("store.rewrite")
        m["store.mb"] = record.sizes["store"]
        fetches = spans("enrich", "providers.fetch")
        m["enrichment.walks"] = len(spans("enrich", "enrichment.walk"))
        m["enrichment.walk_s"] = pipeline_self("enrichment.walk")
        m["enrichment.in_flight"] = sum(fetches) / record.procs["enrich"].wall
        m["providers.fetches"] = len(fetches)
        m["providers.retries"] = errors.get(("enrich", "providers.fetch"), 0)
        m["providers.fetch_ms_p50"] = 1000.0 * statistics.median(fetches) if fetches else 0.0
        m["filtering.dedup_s"] = pipeline_self("filtering.dedup")
        m["filtering.denylist_s"] = pipeline_self("filtering.denylist")
        m["filtering.noise_s"] = pipeline_self("filtering.noise")
        m["filtering.values_scored"] = pipeline_count("filtering.values_scored")
        m["filtering.values_flagged"] = pipeline_count("filtering.values_flagged")
        m["analytics.report_texts_s"] = pipeline_self("analytics.report_texts")
        m["analytics.tables_s"] = pipeline_self("analytics.tables")
        m["correlation.exact_s"] = self_s.get(("correlate", "correlation.exact"), 0.0)
        m["correlation.exact_edges"] = counts.get(("correlate", "correlation.exact_edges"), 0)
        m["correlation.path_s"] = statistics.median(query_path_s) if query_path_s else 0.0
        m["correlation.graph_json_s"] = (self_s.get(("correlate", "correlation.graph_to_json"), 0.0)
                                         + self_s.get(("correlate", "cli.json_dumps"), 0.0))
        m["correlation.graph_json_mb"] = record.sizes["graph"]
        m["correlation.fuzzy_s"] = self_s.get(("correlate", "correlation.fuzzy"), 0.0)
        m["correlation.fuzzy_edges"] = counts.get(("correlate", "correlation.fuzzy_edges"), 0)
        m["correlation.fuzzy_comparisons"] = counts.get(("correlate", "correlation.fuzzy_comparisons"), 0)
        m["export.documents"] = record.sizes["documents"]
        m["export.mb"] = record.sizes["export"]
        return m


def _self_times(spans: list) -> dict[str, float]:
    """Per span name: the spans' time minus the part their child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, name, start, end, parent, thread, error in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for span_id, name, start, end, parent, thread, error in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        totals[name] = totals.get(name, 0.0) + (end - start - covered)
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus_module.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure whole rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same rounds and checks on a small corpus")
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "ctipipe" / "cli.py").is_file():
        print(f"error: no ctipipe sources under {checkout / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    # Exit through the clean-up below (stand-in stopped, work removed).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args, checkout)
    try:
        values = bench.run()
    finally:
        bench.stop()

    rounds = len(bench.rounds) + len(bench.traced_rounds)
    print(f"workload {args.workload} ({args.size}) seed {args.seed}: {rounds} rounds, "
          f"{bench.attempted} operations attempted, {bench.failed} failed, "
          f"{'all checks passed' if not bench.errors else f'{len(bench.errors)} check errors'}")
    for record in [*bench.rounds, *bench.traced_rounds]:
        kind = "traced" if record in bench.traced_rounds else "untraced"
        steps = " ".join(f"{step} {record.procs[step].wall:.3f}" for step in PIPELINE)
        print(f"round {record.number} ({kind}): {steps}, six commands {record.pipeline_s:.3f} s "
              f"({record.pipeline_reference_s:.3f} reference s), "
              f"query median {statistics.median(q.wall for q in record.queries):.3f} s "
              f"({statistics.median(q.reference_s for q in record.queries):.3f} reference s)")
    for error in bench.errors:
        print(f"check failed: {error}")
    print(f"calibration: median {1000 * statistics.median(bench.calibration):.3f} ms over "
          f"{len(bench.calibration)} samples, reference {1000 * REFERENCE_CALIBRATION_S:.3f} ms")
    if args.trace:
        print(f"absent: {', '.join(sorted(bench.absent)) or 'none'}")
    else:
        print("wall-clock, unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in bench.wall.items()))
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name} {values.get(name, 0.0):.6g} {unit}")
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
