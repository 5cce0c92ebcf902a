"""Tests of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

The smoke runs use the tiny corpus size: the same rounds, processes and output
checks as a full run, finished in seconds. The other tests show that the
checks reject wrong output and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import corpus
import run

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tiny_run_passes_its_checks(workload, trace):
    result = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"], result.stdout
    assert summary["failed"] == 0
    assert summary["attempted"] % (len(run.PIPELINE) + 4) == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    else:
        assert "absent: none" in result.stdout


def test_same_seed_same_inputs(tmp_path):
    first = corpus.generate("near_duplicates", 9, tmp_path / "a", "tiny")
    second = corpus.generate("near_duplicates", 9, tmp_path / "b", "tiny")
    files = sorted(p.relative_to(first.root) for p in first.root.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second.root) for p in second.root.rglob("*") if p.is_file())
    for path in files:
        assert (first.root / path).read_bytes() == (second.root / path).read_bytes()
    assert first.queries == second.queries and first.near_pairs == second.near_pairs


def test_lcs_matches_dynamic_programming():
    def dp(x, y):
        table = [[0] * (len(y) + 1) for _ in range(len(x) + 1)]
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                table[i + 1][j + 1] = table[i][j] + 1 if a == b else max(table[i][j + 1], table[i + 1][j])
        return table[-1][-1]

    rng = random.Random(1)
    for _ in range(500):
        x = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        y = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        assert checks.lcs_length(x, y) == dp(x, y)


def test_checks_reject_wrong_output(tmp_path):
    """Run the pipeline once on a tiny corpus, then corrupt each output."""
    data = corpus.generate("hub_corpus", 4, tmp_path / "c", "tiny")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cli(*arguments):
        return subprocess.run(
            [sys.executable, "-c", "from ctipipe.cli import main; main()", "-c", str(data.config_path), *arguments],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout

    cli("ingest")
    ingested = checks.parse_store(data.root / "store" / "events.jsonl")
    cli("enrich")
    enriched = checks.parse_store(data.root / "store" / "events.jsonl")
    noise_out = cli("filter")
    filtered = checks.parse_store(data.root / "store" / "events.jsonl")
    stats_out = cli("stats")
    graph_path = tmp_path / "graph.json"
    correlate_out = cli("correlate", "--json", str(graph_path))
    graph = json.loads(graph_path.read_text())
    cli("export", "--out", str(tmp_path / "export"))
    a, b, connected = next(q for q in data.queries if q[2])
    path_out = cli("correlate", "--path", str(a), str(b))

    truth = checks.EnrichTruth(data)
    adjacency = checks.Adjacency(filtered, False, data.threshold)
    sidecar = json.loads((data.root / "store" / "events.jsonl.enrichment.json").read_text())
    assert checks.check_ingest(data, ingested) == []
    assert checks.check_enrich(data, truth, enriched, sidecar) == []
    assert checks.check_stats(data, truth, filtered, stats_out) == []
    assert checks.check_correlate(data, adjacency, filtered, graph, correlate_out, 1) == []
    assert checks.check_filter(data, enriched, filtered) == []
    assert checks.check_noise(data, filtered, noise_out, 1) == []
    assert checks.check_export(filtered, tmp_path / "export") == []
    assert checks.check_query(data, adjacency, a, b, True, path_out) == []

    ingested[0]["Attribute"].pop()
    assert checks.check_ingest(data, ingested)
    sidecar["missing"].append("0" * 32)
    assert checks.check_enrich(data, truth, enriched, sidecar)
    enriched[-1]["Attribute"][0]["value"] += "x"
    assert checks.check_filter(data, enriched, filtered)
    assert checks.check_stats(data, truth, filtered[:-1], stats_out)
    graph["edges"].pop()
    assert checks.check_correlate(data, adjacency, filtered, graph, correlate_out, 1)
    flagged = [line for line in noise_out.splitlines() if line.startswith("noise ")]
    assert flagged, "the tiny hub corpus flags its top hub"
    assert checks.check_noise(data, filtered, noise_out.replace(flagged[0], ""), 1)
    document = tmp_path / "export" / "event_00001.json"
    document.write_text(document.read_text().replace('"id": 1', '"id": 2', 1))
    assert checks.check_export(filtered, tmp_path / "export")
    assert checks.check_query(data, adjacency, a, b, True, f"no path between {a} and {b}\n")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _bench("--workload", "hub_corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
