"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions hold (run with -s or -rA to see them)."""

import datetime as dt
import json
import random
import string
import time
from functools import lru_cache
from pathlib import Path

import pytest

from ctipipe.analytics import PipelineSummary, category_percentages, classify_category, pipeline_summary
from ctipipe.cli import run_command
from ctipipe.correlation import build_graph, exact_edges, find_path, fuzzy_edges
from ctipipe.enrichment import AnalysisRecord, EnrichmentResult, enrich_transitively
from ctipipe.events import Attribute, Event, REPORT, document_to_event, event_to_document
from ctipipe.extraction import IndicatorKind, extract_indicators, normalize_defanged
from ctipipe.filtering import DenyRule, apply_denylist, contextual_noise_scores, dedup_attributes
from ctipipe.store import EventStore, load_all

from conftest import CLEAVER_MD5, CLEAVER_PDB, CLEAVER_SHA1, GOLDEN_DIR, LAZARUS_DIR, random_event, write_config
from test_enrichment import JitteryProvider, record_doc
from test_analytics import make_event_set, naive_classify
from test_filtering import event_set, naive_noise_scores


def report(number: int, title: str) -> None:
    print(f"ACCEPTANCE PASS {number:2d}: {title}")


def test_01_golden_extraction():
    text = normalize_defanged(
        (GOLDEN_DIR / "reports" / "Cylance_Operation_Cleaver_Report.txt").read_text()
    )
    started = time.perf_counter()
    indicators = extract_indicators(text, "cleaver")
    elapsed = time.perf_counter() - started
    assert [(i.kind, i.value) for i in indicators] == [
        (IndicatorKind.FILENAME, "zhcat.exe"),
        (IndicatorKind.CVE, "CVE-2010-0232"),
        (IndicatorKind.IP, "64.120.128.154"),
        (IndicatorKind.IP, "64.120.128.154"),
        (IndicatorKind.URL, "http://update-cleaver-ops.net/tools/zhcat.exe"),
        (IndicatorKind.MD5, CLEAVER_MD5),
        (IndicatorKind.SHA1, CLEAVER_SHA1),
        (IndicatorKind.PDB, CLEAVER_PDB),
    ]
    assert elapsed < 1.0
    report(1, "golden extraction: exact indicator list, zero misses, < 1 s")


def test_02_enrichment_termination_and_economy():
    a, b, c, d, e = ("a" * 32, "b" * 32, "c" * 32, "d" * 32, "e" * 32)
    graphs = {
        "two-node cycle": {a: record_doc(a, [b]), b: record_doc(b, [a])},
        "chain": {a: record_doc(a, [b]), b: record_doc(b, [c]), c: record_doc(c)},
        "diamond with back edge": {
            a: record_doc(a, [b, c]),
            b: record_doc(b, [d]),
            c: record_doc(c, [d]),
            d: record_doc(d, [a, e]),
        },
    }
    for name, documents in graphs.items():
        baseline = None
        for run in range(10):
            provider = JitteryProvider(documents, random.Random(run * 7919))
            result = enrich_transitively({a}, provider, depth_limit=3, backoff=0, max_workers=4)
            assert result.query_count <= len(documents) + 1, name
            assert result.query_count == len(set(provider.calls)), f"{name}: a hash was queried twice"
            serialized = json.dumps(result.to_document(), sort_keys=False)
            if baseline is None:
                baseline = (result, serialized)
            else:
                assert result == baseline[0], name
                assert serialized == baseline[1], name
    report(2, "enrichment terminates on cycles; identical across 10 scrambled runs")


def test_03_summary_arithmetic():
    events = [
        Event(1, dt.date(2016, 1, 1), "r.pdf", REPORT, [
            Attribute("Payload installation", "", "a" * 32, "md5"),
            Attribute("Payload installation", "", "b" * 32, "md5"),
            Attribute("Payload installation", "", "c" * 40, "sha1"),
        ]),
    ]
    enrichment = EnrichmentResult(
        records={h: AnalysisRecord(md5=h) for h in ("a" * 32, "b" * 32, "d" * 32)},
        missing={"c" * 40},
        discovered={"d" * 32},
        query_count=4,
    )
    summary = pipeline_summary(events, enrichment)
    assert summary.analyzed_pct == 66.7
    assert summary.discovered_pct == 50.0
    reference = PipelineSummary(612, 642810, extracted_hashes=14313, analyzed=9753, discovered=450)
    assert reference.analyzed_pct == 68.1
    assert reference.discovered_pct == 4.6
    report(3, "summary arithmetic: 66.7%/50.0% on the fixture, 68.1%/4.6% at scale")


def test_04_category_oracle():
    rng = random.Random(8151)
    hostnames = [f"node{i}.range{i}.com" for i in range(10)]
    hashes = [f"{i:040x}" for i in range(10)]
    words = [f"Marker{i}" for i in range(10)]
    vocabulary = hostnames + hashes + words
    for _ in range(100):
        parser_values = set(rng.sample(vocabulary, rng.randint(1, 10)))
        malware_values = set(rng.sample(vocabulary, rng.randint(1, 10)))
        mentioned = rng.sample(vocabulary, rng.randint(0, 12))
        text = " ".join(tok.upper() if rng.random() < 0.5 else tok for tok in mentioned)
        for value in sorted(parser_values | malware_values):
            got = classify_category(value, parser_values, malware_values, text)
            assert got == naive_classify(value, parser_values, malware_values, text), value
        labeled_set = make_event_set("r.pdf", sorted(parser_values), sorted(malware_values))
        percentages = category_percentages([labeled_set], {"r.pdf": text})
        assert sum(percentages.values()) == 100
    report(4, "category labels agree with the naive oracle on 100 random fixtures")


def test_05_round_trips(tmp_path):
    rng = random.Random(424242)
    store = EventStore(tmp_path / "events.jsonl")
    stored = store.extend([random_event(rng) for _ in range(1000)])
    loaded = load_all(tmp_path / "events.jsonl")
    assert loaded == stored
    for event in loaded:
        assert document_to_event(json.loads(json.dumps(event_to_document(event)))) == event
    report(5, "store and export round-trip 1000 random events exactly")


def test_06_correlation_path(tmp_path):
    config = write_config(tmp_path, LAZARUS_DIR / "reports")
    assert run_command(["-c", str(config), "ingest"]) == 0
    events = load_all(tmp_path / "events.jsonl")
    graph = build_graph(events)
    assert find_path(graph, 1, 3) == [1, 2, 3]

    rng = random.Random(606)
    for _ in range(40):
        fixture = [random_event(rng, i) for i in range(1, rng.randint(2, 10))]
        expected = set()
        for left in fixture:
            for right in fixture:
                if left.id >= right.id:
                    continue
                for la in left.attributes:
                    for ra in right.attributes:
                        if la.type == ra.type and la.value == ra.value:
                            expected.add((left.id, right.id, la.type, la.value))
        got = {(e.a, e.b, e.data_type, e.value_a) for e in exact_edges(fixture)}
        assert got == expected
    report(6, "three-report path is A->B->C; exact edges match brute force")


def _oracle_similarity(x: str, y: str) -> float:
    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == 0 or j == 0:
            return 0
        if x[i - 1] == y[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    if not x and not y:
        return 1.0
    return 2.0 * lcs(len(x), len(y)) / (len(x) + len(y))


def test_07_fuzzy_matcher():
    events = [
        Event(1, dt.date(2017, 1, 1), "a.pdf", REPORT, [Attribute("Network activity", "", "bartsimpson.com", "hostname")]),
        Event(2, dt.date(2017, 1, 1), "b.pdf", REPORT, [Attribute("Network activity", "", "bsimpson.net", "hostname")]),
    ]
    edges = fuzzy_edges(events, threshold=0.8)
    assert len(edges) == 1
    assert edges[0].weight == pytest.approx(16 / 19, abs=1e-9)  # LCS("bartsimpson","bsimpson") = 8

    rng = random.Random(1417)
    linked = 0
    oracle_linked = 0
    for index in range(100):
        names = ["".join(rng.choice(string.ascii_lowercase) for _ in range(8)) for _ in range(2)]
        suffixes = [rng.choice(["com", "net", "org"]) for _ in range(2)]
        pair = [
            Event(1, dt.date(2017, 1, 1), "a.pdf", REPORT, [Attribute("Network activity", "", f"{names[0]}.{suffixes[0]}", "hostname")]),
            Event(2, dt.date(2017, 1, 1), "b.pdf", REPORT, [Attribute("Network activity", "", f"{names[1]}.{suffixes[1]}", "hostname")]),
        ]
        if fuzzy_edges(pair, threshold=0.8):
            linked += 1
        if names[0] != names[1] and _oracle_similarity(names[0], names[1]) >= 0.8:
            oracle_linked += 1
    assert linked == oracle_linked
    assert linked <= 1
    report(7, "fuzzy matcher links the reference domain pair, <= 1 of 100 random pairs")


def test_08_noise_heuristic():
    sets = [
        event_set(i, [f"unique_{i}_{j}" for j in range(4)] + ["telemetry.example-sync.net"])
        for i in range(5)
    ]
    noise = contextual_noise_scores(sets, threshold=0.7)
    assert noise.scores["telemetry.example-sync.net"] == pytest.approx(1.0, abs=1e-9)
    assert noise.flagged == {"telemetry.example-sync.net"}
    expected = naive_noise_scores(sets)
    assert set(expected) == set(noise.scores)
    for value, score in expected.items():
        assert noise.scores[value] == pytest.approx(score, abs=1e-9)
    report(8, "noise score 1.0 +- 1e-9 for the planted value; matches brute force")


def test_09_idempotence_suite():
    rng = random.Random(909090)
    alphabet = "abx.[]{}()dothps:/@ mid"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        once = normalize_defanged(text)
        assert normalize_defanged(once) == once

    rules = [DenyRule("desktop.ini"), DenyRule("*.tmp", "filename"), DenyRule("*a*", "other")]
    for index in range(1000):
        event = random_event(rng, index + 1)
        deduped = dedup_attributes(event)
        assert dedup_attributes(deduped) == deduped
        denied = apply_denylist(event, rules)
        assert apply_denylist(denied, rules) == denied
    report(9, "defang, dedup, and denylist idempotent over 1000 random inputs")


def run_pipeline(base: Path) -> dict[str, bytes]:
    base.mkdir()
    config = write_config(
        base,
        GOLDEN_DIR / "reports",
        provider=GOLDEN_DIR / "provider",
        denylist=GOLDEN_DIR / "denylist.txt",
        retry_backoff=0,
    )
    csv_dir = base / "csv"
    dot_path = base / "graph.dot"
    for argv in (
        ["ingest"],
        ["enrich"],
        ["filter"],
        ["stats", "--csv-dir", str(csv_dir)],
        ["correlate", "--dot", str(dot_path), "--path", "1", "2"],
    ):
        assert run_command(["-c", str(config), *argv]) == 0, argv
    return {
        "store": (base / "events.jsonl").read_bytes(),
        "summary": (csv_dir / "summary.csv").read_bytes(),
        "data_types": (csv_dir / "data_types.csv").read_bytes(),
        "categories": (csv_dir / "categories.csv").read_bytes(),
        "dot": dot_path.read_bytes(),
    }


def test_10_end_to_end(tmp_path, capsys):
    started = time.perf_counter()
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    elapsed = time.perf_counter() - started
    assert first == second
    assert elapsed < 60.0
    assert first["store"]
    capsys.readouterr()  # swallow pipeline chatter before the verdict line
    report(10, "end-to-end pipeline byte-identical across runs, < 60 s")
