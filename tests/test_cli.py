import errno
import io
import json
import logging
import socket
import sys
from pathlib import Path

import pytest

from ctipipe.cli import run_command
from ctipipe.events import MALWARE, REPORT, document_to_event
from ctipipe.providers import FixtureProvider
from ctipipe.store import load_all

from conftest import (
    CLEAVER_MD5, CLEAVER_SHA1, CLEAVER_TITLE, DATA_DIR, GOLDEN_DIR, LAZARUS_DIR, run_python, write_config,
)


@pytest.fixture
def golden_config(tmp_path):
    return write_config(
        tmp_path,
        GOLDEN_DIR / "reports",
        provider=GOLDEN_DIR / "provider",
        denylist=GOLDEN_DIR / "denylist.txt",
        retry_backoff=0,
    )


@pytest.fixture
def lazarus_config(tmp_path):
    return write_config(tmp_path, LAZARUS_DIR / "reports")


def run(config, *argv):
    return run_command(["-c", str(config), *argv])


# Two reports share seed SHARED; DROPPED, a seed of the second report, is a
# depth-2 dropped hash of the first. DEEP is at depth 2 for the second report
# and depth 3 for the first; LONE has no analysis.
SHARED = "5d41402abc4b2a76b9719d911017c592"
DROPPED = "7d793037a0760186574b0282f2f435e7"
DEEP = "e4d909c290d0fb1ca068ffaddf22cbd0"
LONE = "8277e0910d750195b448797616e091ad"


def analysis_doc(md5, dropped=(), filename="sample.exe", ips=("10.0.0.1",)):
    return {
        "md5": md5,
        "compile_timestamp": "2016-04-01T08:00:00Z",
        "filenames": [filename],
        "contacted_ips": list(ips),
        "dropped_hashes": list(dropped),
    }


@pytest.fixture
def overlap_config(tmp_path):
    reports = tmp_path / "reports"
    reports.mkdir()
    for name, date, seeds in (
        ("alpha", "2017-01-02", (SHARED, LONE)),
        ("beta", "2017-05-06", (SHARED, DROPPED)),
    ):
        (reports / f"{name}.txt").write_text(f"Samples seen: {seeds[0]} and {seeds[1]}.\n")
        (reports / f"{name}.meta").write_text(f"title: {name}_report.pdf\ndate: {date}\n")
    provider = tmp_path / "provider"
    provider.mkdir()
    for md5, doc in (
        (SHARED, analysis_doc(SHARED, [DROPPED], "loader.exe")),
        (DROPPED, analysis_doc(DROPPED, [DEEP], "stage2.dll")),
        (DEEP, analysis_doc(DEEP, [], "stage3.dll")),
    ):
        (provider / f"{md5}.json").write_text(json.dumps(doc))
    return write_config(tmp_path, reports, provider=provider, retry_backoff=0)


@pytest.fixture
def fetch_log(monkeypatch):
    calls = []
    original = FixtureProvider.fetch

    def fetch(self, hash_value):
        calls.append(hash_value)
        return original(self, hash_value)

    monkeypatch.setattr(FixtureProvider, "fetch", fetch)
    return calls


def closed_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestUsage:
    def test_module_entry_point(self):
        result = run_python("-m", "ctipipe", "--help")
        assert result.returncode == 0, result.stderr
        assert "ingest" in result.stdout

    def test_cli_imports_only_the_standard_library(self):
        # The difference, because site may already have loaded packages from .pth files.
        result = run_python("-c", (
            "import sys; before = set(sys.modules); import ctipipe.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))"
        ))
        assert result.returncode == 0, result.stderr
        loaded = result.stdout.split()
        assert "ctipipe" in loaded
        assert [name for name in loaded if name not in sys.stdlib_module_names and name != "ctipipe"] == []

    def test_missing_config(self, tmp_path, capsys):
        code = run_command(["-c", str(tmp_path / "nope.conf"), "ingest"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_no_subcommand(self, golden_config, capsys):
        assert run_command(["-c", str(golden_config)]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, golden_config, capsys):
        assert run_command(["-c", str(golden_config), "explode"]) == 1

    def test_invalid_threshold_in_config(self, tmp_path, capsys):
        config = write_config(tmp_path, GOLDEN_DIR / "reports", fuzzy_threshold=2.0)
        assert run_command(["-c", str(config), "ingest"]) == 1
        assert "fuzzy_threshold" in capsys.readouterr().err


class TestIngest:
    def test_golden_corpus(self, golden_config, tmp_path, capsys):
        assert run(golden_config, "ingest") == 0
        assert "ingested 2 reports, 12 indicators" in capsys.readouterr().out
        events = load_all(tmp_path / "events.jsonl")
        assert [e.kind for e in events] == [REPORT, REPORT]
        assert events[0].info == CLEAVER_TITLE
        assert events[0].date.isoformat() == "2014-12-03"
        assert len(events[0].attributes) == 8

    def test_reingest_rejected(self, golden_config, capsys):
        assert run(golden_config, "ingest") == 0
        assert run(golden_config, "ingest") == 2
        assert "--force" in capsys.readouterr().err

    def test_force_rebuild_is_identical(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        first = (tmp_path / "events.jsonl").read_bytes()
        assert run(golden_config, "ingest", "--force") == 0
        assert (tmp_path / "events.jsonl").read_bytes() == first

    def test_corrupt_store_rebuilt_only_with_force(self, golden_config, tmp_path, capsys):
        assert run(golden_config, "ingest") == 0
        store = tmp_path / "events.jsonl"
        clean = store.read_bytes()
        first, second = clean.splitlines(keepends=True)
        store.write_bytes(first + second[:20] + b"\n")
        corrupt = store.read_bytes()
        capsys.readouterr()
        assert run(golden_config, "ingest") == 2
        assert f"{store}:2:" in capsys.readouterr().err
        assert store.read_bytes() == corrupt
        assert run(golden_config, "ingest", "--force") == 0
        assert store.read_bytes() == clean

    def test_duplicate_titles_rejected_before_writing(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        for name in ("first", "second"):
            (reports / f"{name}.txt").write_text("C2 at 10.1.2.3\n")
            (reports / f"{name}.meta").write_text("title: Same\ndate: 2017-01-02\n")
        config = write_config(tmp_path, reports)
        assert run(config, "ingest") == 2
        err = capsys.readouterr().err
        assert "'Same'" in err and "first.meta" in err and "second.meta" in err
        assert not (tmp_path / "events.jsonl").exists()

    def test_extension_with_whitespace_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, GOLDEN_DIR / "reports", extensions="exe, tar gz")
        assert run(config, "ingest") == 1
        assert "whitespace" in capsys.readouterr().err
        assert not (tmp_path / "events.jsonl").exists()

    def test_missing_meta_sidecar(self, tmp_path, capsys):
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "alone.txt").write_text("nothing here")
        config = write_config(tmp_path, reports)
        assert run_command(["-c", str(config), "ingest"]) == 2
        assert "sidecar" in capsys.readouterr().err


class TestEnrich:
    def test_appends_malware_events(self, golden_config, tmp_path, capsys):
        run(golden_config, "ingest")
        assert run(golden_config, "enrich") == 0
        out = capsys.readouterr().out
        assert "3 records, 1 missing, 1 discovered" in out
        events = load_all(tmp_path / "events.jsonl")
        malware = [e for e in events if e.kind == MALWARE]
        assert [e.info for e in malware] == [
            CLEAVER_SHA1,
            CLEAVER_MD5,
            "0f343b0931126a20f133d67c2b018a3b",
            "c99a74c555371a433d121f551d6c6398",
        ]
        cleaver = malware[1]
        assert len(cleaver.attributes) == 5
        assert cleaver.date.isoformat() == "2014-12-03"
        # compile timestamp takes precedence over the report date
        assert malware[2].date.isoformat() == "2016-01-07"

    def test_bare_event_for_missing_analysis(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        events = load_all(tmp_path / "events.jsonl")
        bare = next(e for e in events if e.info == CLEAVER_SHA1)
        assert [(a.type, a.value) for a in bare.attributes] == [
            ("sha1", CLEAVER_SHA1),
            ("comment", CLEAVER_TITLE),
        ]

    def test_sidecar_written(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        sidecar = json.loads((tmp_path / "events.jsonl.enrichment.json").read_text())
        assert sidecar["query_count"] == 4
        assert sidecar["missing"] == [CLEAVER_SHA1]
        assert sidecar["discovered"] == ["c99a74c555371a433d121f551d6c6398"]

    def test_double_enrich_rejected(self, golden_config, capsys):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        assert run(golden_config, "enrich") == 2

    def test_requires_provider(self, tmp_path, capsys):
        config = write_config(tmp_path, GOLDEN_DIR / "reports")
        run_command(["-c", str(config), "ingest"])
        assert run_command(["-c", str(config), "enrich"]) == 1
        assert "provider" in capsys.readouterr().err

    def test_depth_flag_overrides_config(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        assert run(golden_config, "enrich", "--depth", "1") == 0
        events = load_all(tmp_path / "events.jsonl")
        # the dropped-hash record sits at depth 2: discovered but not queried,
        # so its malware event is bare
        dropped = next(e for e in events if e.info == "c99a74c555371a433d121f551d6c6398")
        assert [a.type for a in dropped.attributes] == ["md5", "comment"]

    @pytest.mark.parametrize("depth", ["0", "-1"])
    def test_invalid_depth_flag_is_a_config_error(self, golden_config, tmp_path, capsys, depth):
        run(golden_config, "ingest")
        before = (tmp_path / "events.jsonl").read_bytes()
        capsys.readouterr()
        assert run(golden_config, "enrich", "--depth", depth) == 1
        assert capsys.readouterr().err.startswith("error: depth_limit")
        assert (tmp_path / "events.jsonl").read_bytes() == before
        assert not (tmp_path / "events.jsonl.enrichment.json").exists()

    def test_depth_flag_checked_before_the_store(self, golden_config, tmp_path, capsys):
        (tmp_path / "events.jsonl").write_text("not json\n")
        assert run(golden_config, "enrich", "--depth", "0") == 1
        assert "depth_limit" in capsys.readouterr().err

    def test_overlapping_reports_fetch_each_hash_once(self, overlap_config, tmp_path, fetch_log, capsys):
        run(overlap_config, "ingest")
        assert run(overlap_config, "enrich") == 0
        assert sorted(fetch_log) == sorted([SHARED, DROPPED, DEEP, LONE])
        assert "3 extracted hashes: 3 records, 1 missing, 1 discovered; 7 malware events" in capsys.readouterr().out
        sets = {}
        for event in load_all(tmp_path / "events.jsonl"):
            if event.kind == MALWARE:
                sets.setdefault(event.attributes[-1].value, []).append(event)
        assert {title: [e.info for e in events] for title, events in sets.items()} == {
            "alpha_report.pdf": sorted([SHARED, DROPPED, DEEP, LONE]),
            "beta_report.pdf": sorted([SHARED, DROPPED, DEEP]),
        }
        # DEEP is beyond the first report's depth limit: a bare event there,
        # the full analysis in the second report's set
        alpha_deep, beta_deep = (next(e for e in sets[t] if e.info == DEEP) for t in sorted(sets))
        assert [a.type for a in alpha_deep.attributes] == ["md5", "comment"]
        assert "stage3.dll" in [a.value for a in beta_deep.attributes]
        sidecar = json.loads((tmp_path / "events.jsonl.enrichment.json").read_text())
        assert sidecar["query_count"] == 4
        assert sidecar["discovered"] == [DEEP]

    def test_data_error_mid_walk_leaves_store_unchanged(self, overlap_config, tmp_path, capsys):
        run(overlap_config, "ingest")
        store = tmp_path / "events.jsonl"
        before = store.read_bytes()
        deep = tmp_path / "provider" / f"{DEEP}.json"
        good = deep.read_text()
        deep.write_text(json.dumps(analysis_doc(DEEP, ips=["999.1.1.1"])))
        assert run(overlap_config, "enrich") == 2
        assert "contacted_ips" in capsys.readouterr().err
        assert store.read_bytes() == before
        assert not (tmp_path / "events.jsonl.enrichment.json").exists()
        deep.write_text(good)
        assert run(overlap_config, "enrich") == 0
        assert sum(e.kind == MALWARE for e in load_all(store)) == 7

    def test_exhausted_retries_fail_without_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        config = write_config(tmp_path, GOLDEN_DIR / "reports", retry_count=0, **{
            "provider.base_url": f"http://127.0.0.1:{closed_port()}/api",
            "provider.api_key_env": "CTIPIPE_TEST_KEY",
            "provider.rate_limit": 1000,
        })
        run(config, "ingest")
        before = (tmp_path / "events.jsonl").read_bytes()
        assert run(config, "enrich") == 2
        assert "failed" in capsys.readouterr().err
        assert (tmp_path / "events.jsonl").read_bytes() == before
        assert not (tmp_path / "events.jsonl.enrichment.json").exists()

    def test_hex_titled_report_stays_a_report(self, tmp_path, capsys):
        # A bare-hex title looks like a hash; the kind comes from the back-link.
        title = "d41d8cd98f00b204e9800998ecf8427e"
        reports = tmp_path / "reports"
        reports.mkdir()
        (reports / "digest.txt").write_text(f"Sample seen: {SHARED}.\n")
        (reports / "digest.meta").write_text(f"title: {title}\ndate: 2017-01-02\n")
        provider = tmp_path / "provider"
        provider.mkdir()
        (provider / f"{SHARED}.json").write_text(json.dumps(analysis_doc(SHARED)))
        config = write_config(tmp_path, reports, provider=provider, retry_backoff=0)
        assert run(config, "ingest") == 0
        assert [(e.kind, e.info) for e in load_all(tmp_path / "events.jsonl")] == [(REPORT, title)]
        assert run(config, "enrich") == 0
        events = load_all(tmp_path / "events.jsonl")
        assert [(e.kind, e.info) for e in events] == [(REPORT, title), (MALWARE, SHARED)]
        assert run(config, "stats") == 0

    @pytest.mark.parametrize("empty", [False, True])
    def test_missing_or_empty_store_rejected(self, tmp_path, capsys, empty):
        store = tmp_path / "data" / "events.jsonl"
        config = write_config(tmp_path, GOLDEN_DIR / "reports", provider=GOLDEN_DIR / "provider", store_path=store)
        if empty:
            store.parent.mkdir()
            store.write_text("")
        before = sorted(tmp_path.rglob("*"))
        assert run(config, "enrich") == 2
        assert "is empty" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_live_provider_without_key_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MISSING_KEY_ENV", raising=False)
        config = write_config(tmp_path, GOLDEN_DIR / "reports", **{
            "provider.base_url": "https://analysis.invalid/api",
            "provider.api_key_env": "MISSING_KEY_ENV",
        })
        run_command(["-c", str(config), "ingest"])
        assert run_command(["-c", str(config), "enrich"]) == 2
        assert "MISSING_KEY_ENV" in capsys.readouterr().err


class TestFilter:
    def test_dedup_and_denylist(self, golden_config, tmp_path, capsys):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        before = load_all(tmp_path / "events.jsonl")
        assert run(golden_config, "filter") == 0
        out = capsys.readouterr().out
        after = load_all(tmp_path / "events.jsonl")
        # duplicate defanged/plain IP merged in the report event
        assert len(after[0].attributes) == len(before[0].attributes) - 1
        # desktop.ini removed by the denylist
        values = [a.value for e in after for a in e.attributes]
        assert "desktop.ini" not in values
        # the shared C2 address is the lone cross-set value, hence flagged
        assert "noise 1.000 64.120.128.154" in out
        assert [e.id for e in after] == [e.id for e in before]

    def test_drop_noise_removes_flagged(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        assert run(golden_config, "filter", "--drop-noise") == 0
        values = [a.value for e in load_all(tmp_path / "events.jsonl") for a in e.attributes]
        assert "64.120.128.154" not in values

    def test_filter_is_idempotent(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        run(golden_config, "filter")
        first = (tmp_path / "events.jsonl").read_bytes()
        run(golden_config, "filter")
        assert (tmp_path / "events.jsonl").read_bytes() == first

    def test_empty_store_rejected(self, golden_config):
        assert run(golden_config, "filter") == 2

    def test_denylist_checked_before_the_store(self, tmp_path, capsys):
        denylist = tmp_path / "denylist.txt"
        denylist.write_text("filename:\n")
        config = write_config(tmp_path, GOLDEN_DIR / "reports", denylist=denylist)
        (tmp_path / "events.jsonl").write_text("not json\n")
        assert run(config, "filter") == 1
        err = capsys.readouterr().err
        assert "empty pattern" in err and str(denylist) in err

    def test_missing_denylist_is_a_config_error(self, golden_config, tmp_path, capsys):
        run(golden_config, "ingest")
        before = (tmp_path / "events.jsonl").read_bytes()
        missing = tmp_path / "missing.txt"
        config = write_config(tmp_path, GOLDEN_DIR / "reports", denylist=missing)
        assert run(config, "filter") == 1
        assert str(missing) in capsys.readouterr().err
        assert (tmp_path / "events.jsonl").read_bytes() == before


class TestStats:
    def test_summary_numbers(self, golden_config, tmp_path, capsys):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        run(golden_config, "filter")
        assert run(golden_config, "stats") == 0
        out = capsys.readouterr().out
        assert "66.7%" in out      # 2 of 3 extracted hashes analyzed
        assert "50.0%" in out      # 1 discovered per 2 analyzed
        assert "2014" in out and "2016" in out

    def test_csv_written(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        assert run(golden_config, "stats", "--csv-dir", str(tmp_path / "csv")) == 0
        summary = (tmp_path / "csv" / "summary.csv").read_text()
        assert "analyzed malware,2,66.7" in summary
        data_types = (tmp_path / "csv" / "data_types.csv").read_text()
        assert data_types.splitlines()[0].startswith("year,hash,ip,url")
        categories = (tmp_path / "csv" / "categories.csv").read_text()
        assert categories.splitlines()[0] == "parser_only,malware_in_report,both,malware_new"
        values = [int(x) for x in categories.splitlines()[1].split(",")]
        assert sum(values) == 100

    def test_stats_does_not_mutate_store(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        before = (tmp_path / "events.jsonl").read_bytes()
        run(golden_config, "stats")
        assert (tmp_path / "events.jsonl").read_bytes() == before


    @pytest.mark.parametrize("document", [
        pytest.param([], id="not an object"),
        pytest.param({}, id="no keys"),
        pytest.param({"records": {}, "missing": [], "discovered": []}, id="no query_count"),
        pytest.param({"records": [], "missing": [], "discovered": [], "query_count": 0}, id="records a list"),
        pytest.param({"records": {"x": 1}, "missing": [], "discovered": [], "query_count": 0},
                     id="record not an object"),
        pytest.param({"records": {}, "missing": "abc", "discovered": [], "query_count": 0}, id="missing a string"),
        pytest.param({"records": {}, "missing": [], "discovered": [["a"]], "query_count": 0},
                     id="discovered holds a list"),
        pytest.param({"records": {}, "missing": [], "discovered": [], "query_count": "4"},
                     id="query_count a string"),
        pytest.param({"records": {}, "missing": [], "discovered": [], "query_count": True},
                     id="query_count a boolean"),
    ])
    def test_malformed_sidecar_is_a_data_error(self, golden_config, tmp_path, capsys, document):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        sidecar = tmp_path / "events.jsonl.enrichment.json"
        sidecar.write_text(json.dumps(document))
        capsys.readouterr()
        assert run(golden_config, "stats") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {sidecar}: ")
        assert "Traceback" not in err

class TestCorrelate:
    def test_lazarus_path(self, lazarus_config, capsys):
        run(lazarus_config, "ingest")
        assert run(lazarus_config, "correlate", "--path", "1", "3") == 0
        out = capsys.readouterr().out
        assert "1:False_Flag_Toolkit_Report.pdf -> 2:Polish_Bank_Intrusion_Report.pdf -> 3:Watering_Hole_Infrastructure_Report.pdf" in out

    def test_no_path_reported(self, lazarus_config, tmp_path, capsys):
        run(lazarus_config, "ingest")
        # isolate node 3 by querying two unconnected reports
        assert run(lazarus_config, "correlate", "--path", "1", "1") == 0
        assert "1:False_Flag_Toolkit_Report.pdf" in capsys.readouterr().out

    def test_writes_dot_and_json(self, lazarus_config, tmp_path, capsys):
        run(lazarus_config, "ingest")
        dot_path = tmp_path / "graph.dot"
        json_path = tmp_path / "graph.json"
        assert run(lazarus_config, "correlate", "--dot", str(dot_path), "--json", str(json_path)) == 0
        assert "graph correlation {" in dot_path.read_text()
        payload = json.loads(json_path.read_text())
        assert len(payload["nodes"]) == 3
        assert len(payload["edges"]) == 2

    def test_unknown_event_id(self, lazarus_config, capsys):
        run(lazarus_config, "ingest")
        assert run(lazarus_config, "correlate", "--path", "1", "99") == 2

    def test_threshold_flag_overrides_config(self, lazarus_config, tmp_path, capsys):
        run(lazarus_config, "ingest")
        # lure-download.net vs updates.winterlace.org never link, but a floor
        # threshold accepts any similarity above zero
        assert run(lazarus_config, "correlate", "--fuzzy", "--threshold", "0.01") == 0
        loose = capsys.readouterr().out
        assert run(lazarus_config, "correlate", "--fuzzy") == 0
        strict = capsys.readouterr().out
        loose_edges = int(loose.split("nodes, ")[1].split(" edges")[0])
        strict_edges = int(strict.split("nodes, ")[1].split(" edges")[0])
        assert loose_edges > strict_edges


    @pytest.mark.parametrize("flags", [[], ["--fuzzy"]], ids=["exact", "fuzzy"])
    @pytest.mark.parametrize("threshold", ["1.5", "0", "-0.2", "nan"])
    def test_invalid_threshold_flag_is_a_config_error(self, lazarus_config, capsys, flags, threshold):
        run(lazarus_config, "ingest")
        capsys.readouterr()
        assert run(lazarus_config, "correlate", *flags, "--threshold", threshold) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: fuzzy_threshold")

    def test_threshold_flag_checked_before_the_store(self, lazarus_config, tmp_path, capsys):
        assert run(lazarus_config, "correlate", "--threshold", "1.5") == 1
        assert "fuzzy_threshold" in capsys.readouterr().err
        assert not (tmp_path / "events.jsonl").exists()

class TestGraphFiles:
    """correlate --dot and --json output, byte for byte, against files in
    tests/data/graphs (golden: after ingest, enrich and filter; Lazarus: after
    ingest)."""

    @pytest.mark.parametrize("corpus", ["golden", "lazarus"])
    @pytest.mark.parametrize("name,flags", [("", []), ("_fuzzy", ["--fuzzy", "--threshold", "0.2"])])
    def test_matches_committed_files(self, corpus, name, flags, request, tmp_path):
        config = request.getfixturevalue(f"{corpus}_config")
        steps = ["ingest", "enrich", "filter"] if corpus == "golden" else ["ingest"]
        for step in steps:
            assert run(config, step) == 0
        dot_path, json_path = tmp_path / "graph.dot", tmp_path / "graph.json"
        assert run(config, "correlate", *flags, "--dot", str(dot_path), "--json", str(json_path)) == 0
        expected = DATA_DIR / "graphs" / f"{corpus}{name}"
        assert dot_path.read_bytes() == expected.with_suffix(".dot").read_bytes()
        assert json_path.read_bytes() == expected.with_suffix(".json").read_bytes()


class _TornFile:
    """A text file whose first write stores half its text and then fails
    like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestOutputsCrashSafe:
    """A write that fails part-way leaves the previous output file whole and
    no temp file beside it."""

    @pytest.fixture
    def torn_writes(self, monkeypatch):
        real_open = io.open

        def open_torn(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornFile(handle) if "w" in mode and "b" not in mode else handle

        return lambda: monkeypatch.setattr(io, "open", open_torn)

    def previous(self, directory, names):
        directory.mkdir(exist_ok=True)
        for name in names:
            (directory / name).write_text(f"previous {name}\n")

    def assert_previous(self, directory, names):
        assert sorted(p.name for p in directory.iterdir()) == sorted(names)
        for name in names:
            assert (directory / name).read_text() == f"previous {name}\n"

    def test_stats_csv(self, golden_config, tmp_path, torn_writes):
        run(golden_config, "ingest")
        names = ["summary.csv", "data_types.csv", "categories.csv"]
        self.previous(tmp_path / "csv", names)
        torn_writes()
        assert run(golden_config, "stats", "--csv-dir", str(tmp_path / "csv")) == 2
        self.assert_previous(tmp_path / "csv", names)

    @pytest.mark.parametrize("flag", ["--dot", "--json"])
    def test_correlate_graph_file(self, lazarus_config, tmp_path, torn_writes, flag):
        run(lazarus_config, "ingest")
        self.previous(tmp_path / "out", ["graph"])
        torn_writes()
        assert run(lazarus_config, "correlate", flag, str(tmp_path / "out" / "graph")) == 2
        self.assert_previous(tmp_path / "out", ["graph"])


class TestRefusalsKeepTheStore:
    """A torn tail is not committed: a command that refuses to run leaves
    it, and the store around it, as it found them."""

    @pytest.mark.parametrize("command", ["ingest", "enrich"])
    def test_torn_store_left_byte_identical(self, golden_config, tmp_path, caplog, command):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        path = tmp_path / "events.jsonl"
        with open(path, "ab") as handle:
            handle.write(b'{"id": 7, "date": "2015-')
        before = path.read_bytes()
        with caplog.at_level(logging.WARNING):
            assert run(golden_config, command) == 2
        assert path.read_bytes() == before
        assert len(caplog.records) == 1


class TestExport:
    def test_documents_round_trip(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        run(golden_config, "enrich")
        out_dir = tmp_path / "export"
        assert run(golden_config, "export", "--out", str(out_dir)) == 0
        files = sorted(out_dir.glob("event_*.json"))
        assert len(files) == 6
        events = load_all(tmp_path / "events.jsonl")
        for path, event in zip(files, events):
            assert document_to_event(json.loads(path.read_text())) == event

    def test_export_keeps_store_untouched(self, golden_config, tmp_path):
        run(golden_config, "ingest")
        before = (tmp_path / "events.jsonl").read_bytes()
        run(golden_config, "export", "--out", str(tmp_path / "export"))
        assert (tmp_path / "events.jsonl").read_bytes() == before
