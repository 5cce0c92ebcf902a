import datetime as dt
import http.client
import json
import logging
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from ctipipe.enrichment import (
    AnalysisRecord,
    EnrichmentResult,
    enrich_transitively,
    fetch_analysis,
    record_to_attributes,
    replay_closure,
)
from ctipipe.providers import (
    AnalysisDataError,
    FixtureProvider,
    HttpProvider,
    ProviderError,
)

from conftest import CLEAVER_MD5, CLEAVER_PDB, CLEAVER_SHA1, CLEAVER_TITLE

A = "a" * 32
B = "b" * 32
C = "c" * 32
D = "d" * 32


def record_doc(md5, dropped=()):
    return {
        "md5": md5,
        "sha1": None,
        "sha256": None,
        "compile_timestamp": None,
        "filenames": [],
        "contacted_ips": [],
        "contacted_urls": [],
        "pdb_paths": [],
        "code_sign_serials": [],
        "mutexes": [],
        "file_mappings": [],
        "strings": [],
        "dropped_hashes": list(dropped),
    }


class MappingProvider:
    """In-memory provider over a hash -> document mapping."""

    def __init__(self, documents):
        self.documents = documents
        self.calls = []

    def fetch(self, hash_value):
        self.calls.append(hash_value)
        return self.documents.get(hash_value)


class JitteryProvider(MappingProvider):
    """Sleeps a random few milliseconds per fetch to scramble completion order."""

    def __init__(self, documents, rng):
        super().__init__(documents)
        self.rng = rng
        self._lock = threading.Lock()

    def fetch(self, hash_value):
        with self._lock:
            delay = self.rng.random() * 0.004
        time.sleep(delay)
        return super().fetch(hash_value)


class FlakyProvider(MappingProvider):
    def __init__(self, documents, failures):
        super().__init__(documents)
        self.failures = failures

    def fetch(self, hash_value):
        if self.failures > 0:
            self.failures -= 1
            raise ProviderError("synthetic outage")
        return super().fetch(hash_value)


class TestFetchAnalysis:
    def test_cleaver_record(self, golden_provider):
        record = fetch_analysis(CLEAVER_MD5, golden_provider)
        assert record.sha1 == CLEAVER_SHA1
        assert record.filenames == ["zhcat.exe"]
        assert record.contacted_ips == ["1.224.181.13"]
        assert record.pdb_paths == [CLEAVER_PDB]
        assert record.md5 is None and record.sha256 is None

    def test_absent_hash(self, golden_provider):
        assert fetch_analysis("0" * 32, golden_provider) is None

    def test_invalid_query_hash(self, golden_provider):
        with pytest.raises(ValueError):
            fetch_analysis("nothex", golden_provider)

    def test_bad_ip_field_named(self):
        doc = record_doc(A)
        doc["contacted_ips"] = ["999.1.1.1"]
        provider = MappingProvider({A: doc})
        with pytest.raises(AnalysisDataError, match="contacted_ips"):
            fetch_analysis(A, provider)

    def test_bad_dropped_hash_named(self):
        doc = record_doc(A, dropped=["xyz"])
        with pytest.raises(AnalysisDataError, match="dropped_hashes"):
            fetch_analysis(A, MappingProvider({A: doc}))

    def test_record_without_any_hash(self):
        doc = record_doc(None)
        with pytest.raises(AnalysisDataError, match="md5/sha1/sha256"):
            fetch_analysis(A, MappingProvider({A: doc}))

    def test_hash_in_wrong_field(self):
        doc = record_doc(CLEAVER_SHA1)  # 40 hex chars in the md5 field
        with pytest.raises(AnalysisDataError, match="md5"):
            fetch_analysis(A, MappingProvider({A: doc}))

    def test_bad_timestamp_named(self):
        doc = record_doc(A)
        doc["compile_timestamp"] = "yesterday"
        with pytest.raises(AnalysisDataError, match="compile_timestamp"):
            fetch_analysis(A, MappingProvider({A: doc}))

    def test_list_field_type_checked(self):
        doc = record_doc(A)
        doc["strings"] = "not-a-list"
        with pytest.raises(AnalysisDataError, match="strings"):
            fetch_analysis(A, MappingProvider({A: doc}))

    def test_own_hashes_removed_from_dropped(self):
        doc = record_doc(A, dropped=[A.upper(), B, B])
        record = fetch_analysis(A, MappingProvider({A: doc}))
        assert record.dropped_hashes == [B]

    def test_timestamp_normalized_to_utc(self):
        doc = record_doc(A)
        doc["compile_timestamp"] = "2013-05-01T12:00:00+02:00"
        record = fetch_analysis(A, MappingProvider({A: doc}))
        assert record.compile_timestamp == dt.datetime(2013, 5, 1, 10, 0, tzinfo=dt.timezone.utc)

    def test_document_round_trip(self, cleaver_record):
        again = AnalysisRecord.from_document(cleaver_record.to_document())
        assert again == cleaver_record


class TestEnrichTransitively:
    def test_cycle_terminates(self):
        provider = MappingProvider({A: record_doc(A, [B]), B: record_doc(B, [A])})
        result = enrich_transitively({A}, provider, depth_limit=2, backoff=0)
        assert set(result.records) == {A, B}
        assert result.discovered == {B}
        assert result.missing == set()
        assert result.query_count == 2

    def test_no_expansion(self):
        provider = MappingProvider({A: record_doc(A)})
        result = enrich_transitively({A}, provider, depth_limit=2, backoff=0)
        assert set(result.records) == {A}
        assert result.discovered == set()
        assert result.query_count == 1

    def test_chain_depth_one(self):
        provider = MappingProvider({A: record_doc(A, [B]), B: record_doc(B, [C]), C: record_doc(C)})
        result = enrich_transitively({A}, provider, depth_limit=1, backoff=0)
        assert set(result.records) == {A}
        assert result.discovered == {B}
        assert C not in result.all_hashes()
        assert result.query_count == 1

    def test_chain_depth_two_leaves_tail_unqueried(self):
        provider = MappingProvider({A: record_doc(A, [B]), B: record_doc(B, [C]), C: record_doc(C)})
        result = enrich_transitively({A}, provider, depth_limit=2, backoff=0)
        assert set(result.records) == {A, B}
        assert result.discovered == {B, C}
        assert C not in provider.calls
        assert result.query_count == 2

    def test_missing_seed_still_consistent(self):
        provider = MappingProvider({})
        result = enrich_transitively({A}, provider, backoff=0)
        assert result.records == {}
        assert result.missing == {A}
        assert result.query_count == 1
        assert result.all_hashes() == {A}

    def test_every_queried_hash_lands_somewhere(self):
        provider = MappingProvider({A: record_doc(A, [B, C]), B: record_doc(B)})
        result = enrich_transitively({A}, provider, depth_limit=3, backoff=0)
        assert set(result.records) | result.missing >= {A, B, C}
        assert result.discovered == {B, C}

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            enrich_transitively(set(), MappingProvider({}))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            enrich_transitively({A}, MappingProvider({}), depth_limit=0)

    def test_retry_then_success(self):
        provider = FlakyProvider({A: record_doc(A)}, failures=2)
        result = enrich_transitively({A}, provider, retries=3, backoff=0)
        assert A in result.records

    def test_retry_exhaustion_raises(self, caplog):
        provider = FlakyProvider({A: record_doc(A)}, failures=10)
        with caplog.at_level(logging.WARNING, logger="ctipipe.enrichment"):
            with pytest.raises(ProviderError, match="synthetic outage"):
                enrich_transitively({A}, provider, retries=2, backoff=0)
        assert provider.failures == 7
        assert any("giving up" in message for message in caplog.messages)

    def test_data_error_propagates(self):
        bad = record_doc(A)
        bad["contacted_ips"] = ["300.1.1.1"]
        provider = MappingProvider({A: bad})
        with pytest.raises(AnalysisDataError):
            enrich_transitively({A}, provider, backoff=0)

    def test_seeds_never_discovered(self):
        provider = MappingProvider({A: record_doc(A, [B]), B: record_doc(B, [A, C])})
        result = enrich_transitively({A, B}, provider, depth_limit=3, backoff=0)
        assert result.discovered == {C}

    def test_deterministic_under_random_scheduling(self):
        documents = {
            A: record_doc(A, [B, C]),
            B: record_doc(B, [D]),
            C: record_doc(C, [D]),
            D: record_doc(D, [A]),
        }
        baseline = enrich_transitively({A}, MappingProvider(documents), depth_limit=3, backoff=0)
        for seed in range(6):
            provider = JitteryProvider(documents, random.Random(seed))
            result = enrich_transitively({A}, provider, depth_limit=3, backoff=0, max_workers=4)
            assert result == baseline

    def test_one_walk_replays_each_seed_sets_own_walk(self):
        # Oracle: a separate walk per seed set. The walk over their union
        # must fetch exactly the union of those fetches, each hash once, and
        # replaying a set's closure from it must give that set's own result.
        rng = random.Random(11)
        hashes = [f"{i:032x}" for i in range(1, 25)]
        for _ in range(60):
            documents = {h: record_doc(h, rng.sample(hashes, rng.randint(0, 3))) for h in hashes if rng.random() < 0.8}
            seed_sets = [set(rng.sample(hashes, rng.randint(1, 3))) for _ in range(rng.randint(1, 4))]
            depth = rng.randint(1, 4)
            provider = MappingProvider(documents)
            fetched = enrich_transitively(set().union(*seed_sets), provider, depth, backoff=0)
            separate_calls = set()
            for seeds in seed_sets:
                alone = MappingProvider(documents)
                assert replay_closure(seeds, fetched, depth) == enrich_transitively(seeds, alone, depth, backoff=0)
                separate_calls.update(alone.calls)
            assert sorted(provider.calls) == sorted(separate_calls)

    def test_result_document_round_trip(self):
        provider = MappingProvider({A: record_doc(A, [B])})
        result = enrich_transitively({A}, provider, depth_limit=2, backoff=0)
        again = EnrichmentResult.from_document(json.loads(json.dumps(result.to_document())))
        assert again == result


class TestRecordToAttributes:
    def test_cleaver_attributes(self, cleaver_record):
        attributes = record_to_attributes(cleaver_record, CLEAVER_TITLE)
        as_tuples = [(a.category, a.comment, a.value, a.type) for a in attributes]
        assert as_tuples == [
            ("External analysis", "original_filename", "zhcat.exe", "filename"),
            ("Network activity", "", "1.224.181.13", "ip-src"),
            ("Payload installation", "", CLEAVER_SHA1, "sha1"),
            ("Artifacts dropped", "", CLEAVER_PDB, "pdb"),
            ("Other", "", CLEAVER_TITLE, "comment"),
        ]

    def test_minimal_record(self):
        record = AnalysisRecord(md5=A)
        attributes = record_to_attributes(record, "origin.pdf")
        assert [(a.value, a.type) for a in attributes] == [(A, "md5"), ("origin.pdf", "comment")]

    def test_exactly_one_back_link(self, cleaver_record):
        attributes = record_to_attributes(cleaver_record, CLEAVER_TITLE)
        back_links = [a for a in attributes if a.type == "comment"]
        assert len(back_links) == 1
        assert back_links[0].value == CLEAVER_TITLE

    def test_artifact_buckets(self):
        record = AnalysisRecord(
            md5=A,
            code_sign_serials=["00 AB"],
            mutexes=["Global\\M"],
            file_mappings=["Session\\F"],
            strings=["marker"],
        )
        attributes = record_to_attributes(record, "o.pdf")
        artifacts = [(a.value, a.type) for a in attributes if a.category == "Artifacts dropped"]
        assert artifacts == [
            ("00 AB", "code-sign"),
            ("Global\\M", "other"),
            ("Session\\F", "other"),
            ("marker", "other"),
        ]


@pytest.fixture
def scripted_server():
    """A loopback HTTP server answering GETs with the given (status, headers,
    body) responses in turn; yields a factory returning its base URL and, per
    request, its monotonic arrival time and its headers."""
    servers = []

    def start(responses):
        arrivals = []
        script = iter(responses)

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                arrivals.append((time.monotonic(), self.headers))
                status, headers, body = next(script)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}/api", arrivals

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def raw_server():
    """A loopback TCP server that reads each request's head, sends the given
    raw bytes and closes the connection; yields a factory returning its base
    URL."""
    stop = threading.Event()
    threads = []

    def start(reply):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)

        def serve():
            with listener:
                while not stop.is_set():
                    try:
                        connection, _ = listener.accept()
                    except TimeoutError:
                        continue
                    with connection:
                        connection.settimeout(5)
                        head = b""
                        while b"\r\n\r\n" not in head and (chunk := connection.recv(4096)):
                            head += chunk
                        connection.sendall(reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        threads.append(thread)
        return f"http://127.0.0.1:{listener.getsockname()[1]}/api"

    yield start
    stop.set()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestProviders:
    def test_fixture_provider_invalid_json(self, tmp_path):
        (tmp_path / f"{A}.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(AnalysisDataError):
            FixtureProvider(tmp_path).fetch(A)

    def test_fixture_provider_case_insensitive_lookup(self, golden_provider):
        assert golden_provider.fetch(CLEAVER_MD5.upper()) is not None

    @pytest.mark.parametrize("status,header,expected", [
        (429, "0.2", 0.2),
        (503, "3", 3.0),
        (429, None, None),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),
        (503, "-1", None),
        (500, "5", None),
        (204, None, None),
    ])
    def test_http_provider_reads_retry_after(self, scripted_server, monkeypatch, status, header, expected):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        url, _ = scripted_server([(status, {"Retry-After": header} if header else {}, b"")])
        with pytest.raises(ProviderError) as caught:
            HttpProvider(url, "CTIPIPE_TEST_KEY", rate_limit=1000).fetch(A)
        assert caught.value.retry_after == expected

    def test_retry_waits_for_retry_after(self, scripted_server, monkeypatch):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        document = json.dumps({"md5": A, "filenames": ["late.exe"]}).encode()
        url, arrivals = scripted_server([(429, {"Retry-After": "0.2"}, b""), (200, {}, document)])
        provider = HttpProvider(url, "CTIPIPE_TEST_KEY", rate_limit=1000)
        result = enrich_transitively({A}, provider, 1, retries=1, backoff=0, max_workers=1)
        assert result.records[A].filenames == ["late.exe"]
        assert len(arrivals) == 2
        assert arrivals[1][0] - arrivals[0][0] >= 0.2

    def test_http_provider_sends_bearer_key(self, scripted_server, monkeypatch):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        url, arrivals = scripted_server([(200, {}, json.dumps({"md5": A}).encode())])
        assert HttpProvider(url, "CTIPIPE_TEST_KEY", rate_limit=1000).fetch(A.upper()) == {"md5": A}
        assert [headers["Authorization"] for _, headers in arrivals] == ["Bearer sekrit"]

    def test_http_provider_unknown_hash(self, scripted_server, monkeypatch):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        url, _ = scripted_server([(404, {}, b"not found")])
        assert HttpProvider(url, "CTIPIPE_TEST_KEY", rate_limit=1000).fetch(A) is None

    def test_http_provider_non_json_body(self, scripted_server, monkeypatch):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        url, _ = scripted_server([(200, {}, b"<html>busy</html>")])
        with pytest.raises(AnalysisDataError, match="not JSON"):
            HttpProvider(url, "CTIPIPE_TEST_KEY", rate_limit=1000).fetch(A)

    @pytest.mark.parametrize("reply", [
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"md5\": ", id="truncated-body"),
        pytest.param(b"garbage\r\n\r\n", id="garbage-status-line"),
        pytest.param(b"", id="closed-without-reply"),
    ])
    def test_http_provider_transport_failure(self, raw_server, monkeypatch, reply):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        with pytest.raises(ProviderError, match="failed"):
            HttpProvider(raw_server(reply), "CTIPIPE_TEST_KEY", rate_limit=1000).fetch(A)

    def test_http_provider_used_from_worker_threads(self, scripted_server, raw_server, monkeypatch):
        # Built on this thread, fetched from pool workers.
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        busy, _ = scripted_server([(503, {"Retry-After": "3"}, b"")])
        truncated = raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            refused = f"http://127.0.0.1:{sock.getsockname()[1]}/api"
        providers = [HttpProvider(url, "CTIPIPE_TEST_KEY", rate_limit=1000) for url in (busy, truncated, refused)]
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(provider.fetch, A) for provider in providers]
        errors = []
        for future in futures:
            with pytest.raises(ProviderError) as caught:
                future.result()
            errors.append(caught.value)
        assert errors[0].retry_after == 3.0
        assert isinstance(errors[1].__cause__, http.client.HTTPException)
        assert isinstance(errors[2].__cause__, OSError)
        assert errors[1].retry_after is None and errors[2].retry_after is None

    def test_http_provider_keeps_key_from_redirect_target(self, scripted_server, monkeypatch):
        monkeypatch.setenv("CTIPIPE_TEST_KEY", "sekrit")
        target, target_arrivals = scripted_server([(200, {}, json.dumps({"md5": A}).encode())])
        origin, origin_arrivals = scripted_server([(302, {"Location": f"{target}/{A}"}, b"")])
        assert HttpProvider(origin, "CTIPIPE_TEST_KEY", rate_limit=1000).fetch(A) == {"md5": A}
        assert [headers["Authorization"] for _, headers in origin_arrivals] == ["Bearer sekrit"]
        assert [headers["Authorization"] for _, headers in target_arrivals] == [None]

    def test_http_provider_requires_key(self, monkeypatch):
        monkeypatch.delenv("CTIPIPE_TEST_KEY", raising=False)
        with pytest.raises(ProviderError, match="CTIPIPE_TEST_KEY"):
            HttpProvider("https://analysis.invalid/api", "CTIPIPE_TEST_KEY")
