import datetime as dt
import json
import logging
import os
import random
import stat

import pytest

from ctipipe.enrichment import fetch_analysis
from ctipipe.events import (
    Attribute,
    Event,
    REPORT,
    build_malware_event,
    build_report_event,
    event_to_document,
)
from ctipipe.extraction import Indicator, IndicatorKind
from ctipipe.store import CorruptStoreError, EventStore, atomic_write, load_all

from conftest import CLEAVER_DATE, CLEAVER_MD5, CLEAVER_TITLE, DATA_DIR, random_event

GOLDEN_STORE = DATA_DIR / "golden_store.jsonl"


def simple_event(info="a_report.pdf"):
    return Event(0, dt.date(2015, 6, 1), info, REPORT, [Attribute("Other", "", "v", "other")])


class TestAppendLoad:
    def test_two_event_round_trip(self, tmp_path):
        store = EventStore(tmp_path / "events.jsonl")
        first = store.append(simple_event("one.pdf"))
        second = store.append(simple_event("two.pdf"))
        assert (first.id, second.id) == (1, 2)
        loaded = load_all(tmp_path / "events.jsonl")
        assert loaded == [first, second]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert load_all(path) == []

    def test_missing_file(self, tmp_path):
        assert load_all(tmp_path / "absent.jsonl") == []

    def test_attribute_ids_are_store_wide(self, tmp_path):
        store = EventStore(tmp_path / "events.jsonl")
        event = Event(0, dt.date(2015, 6, 1), "r.pdf", REPORT, [
            Attribute("Other", "", "a", "other"),
            Attribute("Other", "", "b", "other"),
        ])
        first = store.append(event)
        second = store.append(event)
        assert [a.id for a in first.attributes] == [1, 2]
        assert [a.id for a in second.attributes] == [3, 4]

    def test_ids_survive_restart(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventStore(path).append(simple_event())
        reopened = EventStore(path)
        second = reopened.append(simple_event("later.pdf"))
        assert second.id == 2
        assert second.attributes[0].id == 2
        ids = [e.id for e in load_all(path)]
        assert ids == sorted(set(ids)) == [1, 2]

    def test_randomized_round_trip(self, tmp_path):
        rng = random.Random(7)
        store = EventStore(tmp_path / "events.jsonl")
        stored = [store.append(random_event(rng)) for _ in range(120)]
        assert load_all(tmp_path / "events.jsonl") == stored


class TestGoldenFile:
    def test_reference_pair_is_byte_identical(self, tmp_path, golden_provider):
        indicators = [
            Indicator(IndicatorKind.FILENAME, "zhcat.exe", "r", 0),
            Indicator(IndicatorKind.CVE, "CVE-2010-0232", "r", 0),
            Indicator(IndicatorKind.IP, "64.120.128.154", "r", 0),
        ]
        store = EventStore(tmp_path / "events.jsonl")
        store.append(build_report_event(CLEAVER_TITLE, CLEAVER_DATE, indicators))
        record = fetch_analysis(CLEAVER_MD5, golden_provider)
        store.append(build_malware_event(CLEAVER_MD5, record, CLEAVER_TITLE, CLEAVER_DATE))
        assert (tmp_path / "events.jsonl").read_bytes() == GOLDEN_STORE.read_bytes()

    def test_golden_file_reloads_and_reserializes(self, tmp_path):
        events = load_all(GOLDEN_STORE)
        store = EventStore(tmp_path / "copy.jsonl")
        store.rewrite(events)
        assert (tmp_path / "copy.jsonl").read_bytes() == GOLDEN_STORE.read_bytes()


class TestCrashRecovery:
    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.append(simple_event())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        with pytest.raises(CorruptStoreError) as err:
            load_all(path)
        assert err.value.line_number == 2

    def test_partial_trailing_line_tolerated(self, tmp_path, caplog):
        path = tmp_path / "events.jsonl"
        EventStore(path).append(simple_event())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 2, "date": "2015-')  # interrupted append
        loaded = load_all(path)
        assert len(loaded) == 1

    def test_open_is_read_only(self, tmp_path, caplog):
        path = tmp_path / "events.jsonl"
        EventStore(path).append(simple_event())
        with open(path, "ab") as handle:
            handle.write(b'{"id": 2, "da')
        before = path.read_bytes()
        with caplog.at_level(logging.WARNING, logger="ctipipe.store"):
            assert len(EventStore(path)) == 1
            assert len(load_all(path)) == 1
        assert path.read_bytes() == before
        assert len(caplog.records) == 2  # one per open
        missing = tmp_path / "new" / "events.jsonl"
        assert len(EventStore(missing)) == 0
        assert not missing.parent.exists()

    def test_commits_create_the_directory(self, tmp_path):
        appended = EventStore(tmp_path / "a" / "events.jsonl").append(simple_event())
        extended = EventStore(tmp_path / "b" / "events.jsonl").extend([simple_event()])
        assert load_all(tmp_path / "a" / "events.jsonl") == [appended]
        assert load_all(tmp_path / "b" / "events.jsonl") == extended

    def test_append_after_partial_line_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventStore(path).append(simple_event())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 2, "da')
        store = EventStore(path)
        appended = store.append(simple_event("next.pdf"))
        assert appended.id == 2
        assert [e.id for e in load_all(path)] == [1, 2]

    def test_unterminated_line_is_uncommitted_even_if_parseable(self, tmp_path):
        # a torn write can stop exactly at the closing brace; without its
        # newline the record does not count, or the next append would glue
        # two documents onto one line
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        first = store.append(simple_event())
        second_line = json.dumps(event_to_document(simple_event("torn.pdf"))).encode()
        with open(path, "ab") as handle:
            handle.write(second_line)  # no newline
        assert load_all(path) == [first]
        reopened = EventStore(path)
        appended = reopened.append(simple_event("next.pdf"))
        assert [e.info for e in load_all(path)] == ["a_report.pdf", "next.pdf"]
        assert appended.id == 2


class TestRewrite:
    def test_rewrite_preserves_ids(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        events = [store.append(simple_event(f"r{i}.pdf")) for i in range(3)]
        events[1].attributes = []
        store.rewrite(events)
        assert [e.id for e in load_all(path)] == [1, 2, 3]
        assert load_all(path)[1].attributes == []

    def test_append_after_rewrite_continues_ids(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        for i in range(3):
            store.append(simple_event(f"r{i}.pdf"))
        store.rewrite(store.events()[:2])
        appended = store.append(simple_event("new.pdf"))
        assert appended.id == 3

    def test_extend_commits_batch_with_continuing_ids(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        first = store.append(simple_event("r0.pdf"))
        batch = store.extend([simple_event("r1.pdf"), simple_event("r2.pdf")])
        assert [e.id for e in batch] == [2, 3]
        assert [a.id for e in batch for a in e.attributes] == [2, 3]
        assert load_all(path) == [first, *batch] == store.events()


def failing_fsync(descriptor):
    raise OSError("disk full")


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl.enrichment.json"
        path.write_text("old\n")
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, ["new\n"])
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_raising_chunks_keep_old_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_bytes(b"old\xc3\xa9\n")

        def chunks():
            for index in range(3):
                yield f"chunk {index}\n" * 4096  # more than one buffer reaches the temp file
            raise ValueError("encoder failed")

        with pytest.raises(ValueError, match="encoder failed"):
            atomic_write(path, chunks())
        assert path.read_bytes() == b"old\xc3\xa9\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_new_file_gets_the_umask_mode(self, tmp_path):
        previous = os.umask(0o027)
        try:
            atomic_write(tmp_path / "graph.json", ["{}\n"])
            (tmp_path / "opened.json").write_text("{}\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "graph.json").stat().st_mode) == 0o640
        assert (tmp_path / "graph.json").stat().st_mode == (tmp_path / "opened.json").stat().st_mode

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("old\n")
        path.chmod(0o604)
        atomic_write(path, ["new\n"])
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o604

    def test_never_touches_the_umask(self, tmp_path, monkeypatch):
        def umask(mask):  # another thread's new file would get the mode it sets
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        path = tmp_path / "graph.json"
        atomic_write(path, ["{}\n"])
        atomic_write(path, ["[]\n"])
        assert path.read_text() == "[]\n"

    def test_failed_extend_keeps_store(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.append(simple_event())
        before = path.read_bytes()
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            store.extend([simple_event("r1.pdf"), simple_event("r2.pdf")])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        monkeypatch.undo()
        assert store.events() == load_all(path)
        assert store.append(simple_event("r3.pdf")).id == 2

    def test_rebuild_restarts_ids_in_one_commit(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.extend([simple_event("r0.pdf"), simple_event("r1.pdf")])
        before = path.read_bytes()
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            store.rebuild([simple_event("new.pdf")])
        assert path.read_bytes() == before
        assert len(store) == 2
        monkeypatch.undo()
        fsyncs = []
        monkeypatch.setattr(os, "fsync", lambda descriptor: fsyncs.append(descriptor))
        rebuilt = store.rebuild([simple_event("new0.pdf"), simple_event("new1.pdf")])
        assert len(fsyncs) == 1
        assert [e.id for e in rebuilt] == [1, 2]
        assert [a.id for e in rebuilt for a in e.attributes] == [1, 2]
        assert load_all(path) == rebuilt == store.events()


class TestInPlaceAppend:
    def test_append_writes_one_line_with_one_fsync(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.extend([simple_event("r0.pdf"), simple_event("r1.pdf")])
        before = path.read_bytes()
        inode = path.stat().st_ino
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda descriptor: fsyncs.append(real_fsync(descriptor)))
        appended = store.append(simple_event("r2.pdf"))
        assert len(fsyncs) == 1
        assert path.stat().st_ino == inode  # written in place, not replaced
        line = json.dumps(event_to_document(appended)) + "\n"
        assert path.read_bytes() == before + line.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("fail_at", ["write", "fsync"])
    def test_failed_append_truncates_back(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.append(simple_event("r0.pdf"))
        before = path.read_bytes()
        real_write = os.write

        def torn_write(descriptor, data):
            real_write(descriptor, bytes(data[: len(data) // 2]))
            raise OSError("disk full")

        monkeypatch.setattr(os, "write" if fail_at == "write" else "fsync",
                            torn_write if fail_at == "write" else failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            store.append(simple_event("r1.pdf"))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert len(store) == 1
        assert store.append(simple_event("r2.pdf")).id == 2
        assert load_all(path) == store.events()
