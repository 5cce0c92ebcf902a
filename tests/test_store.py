import datetime as dt
import json
import logging
import os
import random
import stat

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ctipipe.store as store_module
from ctipipe.enrichment import build_malware_event, fetch_analysis
from ctipipe.events import (
    Attribute,
    Event,
    REPORT,
    build_report_event,
    document_to_event,
    event_to_document,
)
from ctipipe.extraction import Indicator, IndicatorKind
from ctipipe.store import CorruptStoreError, EventStore, _read_store, atomic_write, index_path, load_all

from conftest import CLEAVER_DATE, CLEAVER_MD5, CLEAVER_TITLE, DATA_DIR, random_event

GOLDEN_STORE = DATA_DIR / "golden_store.jsonl"


def simple_event(info="a_report.pdf"):
    return Event(0, dt.date(2015, 6, 1), info, REPORT, [Attribute("Other", "", "v", "other")])


class TestAppendLoad:
    def test_two_event_round_trip(self, tmp_path):
        store = EventStore(tmp_path / "events.jsonl")
        first, second = store.extend([simple_event("one.pdf"), simple_event("two.pdf")])
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
        first, second = store.extend([event, event])
        assert [a.id for a in first.attributes] == [1, 2]
        assert [a.id for a in second.attributes] == [3, 4]

    def test_ids_survive_restart(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventStore(path).extend([simple_event()])
        reopened = EventStore(path)
        [second] = reopened.extend([simple_event("later.pdf")])
        assert second.id == 2
        assert second.attributes[0].id == 2
        ids = [e.id for e in load_all(path)]
        assert ids == sorted(set(ids)) == [1, 2]

    def test_randomized_round_trip(self, tmp_path):
        rng = random.Random(7)
        store = EventStore(tmp_path / "events.jsonl")
        stored = store.extend([random_event(rng) for _ in range(120)])
        assert load_all(tmp_path / "events.jsonl") == stored


class TestGoldenFile:
    def test_reference_pair_is_byte_identical(self, tmp_path, golden_provider):
        indicators = [
            Indicator(IndicatorKind.FILENAME, "zhcat.exe", "r", 0),
            Indicator(IndicatorKind.CVE, "CVE-2010-0232", "r", 0),
            Indicator(IndicatorKind.IP, "64.120.128.154", "r", 0),
        ]
        record = fetch_analysis(CLEAVER_MD5, golden_provider)
        EventStore(tmp_path / "events.jsonl").extend([
            build_report_event(CLEAVER_TITLE, CLEAVER_DATE, indicators),
            build_malware_event(CLEAVER_MD5, record, CLEAVER_TITLE, CLEAVER_DATE),
        ])
        assert (tmp_path / "events.jsonl").read_bytes() == GOLDEN_STORE.read_bytes()

    def test_golden_file_reloads_and_reserializes(self, tmp_path):
        events = load_all(GOLDEN_STORE)
        store = EventStore(tmp_path / "copy.jsonl")
        store.rewrite(events)
        assert (tmp_path / "copy.jsonl").read_bytes() == GOLDEN_STORE.read_bytes()


class TestCrashRecovery:
    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventStore(path).extend([simple_event()])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
        with pytest.raises(CorruptStoreError) as err:
            load_all(path)
        assert err.value.line_number == 2

    def test_repeated_event_id_reports_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"\n".join([_LINES[0], _LINES[0], _LINES[1]]) + b"\n")
        with pytest.raises(CorruptStoreError, match=":2: duplicate event id 1") as err:
            load_all(path)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("position,repeated", [(-1, 7), (0, 3)], ids=["same-event", "earlier-event"])
    def test_repeated_attribute_id_reports_line_number(self, tmp_path, position, repeated):
        # Line 1 of the golden store holds attribute ids 1-3, line 2 ids 4-8.
        first, second = GOLDEN_STORE.read_bytes().splitlines(keepends=True)
        document = json.loads(second)
        document["Attribute"][position]["id"] = repeated
        path = tmp_path / "events.jsonl"
        path.write_bytes(first + json.dumps(document).encode() + b"\n")
        with pytest.raises(CorruptStoreError, match=f":2: duplicate attribute id {repeated}$") as err:
            load_all(path)
        assert err.value.line_number == 2

    def test_partial_trailing_line_tolerated(self, tmp_path, caplog):
        path = tmp_path / "events.jsonl"
        EventStore(path).extend([simple_event()])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 2, "date": "2015-')  # interrupted write
        loaded = load_all(path)
        assert len(loaded) == 1

    def test_open_is_read_only(self, tmp_path, caplog):
        path = tmp_path / "events.jsonl"
        EventStore(path).extend([simple_event()])
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
        rebuilt = EventStore(tmp_path / "c" / "events.jsonl").rebuild([simple_event()])
        assert load_all(tmp_path / "a" / "events.jsonl") == [appended]
        assert load_all(tmp_path / "b" / "events.jsonl") == extended
        assert load_all(tmp_path / "c" / "events.jsonl") == rebuilt

    def test_append_after_partial_line_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventStore(path).extend([simple_event()])
        committed = path.read_bytes()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 2, "da')
        store = EventStore(path)
        [appended] = store.extend([simple_event("next.pdf")])
        assert appended.id == 2
        line = json.dumps(event_to_document(appended)) + "\n"
        assert path.read_bytes() == committed + line.encode("utf-8")  # the torn tail is gone
        assert [e.id for e in load_all(path)] == [1, 2]

    def test_unterminated_line_is_uncommitted_even_if_parseable(self, tmp_path):
        # a torn write can stop exactly at the closing brace; without its
        # newline the record does not count, or the next commit would keep
        # an event that was never committed
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        [first] = store.extend([simple_event()])
        second_line = json.dumps(event_to_document(simple_event("torn.pdf"))).encode()
        with open(path, "ab") as handle:
            handle.write(second_line)  # no newline
        assert load_all(path) == [first]
        reopened = EventStore(path)
        [appended] = reopened.extend([simple_event("next.pdf")])
        assert [e.info for e in load_all(path)] == ["a_report.pdf", "next.pdf"]
        assert appended.id == 2


def offset_read_store(path):
    """The store reader before it split the file at newlines: a find/offset
    loop with a hand-kept line counter, refusing a repeated event id or
    attribute id. The oracle for ``_read_store``."""
    blob = path.read_bytes()
    events = []
    line_number = 0
    offset = 0
    while True:
        newline = blob.find(b"\n", offset)
        if newline == -1:
            break
        line_bytes = blob[offset:newline]
        line_number += 1
        try:
            line = line_bytes.decode("utf-8")
            if line.strip():
                event = document_to_event(json.loads(line))
                if event.id in [earlier.id for earlier in events]:
                    raise ValueError(f"duplicate event id {event.id}")
                for position, attribute in enumerate(event.attributes):
                    earlier = [a.id for e in events for a in e.attributes] + [a.id for a in event.attributes[:position]]
                    if attribute.id in earlier:
                        raise ValueError(f"duplicate attribute id {attribute.id}")
                events.append(event)
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            raise CorruptStoreError(path, line_number, str(exc)) from exc
        offset = newline + 1
    if blob[offset:].strip():
        logging.getLogger("ctipipe.store").warning("%s: ignoring %d uncommitted trailing bytes", path, len(blob) - offset)
    return events


def _line(event_id, attribute_id):
    event = simple_event(f"r{event_id}.pdf")
    event = event._replace(id=event_id, attributes=[event.attributes[0]._replace(id=attribute_id)])
    return json.dumps(event_to_document(event)).encode()


# Three lines with distinct ids, and one that repeats the first one's attribute id.
_LINES = [_line(i, i) for i in (1, 2, 3)]
_PIECES = st.sampled_from([*_LINES, _line(4, 1), b"", b" ", b"\t \r", b"{not json}", b"\xff\xfe", b'{"id": 4, "da', b"[]"])


class TestReadStoreMatchesOffsetLoop:
    @staticmethod
    def outcome(read, path):
        """The events or the CorruptStoreError's line and message, and every
        warning the read logged."""
        warnings = []
        handler = logging.Handler()
        handler.emit = lambda record: warnings.append(record.getMessage())
        logging.getLogger("ctipipe.store").addHandler(handler)
        try:
            return read(path), warnings
        except CorruptStoreError as exc:
            return (exc.line_number, str(exc)), warnings
        finally:
            logging.getLogger("ctipipe.store").removeHandler(handler)

    @given(
        lines=st.lists(st.tuples(_PIECES | st.binary(max_size=6), st.sampled_from([b"\n", b"\r\n"])), max_size=8),
        tail=_PIECES | st.binary(max_size=6),
    )
    @example(lines=[(b"", b"\n"), (b" \t", b"\n"), (_LINES[0], b"\n")], tail=b"")  # blank and whitespace lines
    @example(lines=[(_LINES[0], b"\r\n"), (_LINES[1], b"\r\n")], tail=b"")  # \r\n endings
    @example(lines=[(_LINES[0], b"\n")], tail=_LINES[1])  # a torn tail that parses
    @example(lines=[(_LINES[0], b"\n")], tail=b" \t\r ")  # a tail of only whitespace
    @example(lines=[(_LINES[0], b"\n"), (b"\xe9", b"\n")], tail=b"")  # invalid UTF-8
    @example(lines=[(b"", b"\n"), (b" ", b"\r\n"), (b"{not json}", b"\n")], tail=b"")  # corrupt after blanks
    @example(lines=[(_LINES[0], b"\n"), (_line(4, 1), b"\n")], tail=b"")  # a repeated attribute id
    def test_same_events_errors_and_warnings(self, tmp_path_factory, lines, tail):
        path = tmp_path_factory.mktemp("store") / "events.jsonl"
        path.write_bytes(b"".join(line + ending for line, ending in lines) + tail)
        assert self.outcome(_read_store, path) == self.outcome(offset_read_store, path)


class TestRewrite:
    def test_rewrite_preserves_ids(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        events = store.extend([simple_event(f"r{i}.pdf") for i in range(3)])
        events[1] = events[1]._replace(attributes=[])
        store.rewrite(events)
        assert [e.id for e in load_all(path)] == [1, 2, 3]
        assert load_all(path)[1].attributes == []

    def test_append_after_rewrite_continues_ids(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.extend([simple_event(f"r{i}.pdf") for i in range(3)])
        store.rewrite(store.events()[:2])
        [appended] = store.extend([simple_event("new.pdf")])
        assert appended.id == 3
        assert [e.id for e in load_all(path)] == [1, 2, 3]

    def test_extend_commits_batch_with_continuing_ids(self, tmp_path):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        [first] = store.extend([simple_event("r0.pdf")])
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
        store.extend([simple_event()])
        before = path.read_bytes()
        monkeypatch.setattr(os, "fsync", failing_fsync)
        index_before = index_path(path).read_bytes()
        with pytest.raises(OSError, match="disk full"):
            store.extend([simple_event("r1.pdf"), simple_event("r2.pdf")])
        assert path.read_bytes() == before
        assert index_path(path).read_bytes() == index_before
        # A commit is the store and its index; no temp file is left.
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, index_path(path).name]
        monkeypatch.undo()
        assert store.events() == load_all(path)
        assert store.extend([simple_event("r3.pdf")])[0].id == 2

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
        assert len(fsyncs) == 2  # one write of the store, then one of its index
        assert [e.id for e in rebuilt] == [1, 2]
        assert [a.id for e in rebuilt for a in e.attributes] == [1, 2]
        assert load_all(path) == rebuilt == store.events()


class TestAppend:
    def test_append_commits_through_rewrite(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        store = EventStore(path)
        store.extend([simple_event("r0.pdf")])
        before = path.read_bytes()
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            store.append(simple_event("r1.pdf"))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, index_path(path).name]
        monkeypatch.undo()
        writes = []
        monkeypatch.setattr(store_module, "atomic_write",
                            lambda target, chunks: writes.append(target.name) or atomic_write(target, chunks))
        appended = store.append(simple_event("r2.pdf"))
        assert appended.id == 2 and writes == [path.name, index_path(path).name]
        line = json.dumps(event_to_document(appended)) + "\n"
        assert path.read_bytes() == before + line.encode("utf-8")
        assert load_all(path) == store.events()
