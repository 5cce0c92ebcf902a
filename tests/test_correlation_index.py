"""The correlation index each store commit writes beside the store: the
graph built from it is the graph built from a parse of the store, and
``correlate`` reads it only while it matches the store and its own body;
otherwise it parses the store, with the same output."""

import datetime as dt
import itertools
import json
import logging
import shutil
from hashlib import blake2b

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctipipe.store as store_module
import test_correlation
from ctipipe.cli import run_command
from ctipipe.correlation import CorrelationGraph, GraphOptions, build_graph, find_path
from ctipipe.events import (
    MALWARE,
    NAME_LIKE_TYPES,
    REPORT,
    Attribute,
    Event,
    event_to_document,
    is_back_link,
    value_holders,
)
from ctipipe.store import (
    INDEX_FORMAT,
    CorruptStoreError,
    EventStore,
    StoreError,
    index_path,
    load_all,
    read_correlation_index,
)

from conftest import GOLDEN_DIR, write_config
from test_events import _holder_attributes

# Events whose "comment" values are back-links (category "Other") or plain
# values, so that a value can be held both ways and counting back-links
# moves it in the holder order. A store with a plain "comment" gets no index.
_mixed_comment_events = st.lists(_holder_attributes, max_size=6).map(
    lambda drafts: [Event(0, dt.date(2020, 1, 1), f"e{i}", REPORT, attributes) for i, attributes in enumerate(drafts)]
)
# "a" is a back-link of event 1 and a plain value of events 2 and 3: it
# comes before "b" in the holders with back-links counted, after it without.
_MOVED = [
    Event(0, dt.date(2020, 1, 1), "e1", MALWARE, [Attribute("Other", "", "a", "comment"),
                                                   Attribute("Other", "", "b", "other")]),
    Event(0, dt.date(2020, 1, 1), "e2", REPORT, [Attribute("Artifacts dropped", "", "a", "comment"),
                                                  Attribute("Other", "", "b", "other")]),
    Event(0, dt.date(2020, 1, 1), "e3", REPORT, [Attribute("Artifacts dropped", "", "a", "comment")]),
]


@given(st.one_of(test_correlation._graph_events, _mixed_comment_events), test_correlation.TestLinkSearch.options)
@example(_MOVED, GraphOptions())
@example(_MOVED, GraphOptions(cross_set_only=True))
@settings(max_examples=300)
def test_index_graph_is_the_parsed_graph(tmp_path_factory, events, options):
    path = tmp_path_factory.mktemp("store") / "events.jsonl"
    EventStore(path).rebuild(events)
    index = read_correlation_index(path, not options.cross_set_only)
    try:
        parsed = load_all(path)
    except CorruptStoreError:  # an event with two back-links
        parsed = []
    # No index for a store a read refuses or finds empty, or that holds a
    # "comment" that is not a back-link.
    no_index = not parsed or any(a.type == "comment" and not is_back_link(a) for e in parsed for a in e.attributes)
    assert (index is None) == no_index
    if no_index:
        return
    graph = CorrelationGraph(*index, options)
    expected = build_graph(parsed, options)
    assert list(graph.nodes.items()) == list(expected.nodes.items())
    assert graph.links == expected.links
    assert list(graph.edges()) == list(expected.edges())
    for start, goal in itertools.product(expected.nodes, repeat=2):
        assert find_path(graph, start, goal) == find_path(expected, start, goal), (start, goal)


def golden_config(tmp_path):
    return write_config(tmp_path, GOLDEN_DIR / "reports", provider=GOLDEN_DIR / "provider",
                        denylist=GOLDEN_DIR / "denylist.txt", retry_backoff=0)


@pytest.fixture
def config(tmp_path):
    """The golden corpus after ingest, enrich and filter."""
    path = golden_config(tmp_path)
    for command in ("ingest", "enrich", "filter"):
        assert run_command(["-c", str(path), command]) == 0
    return path


def correlate_outputs(config, capsys):
    """Exit code and stdout of each correlate mode, and the bytes of the
    graph files written."""
    out = config.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    last = "6"  # the golden corpus makes 2 report and 4 malware events
    modes = [
        ["--path", "1", last],
        ["--fuzzy", "--path", "1", last],
        ["--cross-set-only", "--path", "1", last],
        ["--cross-set-only", "--fuzzy", "--path", last, "1"],
        ["--path", "1", "99"],
        ["--json", str(out / "graph.json"), "--dot", str(out / "graph.dot")],
        ["--cross-set-only", "--fuzzy", "--json", str(out / "graph.json")],
    ]
    capsys.readouterr()
    outputs = []
    for mode in modes:
        code = run_command(["-c", str(config), "correlate", *mode])
        captured = capsys.readouterr()
        files = sorted((p.name, p.read_bytes()) for p in out.iterdir())
        outputs.append((mode, code, captured.out, captured.err, files))
    return outputs


def parsed_outputs(config, capsys):
    """The outputs of correlate without an index, which parses the store."""
    index = index_path(config.parent / "events.jsonl")
    saved = index.read_bytes() if index.exists() else None
    index.unlink(missing_ok=True)
    try:
        return correlate_outputs(config, capsys)
    finally:
        if saved is not None:
            index.write_bytes(saved)


def test_commits_write_the_index(tmp_path):
    path = golden_config(tmp_path)
    store = tmp_path / "events.jsonl"
    for command in ("ingest", "enrich", "filter"):
        assert run_command(["-c", str(path), command]) == 0
        header = index_path(store).read_bytes().split(b"\n", 1)[0].split()
        assert header[:2] == [INDEX_FORMAT.encode(), str(store.stat().st_size).encode()], command
        assert read_correlation_index(store, True) is not None, command
        assert read_correlation_index(store, False) is not None, command


def test_a_commit_scans_the_holders_once(config, monkeypatch):
    store = config.parent / "events.jsonl"
    calls = []
    value_holders = store_module.value_holders

    def counting_value_holders(*args):
        calls.append(args)
        return value_holders(*args)

    monkeypatch.setattr(store_module, "value_holders", counting_value_holders)
    EventStore(store).rewrite(EventStore(store).events())
    assert len(calls) == 1
    assert read_correlation_index(store, False) is not None


def test_correlate_reads_the_index_and_not_the_store(config, capsys, monkeypatch):
    expected = parsed_outputs(config, capsys)

    def no_parse(path):
        raise AssertionError("correlate parsed the store")

    monkeypatch.setattr(store_module, "_read_store", no_parse)
    assert correlate_outputs(config, capsys) == expected


def _stale(index, store):
    # Same length, one character of an event's info changed: only the
    # digest tells the store from the one the index was written for.
    data = store.read_bytes()
    at = data.index(b'"info": "') + len(b'"info": "')
    store.write_bytes(data[:at] + (b"Y" if data[at:at + 1] != b"Y" else b"Z") + data[at + 1:])


def _truncated(index, store):
    index.write_bytes(index.read_bytes()[: index.stat().st_size // 2])


def _foreign_tag(index, store):
    index.write_bytes(index.read_bytes().replace(INDEX_FORMAT.encode(), b"ctipipe-correlation-index/0", 1))


def _body_corrupted(index, store):
    header, body = index.read_bytes().split(b"\n", 1)
    at = body.index(b"[1,")  # the first node's id
    index.write_bytes(header + b"\n" + body[:at + 1] + b"7" + body[at + 2:])


def _header_only(index, store):
    index.write_bytes(index.read_bytes().split(b"\n", 1)[0] + b"\n")


def _previous_layout(index, store):
    # The body under the tag before this one, with a header that matches:
    # "holders" without the "comment" rows, which are kept apart with their
    # places, once per way of counting back-links. Read as the current
    # layout, the graph would lose its back-link links.
    document = json.loads(index.read_bytes().split(b"\n", 1)[1])
    rows, counted = [], []
    for data_type, value, ids in document["holders"]:
        if data_type == "comment":
            counted.append([len(rows), value, ids])
        else:
            rows.append([data_type, value, ids])
    assert counted  # the golden store's back-links
    body = json.dumps({"nodes": document["nodes"], "holders": rows, "comment_holders": [[], counted]},
                      separators=(",", ":")).encode()
    data = store.read_bytes()
    header = f"ctipipe-correlation-index/1 {len(data)} {blake2b(data).hexdigest()} {blake2b(body).hexdigest()}\n"
    index.write_bytes(header.encode() + body)


def _other_layout(index, store):
    # A header that matches the store and the body, over a body this
    # reader cannot read.
    header = index.read_bytes().split(b"\n", 1)[0].split()
    body = b'{"nodes": {}}'
    header[-1] = blake2b(body).hexdigest().encode()
    index.write_bytes(b" ".join(header) + b"\n" + body)


@pytest.mark.parametrize(
    "damage", [_stale, _truncated, _foreign_tag, _previous_layout, _body_corrupted, _header_only, _other_layout]
)
def test_unmatched_index_falls_back_to_the_parse(config, capsys, damage):
    store = config.parent / "events.jsonl"
    index = index_path(store)
    damage(index, store)
    stored, indexed = store.read_bytes(), index.read_bytes()
    assert read_correlation_index(store, True) is None
    assert read_correlation_index(store, False) is None
    assert correlate_outputs(config, capsys) == parsed_outputs(config, capsys)
    # Reading never writes: the index is not repaired.
    assert (store.read_bytes(), index.read_bytes()) == (stored, indexed)


def test_empty_store_falls_back_to_the_parse(config, capsys):
    store = config.parent / "events.jsonl"
    store.write_bytes(b"")
    assert correlate_outputs(config, capsys) == parsed_outputs(config, capsys)
    assert all(code == 2 and "is empty" in err for _, code, _, err, _ in correlate_outputs(config, capsys))


def test_empty_commit_writes_no_index(tmp_path):
    store = tmp_path / "events.jsonl"
    EventStore(store).rewrite([])
    assert store.read_bytes() == b""
    assert not index_path(store).exists()


def test_torn_tail_falls_back_to_the_parse_with_its_warning(config, capsys, caplog, monkeypatch):
    store = config.parent / "events.jsonl"
    with open(store, "ab") as handle:
        handle.write(b'{"id": 99, "da')
    hashed = []

    def recording_blake2b(*data):
        hashed.extend(data)
        return blake2b(*data)

    # The header's length word differs from the store's size, so neither the
    # store nor the body is hashed.
    with monkeypatch.context() as patch:
        patch.setattr(store_module, "blake2b", recording_blake2b)
        assert read_correlation_index(store, True) is None
        assert read_correlation_index(store, False) is None
    assert hashed == []
    with caplog.at_level(logging.WARNING, logger="ctipipe.store"):
        outputs = correlate_outputs(config, capsys)
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == len(outputs)
    assert all("uncommitted trailing bytes" in message for message in warnings)
    assert outputs == parsed_outputs(config, capsys)


def test_rewrite_keeping_repeated_ids_writes_no_index(config, capsys):
    store = config.parent / "events.jsonl"
    events = EventStore(store).events()
    first, second, *rest = events
    repeated = second._replace(attributes=[a._replace(id=first.attributes[0].id) for a in second.attributes])
    EventStore(store).rewrite([first, repeated, *rest])
    assert read_correlation_index(store, True) is None
    for _, code, out, err, _ in correlate_outputs(config, capsys):
        assert code == 2 and out == ""
        assert f"{store}:2: duplicate attribute id {first.attributes[0].id}" in err


def test_plain_comment_writes_no_index(config, capsys):
    # Events 7 to 9 hold "a" as a back-link and as a plain "comment" value.
    store = config.parent / "events.jsonl"
    index_path(store).unlink()
    EventStore(store).extend(_MOVED)
    assert not index_path(store).exists()
    assert read_correlation_index(store, True) is None
    assert read_correlation_index(store, False) is None
    assert correlate_outputs(config, capsys) == parsed_outputs(config, capsys)


def test_failed_index_write_keeps_the_commit(config, capsys, monkeypatch, caplog):
    store = config.parent / "events.jsonl"
    index = index_path(store)
    indexed = index.read_bytes()
    events = EventStore(store).events()
    write = store_module.atomic_write

    def failing_index_write(path, chunks):
        if path == index:
            raise OSError("disk full")
        write(path, chunks)

    monkeypatch.setattr(store_module, "atomic_write", failing_index_write)
    with caplog.at_level(logging.WARNING, logger="ctipipe.store"):
        EventStore(store).rewrite(events[:-1])
    monkeypatch.undo()
    assert "correlation index not written: disk full" in caplog.text
    assert load_all(store) == events[:-1]
    assert index.read_bytes() == indexed
    assert read_correlation_index(store, True) is None
    assert correlate_outputs(config, capsys) == parsed_outputs(config, capsys)


def read_back_commit(events):
    """The store and index bytes of a commit of ``events`` as the commit
    made them before it checked the events themselves: each line is
    ``json.dumps`` of :func:`event_to_document`, and the index nodes come
    from reading the lines back with the store's reader. The index is None
    where that commit wrote none: the reader refused a line or found none,
    or an event holds a "comment" that is not its back-link."""
    read = store_module._document_reader()
    lines, nodes = [], []
    for event in events:
        line = json.dumps(event_to_document(event)) + "\n"
        lines.append(line)
        if nodes is not None:
            try:
                stored = read(json.loads(line))
            except ValueError:
                nodes = None
                continue
            if any(a.type == "comment" and not is_back_link(a) for a in stored.attributes):
                nodes = None
            else:
                nodes.append([stored.id, stored.kind, stored.info])
    data = "".join(lines).encode("utf-8")
    if not nodes:
        return data, None
    holders = [[data_type, value, ids]
               for (data_type, value), ids in value_holders(((e.id, (e,)) for e in events), True).items()
               if len(ids) > 1 or data_type in NAME_LIKE_TYPES]
    body = json.dumps({"nodes": nodes, "holders": holders}, separators=(",", ":")).encode("utf-8")
    header = f"{INDEX_FORMAT} {len(data)} {blake2b(data).hexdigest()} {blake2b(body).hexdigest()}\n"
    return data, header.encode("utf-8") + body


_ATTRIBUTE_FIELD_TYPES = {"category": str, "comment": str, "value": str, "type": str, "id": int}


def wrongly_typed(event):
    """Whether the store's reader refuses the event's line for a field's
    type, judged on the JSON the line holds."""
    document = json.loads(json.dumps(event_to_document(event)))
    return (type(document["id"]) is not int or type(document["info"]) is not str
            or any(type(item[key]) is not kind for item in document["Attribute"]
                   for key, kind in _ATTRIBUTE_FIELD_TYPES.items()))


class Text(str):
    """A str subclass: its JSON is a string, read back as a str."""


class Number(int):
    """An int subclass: its JSON is an integer, read back as an int."""

    def __repr__(self):
        return f"Number({int(self)})"


# Mostly well-typed fields, so that most stores are written. Few ids, so
# that they repeat; "comment" under "Other" is a back-link, under another
# category a plain value; a datetime's isoformat is not YYYY-MM-DD.
_commit_ids = st.sampled_from([1, 1, 2, 3, 3, 4, Number(2), Number(5), True, 1.0])
_commit_texts = st.sampled_from(["a", "b", "r.pdf", "é\ud800", Text("a"), Text("r.pdf"), None])
_commit_events = st.lists(st.builds(
    Event,
    _commit_ids,
    st.sampled_from([dt.date(2020, 1, 1), dt.date(1, 1, 1), dt.datetime(2020, 1, 1, 12, 0)]),
    st.sampled_from(["r.pdf", "e", Text("e"), 7]),
    st.sampled_from([REPORT, MALWARE]),
    st.lists(st.builds(
        Attribute,
        st.sampled_from(["Other", "Other", "Artifacts dropped", Text("Other")]),
        st.sampled_from(["", "", Text("")]),
        _commit_texts,
        st.sampled_from(["comment", "other", "other", "filename", "hostname", Text("comment")]),
        _commit_ids,
    ), max_size=4),
), max_size=5)


@given(_commit_events)
@example([Event(1, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", "r.pdf", "comment")]),
          Event(2, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", "r.pdf", "comment", 2),
                                                     Attribute("Other", "", "r.pdf", "comment", 3)])])
@example([Event(1, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", "a", "other", 1)]),
          Event(1, dt.date(2020, 1, 1), "r.pdf", REPORT, [Attribute("Other", "", "a", "other", 2)])])
@example([Event(Number(1), dt.date(2020, 1, 1), Text("e"), MALWARE,
                [Attribute(Text("Other"), Text(""), Text("a"), Text("comment"), Number(1)),
                 Attribute("Artifacts dropped", "", "a", "hostname", 2)])])
@settings(max_examples=400)
def test_commit_matches_the_read_back_writer(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("store") / "events.jsonl"
    if any(map(wrongly_typed, events)):
        with pytest.raises(StoreError, match=r" is \w+, not (int|str)$"):
            EventStore(path).rewrite(events)
        assert list(path.parent.iterdir()) == []
        return
    data, index = read_back_commit(events)
    EventStore(path).rewrite(events)
    assert path.read_bytes() == data
    assert (index_path(path).read_bytes() if index_path(path).exists() else None) == index


@pytest.mark.parametrize("event", [
    Event(True, dt.date(2020, 1, 1), "e", REPORT, []),
    Event(8.0, dt.date(2020, 1, 1), "e", REPORT, []),
    Event(8, dt.date(2020, 1, 1), 7, REPORT, []),
    Event(8, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", "a", "other", False)]),
    Event(8, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", "a", "other", 99.0)]),
    Event(8, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", None, "other", 99)]),
    Event(8, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", 0, "a", "other", 99)]),
], ids=["bool-id", "float-id", "int-info", "bool-attribute-id", "float-attribute-id", "null-value", "int-comment"])
def test_wrongly_typed_field_is_refused_before_anything_is_written(config, event):
    # The JSON of each of these events is a line the reader refuses as
    # malformed, so a commit that wrote it would leave a store no command
    # reads.
    store = config.parent / "events.jsonl"
    before = {p.name: p.read_bytes() for p in config.parent.iterdir() if p.is_file()}
    events = EventStore(store).events()
    with pytest.raises(StoreError, match=r"^event \S+: .* is (bool|float|int|NoneType), not (int|str)$"):
        EventStore(store).rewrite([*events, event])
    assert {p.name: p.read_bytes() for p in config.parent.iterdir() if p.is_file()} == before
    assert load_all(store) == events
