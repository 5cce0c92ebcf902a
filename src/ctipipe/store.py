"""Event store: one JSON document per line, UTF-8.

New event and attribute ids continue from the largest ids in the store, so
ids stay unique across process restarts. Opening a store only reads it; a
store has a single writer, whose commits start from the state read at open.
Every commit replaces the whole file through a temp file, so a failed
commit leaves the store as it was; an event with a field that a read would
refuse for its type fails the commit before anything is written. The bytes after the last newline (a torn
write) are not committed: reading ignores them and the next commit removes
them, so a committed event is stored whole or not at all.

Each commit then writes the store's correlation index,
``<store>.correlation.json``: the node table and the value holders, with
back-links counted, of the events a read would give, so that ``correlate``
can build its graph without parsing the store. Its first line is a header:
the format tag, the store's byte length, the ``blake2b`` digest of the store
and that of the rest of the index, the body. A reader uses the index only
while the header matches the store and the body, so an index that a failed
or torn commit left behind is ignored, never repaired. A store with a
"comment" attribute that is not a back-link gets no index: the reader drops
every "comment" row when back-links are not counted.
"""

from __future__ import annotations

import datetime as dt
import json
import os

# hashlib.blake2b itself: importing hashlib also starts its OpenSSL module,
# about 3 ms, which every command that imports the store would pay.
from _blake2 import blake2b
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

from .events import (
    _ATTRIBUTE_JSON_TYPES,
    MALWARE,
    NAME_LIKE_TYPES,
    REPORT,
    Attribute,
    Event,
    document_to_event,
    event_to_line,
    is_back_link,
    value_holders,
)


class StoreError(Exception):
    pass


class CorruptStoreError(StoreError):
    def __init__(self, path: Path, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {reason}")


def _document_reader() -> Callable[[dict], Event]:
    """A function making each of a store's documents, in order, into the
    event it stores: :func:`document_to_event`, then a ValueError if the
    event repeats an event id or an attribute id of the store."""
    event_ids: set[int] = set()
    attribute_ids: set[int] = set()

    def read(document: dict) -> Event:
        event = document_to_event(document)
        if event.id in event_ids:
            raise ValueError(f"duplicate event id {event.id}")
        event_ids.add(event.id)
        for attribute in event.attributes:
            if attribute.id in attribute_ids:
                raise ValueError(f"duplicate attribute id {attribute.id}")
            attribute_ids.add(attribute.id)
        return event

    return read


def _read_store(path: Path) -> list[Event]:
    """Parse the store file into its committed events.

    A line counts as committed only once its newline is on disk, so an
    unterminated tail (torn final write) is skipped with a warning even if it
    happens to parse. A terminated line that fails to parse, or repeats an
    event id or an attribute id, is corruption.
    """
    *lines, tail = path.read_bytes().split(b"\n")
    events: list[Event] = []
    read = _document_reader()
    for line_number, line_bytes in enumerate(lines, start=1):
        try:
            line = line_bytes.decode("utf-8")
            if line.strip():
                events.append(read(json.loads(line)))
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            raise CorruptStoreError(path, line_number, str(exc)) from exc
    if tail.strip():
        import logging  # loaded only to warn, so no command pays for it otherwise
        logging.getLogger(__name__).warning("%s: ignoring %d uncommitted trailing bytes", path, len(tail))
    return events


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with ``chunks`` via a fsynced temp file renamed over
    it; on any failure the old file stays and the temp file is removed. The
    file keeps its mode, or gets ``open()``'s (0o666 less the umask) if new."""
    temp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    descriptor = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            if path.exists():
                os.fchmod(handle.fileno(), path.stat().st_mode & 0o7777)
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# The first word of an index's header; a change of the body's layout changes it.
INDEX_FORMAT = "ctipipe-correlation-index/2"


def index_path(store_path: str | Path) -> Path:
    return Path(f"{store_path}.correlation.json")


class _CheckedLines:
    """A commit's store lines, made one event at a time, and what the index
    takes from them: the node ``[id, kind, info]`` of each event a read of
    them gives, or None once a read would refuse one or an event holds a
    "comment" that is not its back-link.

    The reader's rules are checked on the events themselves, not on the
    lines read back: the date is written YYYY-MM-DD, no two events and no
    two attributes share an id, and at most one attribute is a "comment",
    a back-link, which makes a malware event. A field the reader would
    refuse for its type raises :class:`StoreError` instead, so such a line
    is never written: an id must be an int and not a bool, a text field a
    str, as after a JSON round trip (an int subclass is written as an int).
    """

    def __init__(self):
        self.nodes: list[list] | None = []
        self._event_ids: set[int] = set()
        self._attribute_ids: set[int] = set()

    def line(self, event: Event) -> str:
        ids = list(map(_ID, event.attributes))
        if type(event.id) is not int or not set(map(type, ids)) <= {int}:
            event = _json_typed(event)
            ids = list(map(_ID, event.attributes))
        try:
            line = event_to_line(event)
        except TypeError:
            _json_typed(event)  # names the text field that is not a str
            raise
        if self.nodes is not None:
            kind = _stored_kind(event)
            before = len(self._attribute_ids)
            self._attribute_ids.update(ids)
            if (kind is None or event.id in self._event_ids or len(self._attribute_ids) != before + len(ids)
                    or not _readable_date(event.date)):
                self.nodes = None
            else:
                self._event_ids.add(event.id)
                self.nodes.append([event.id, kind, event.info])
        return line


_ID = attrgetter("id")
_TYPE = attrgetter("type")


def _json_typed(event: Event) -> Event:
    """``event`` with each id of an int subclass made an int, as a JSON
    round trip makes it. A field a read would refuse for its type, an id
    that is not an int (a bool included) or a text field that is not a
    str, raises :class:`StoreError`."""
    fields = [("'id'", event.id, int), ("'info'", event.info, str), ("'date'", event.date.isoformat(), str),
              *((f"attribute {a.id!r}: {name!r}", value, kind)
                for a in event.attributes for (name, kind), value in zip(_ATTRIBUTE_JSON_TYPES.items(), a))]
    for name, value, kind in fields:
        if type(value) is bool or not isinstance(value, kind):
            raise StoreError(f"event {event.id!r}: {name} is {type(value).__name__}, not {kind.__name__}")
    return event._replace(id=int(event.id), attributes=[a._replace(id=int(a.id)) for a in event.attributes])


def _stored_kind(event: Event) -> str | None:
    """The kind a read gives the event, from its back-links; None when it
    holds two or more "comment" attributes (two back-links, which a read
    refuses, or a plain "comment") or one that is not a back-link."""
    types = list(map(_TYPE, event.attributes))
    comments = types.count("comment")
    if not comments:
        return REPORT
    if comments == 1 and is_back_link(event.attributes[types.index("comment")]):
        return MALWARE
    return None


def _readable_date(date: dt.date) -> bool:
    """Whether a read takes the date's text back (see
    :func:`document_to_event`): ``date.isoformat()`` of a ``datetime``, for
    one, is not written YYYY-MM-DD."""
    if type(date) is dt.date:
        return True
    text = date.isoformat()
    try:
        dt.date.fromisoformat(text)
    except ValueError:
        return False
    return len(text) == 10 and text[7] == "-"


def _write_index(store_path: Path, data: bytes, nodes: list[list], events: list[Event]) -> None:
    """Write the index of the store ``data`` made of ``events``: their
    ``nodes``, and the rows of :func:`value_holders`, back-links counted,
    that the graph reads: each value held twice or name-like, as ``[type,
    value, ids]``."""
    holders = [[data_type, value, ids]
               for (data_type, value), ids in value_holders(((e.id, (e,)) for e in events), True).items()
               if len(ids) > 1 or data_type in NAME_LIKE_TYPES]
    body = json.dumps({"nodes": nodes, "holders": holders}, separators=(",", ":"))
    body_digest = blake2b(body.encode("utf-8")).hexdigest()
    header = f"{INDEX_FORMAT} {len(data)} {blake2b(data).hexdigest()} {body_digest}\n"
    try:
        atomic_write(index_path(store_path), [header, body])
    except OSError as exc:
        # The store is committed; correlate parses it while its index is stale.
        import logging  # loaded only to warn
        logging.getLogger(__name__).warning("%s: correlation index not written: %s", store_path, exc)


def read_correlation_index(
    store_path: str | Path, count_back_links: bool
) -> tuple[dict[int, tuple[str, str]], dict[tuple[str, str], list[int]]] | None:
    """The node table (event id -> (kind, info)) and the value holders, back-links
    counted or not, that the store's index holds; None when the index is
    missing or its header does not match the store on disk and its own body.
    Reading never writes."""
    store_path = Path(store_path)
    try:
        with open(index_path(store_path), "rb") as handle:
            header = handle.readline()
            # The tag and the length first: a store of another size is not read.
            if not header.startswith(f"{INDEX_FORMAT} {store_path.stat().st_size} ".encode("utf-8")):
                return None
            body = handle.read()
        store = store_path.read_bytes()
    except OSError:
        return None
    expected = (f"{INDEX_FORMAT} {len(store)} {blake2b(store).hexdigest()} "
                f"{blake2b(body).hexdigest()}\n")
    if header != expected.encode("utf-8"):
        return None
    try:
        document = json.loads(body)
        # Every stored "comment" is a back-link, or the commit wrote no index.
        holders = {(data_type, value): ids for data_type, value, ids in document["holders"]
                   if count_back_links or data_type != "comment"}
        return {node: (kind, info) for node, kind, info in document["nodes"]}, holders
    except (ValueError, KeyError, TypeError):  # a body of another layout under this tag
        return None


def load_all(path: str | Path) -> list[Event]:
    """All events in insertion order; empty or missing file yields []."""
    return EventStore(path).events()


class EventStore:
    """One store file, read at open. Opening never writes; the single
    writer's commits all go through :meth:`rewrite`, from the state read at
    open, so a concurrent writer's commits would be lost. ``read=False``
    skips the file, even a corrupt one, for a :meth:`rebuild` to replace."""

    def __init__(self, path: str | Path, *, read: bool = True):
        self.path = Path(path)
        self._events = _read_store(self.path) if read and self.path.exists() else []

    def events(self) -> list[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: Event) -> Event:
        """Commit one event, as a one-event :meth:`extend` that rewrites the
        whole store; commit many events with one :meth:`extend`."""
        [stored] = self.extend([event])
        return stored

    def extend(self, events: list[Event]) -> list[Event]:
        """Commit ``events`` after the stored ones under the next ids, in one
        :meth:`rewrite`; on failure the store stays as it was."""
        return self._commit(self._events, events)

    def rebuild(self, events: list[Event]) -> list[Event]:
        """Replace the whole content with ``events`` under fresh ids from 1,
        in one :meth:`rewrite`; on failure the store stays as it was."""
        return self._commit([], events)

    def _commit(self, kept: list[Event], events: list[Event]) -> list[Event]:
        stored = self._numbered(kept, events)
        self.rewrite(kept + stored)
        return stored

    @staticmethod
    def _numbered(kept: list[Event], events: list[Event]) -> list[Event]:
        """``events`` under the ids that follow the largest ids in ``kept``."""
        next_event_id = max((e.id for e in kept), default=0) + 1
        next_attribute_id = max((a.id for e in kept for a in e.attributes), default=0) + 1
        stored = []
        for event in events:
            ids = range(next_attribute_id, next_attribute_id + len(event.attributes))
            # tuple.__new__ is what Attribute._make does, without a Python-level call.
            attributes = [tuple.__new__(Attribute, (category, comment, value, type_token, attribute_id))
                          for (category, comment, value, type_token, _), attribute_id in zip(event.attributes, ids)]
            next_attribute_id += len(attributes)
            stored.append(event._replace(id=next_event_id, attributes=attributes))
            next_event_id += 1
        return stored

    def rewrite(self, events: list[Event]) -> None:
        """Atomically replace the store content, keeping the given ids, then
        its correlation index; no index is written for content that a read
        would refuse or find empty, or that holds a "comment" that is not a
        back-link. An event with a field a read would refuse for its type
        raises :class:`StoreError`, and nothing is written.

        Every commit goes through here: :meth:`append`, :meth:`extend`,
        :meth:`rebuild` and the filtering stage, which rewrites events rather
        than adding new ones.
        """
        checked = _CheckedLines()
        # Every event is checked before anything is written.
        text = "".join(map(checked.line, events))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, [text])
        self._events = list(events)
        if checked.nodes:
            _write_index(self.path, text.encode("utf-8"), checked.nodes, events)
