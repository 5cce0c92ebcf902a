"""Event store: one JSON document per line, UTF-8.

New event and attribute ids continue from the largest ids in the store, so
ids stay unique across process restarts. Opening a store only reads it; a
store has a single writer, whose commits start from the state read at open.
Every commit replaces the whole file through a temp file, so a failed
commit leaves the store as it was. The bytes after the last newline (a torn
write) are not committed: reading ignores them and the next commit removes
them, so a committed event is stored whole or not at all.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Iterable

from .events import Event, document_to_event, event_to_document

log = logging.getLogger(__name__)


class StoreError(Exception):
    pass


class CorruptStoreError(StoreError):
    def __init__(self, path: Path, line_number: int, reason: str):
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {reason}")


def _read_store(path: Path) -> list[Event]:
    """Parse the store file into its committed events.

    A line counts as committed only once its newline is on disk, so an
    unterminated tail (torn final write) is skipped with a warning even if it
    happens to parse. A terminated line that fails to parse, or repeats an
    event id, is corruption.
    """
    *lines, tail = path.read_bytes().split(b"\n")
    events: list[Event] = []
    ids: set[int] = set()
    for line_number, line_bytes in enumerate(lines, start=1):
        try:
            line = line_bytes.decode("utf-8")
            if line.strip():
                event = document_to_event(json.loads(line))
                if event.id in ids:
                    raise ValueError(f"duplicate event id {event.id}")
                ids.add(event.id)
                events.append(event)
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            raise CorruptStoreError(path, line_number, str(exc)) from exc
    if tail.strip():
        log.warning("%s: ignoring %d uncommitted trailing bytes", path, len(tail))
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
            attributes = [
                attribute._replace(id=next_attribute_id + offset)
                for offset, attribute in enumerate(event.attributes)
            ]
            next_attribute_id += len(attributes)
            stored.append(event._replace(id=next_event_id, attributes=attributes))
            next_event_id += 1
        return stored

    def rewrite(self, events: list[Event]) -> None:
        """Atomically replace the store content, keeping the given ids.

        Every commit goes through here: :meth:`append`, :meth:`extend`,
        :meth:`rebuild` and the filtering stage, which rewrites events rather
        than adding new ones.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, (json.dumps(event_to_document(event)) + "\n" for event in events))
        self._events = list(events)
