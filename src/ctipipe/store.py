"""Event store: one JSON document per line, UTF-8.

New event and attribute ids continue from the largest ids in the store, so
ids stay unique across process restarts. Every commit but one replaces the
whole file through a temp file, so a failed commit leaves the store as it
was. The exception is :meth:`EventStore.append`, which writes its one line in
place and truncates it away again if the write fails. A partial trailing line
(a torn write) is tolerated on load and truncated away before the next write,
so an appended event is stored whole or not at all.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import replace
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


def _read_store(path: Path) -> tuple[list[Event], int]:
    """Parse the store file; returns (events, byte length of the committed prefix).

    A line counts as committed only once its newline is on disk, so an
    unterminated tail (torn final write) is skipped with a warning even if it
    happens to parse. A terminated line that fails to parse is corruption.
    """
    blob = path.read_bytes()
    events: list[Event] = []
    valid_bytes = 0
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
                events.append(document_to_event(json.loads(line)))
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as exc:
            raise CorruptStoreError(path, line_number, str(exc)) from exc
        offset = newline + 1
        valid_bytes = offset
    if blob[offset:].strip():
        log.warning("%s: ignoring %d uncommitted trailing bytes", path, len(blob) - offset)
    return events, valid_bytes


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Replace ``path`` with ``chunks`` via a fsynced temp file renamed over
    it; on any failure the old file stays and the temp file is removed. The
    file keeps its mode, or gets ``open()``'s (0o666 less the umask) if new."""
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        if path.exists():
            os.chmod(temp_name, path.stat().st_mode & 0o7777)
        else:
            os.umask(umask := os.umask(0))  # read the umask, leaving it as it was
            os.chmod(temp_name, 0o666 & ~umask)
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


def load_all(path: str | Path) -> list[Event]:
    """All events in insertion order; empty or missing file yields []."""
    path = Path(path)
    if not path.exists():
        return []
    events, _ = _read_store(path)
    return events


class EventStore:
    """Single writer for one store file. Concurrent readers can keep using
    :func:`load_all` snapshots; they never see a half-written line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._events: list[Event] = []
        if self.path.exists():
            self._events, valid_bytes = _read_store(self.path)
            if valid_bytes < self.path.stat().st_size:
                log.warning("%s: truncating partial trailing line", self.path)
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def events(self) -> list[Event]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: Event) -> Event:
        """Commit one event under the next ids and return the stored copy.

        Writes one line at the end of the file and fsyncs once; if that
        fails, the file is truncated back to its old length.
        """
        [stored] = self._numbered(self._events, [event])
        line = memoryview((json.dumps(event_to_document(stored)) + "\n").encode("utf-8"))
        descriptor = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            length = os.lseek(descriptor, 0, os.SEEK_END)
            try:
                while line:
                    line = line[os.write(descriptor, line):]
                os.fsync(descriptor)
            except BaseException:
                os.ftruncate(descriptor, length)
                raise
        finally:
            os.close(descriptor)
        self._events.append(stored)
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
                replace(attribute, id=next_attribute_id + offset)
                for offset, attribute in enumerate(event.attributes)
            ]
            next_attribute_id += len(attributes)
            stored.append(replace(event, id=next_event_id, attributes=attributes))
            next_event_id += 1
        return stored

    def rewrite(self, events: list[Event]) -> None:
        """Atomically replace the store content, keeping the given ids.

        Every commit but :meth:`append` goes through here: :meth:`extend`,
        :meth:`rebuild` and the filtering stage, which rewrites events rather
        than adding new ones.
        """
        atomic_write(self.path, (json.dumps(event_to_document(event)) + "\n" for event in events))
        self._events = list(events)
