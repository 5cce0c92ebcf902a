"""Collect malware-analysis records by hash and expand over dropped hashes.

Expansion is breadth-first with a visited set, one level at a time: every
fetch inside a level may run concurrently (with one worker they run inline),
but levels are merged in sorted hash order, so the result does not depend on
completion order. A walk over the union of several seed sets fetches exactly
what separate walks would (a hash's distance from the union is its smallest
distance from any one set), so each set's closure is then replayed from the
fetched records.
"""

from __future__ import annotations

import datetime as dt
import time
from json.encoder import encode_basestring_ascii as _json_string
from types import MappingProxyType
from typing import AbstractSet, Callable, Mapping, NamedTuple, Sequence

from .events import CATEGORY, HASH_TYPES, MALWARE, Attribute, Event
from .extraction import classify_hash, is_valid_hash, is_valid_ip
from .providers import AnalysisDataError, AnalysisProvider, ProviderError

# The record fields a malware event's attributes come from, in their order,
# with the type each one's values take; a hash field holds one value or None.
_ATTRIBUTE_FIELDS = (
    ("filenames", "filename"),
    ("contacted_ips", "ip-src"),
    ("contacted_urls", "url"),
    ("md5", "md5"),
    ("sha1", "sha1"),
    ("sha256", "sha256"),
    ("pdb_paths", "pdb"),
    ("code_sign_serials", "code-sign"),
    ("mutexes", "other"),
    ("file_mappings", "other"),
    ("strings", "other"),
)
_LIST_FIELDS = (*(name for name, _ in _ATTRIBUTE_FIELDS if name not in HASH_TYPES), "dropped_hashes")


class AnalysisRecord(NamedTuple):
    """Normalized malware-analysis result for one sample."""

    md5: str | None = None
    sha1: str | None = None
    sha256: str | None = None
    compile_timestamp: dt.datetime | None = None
    filenames: Sequence[str] = ()
    contacted_ips: Sequence[str] = ()
    contacted_urls: Sequence[str] = ()
    pdb_paths: Sequence[str] = ()
    code_sign_serials: Sequence[str] = ()
    mutexes: Sequence[str] = ()
    file_mappings: Sequence[str] = ()
    strings: Sequence[str] = ()
    dropped_hashes: Sequence[str] = ()

    @classmethod
    def from_document(cls, document: dict) -> "AnalysisRecord":
        """Validate and normalize a raw provider document.

        Hashes are lowercased, the record's own hashes are dropped from
        ``dropped_hashes``, and any field violating the schema raises
        :class:`AnalysisDataError` naming that field.
        """
        if not isinstance(document, dict):
            raise AnalysisDataError("document", "expected a JSON object")

        hashes: dict[str, str | None] = {}
        for name in ("md5", "sha1", "sha256"):
            value = document.get(name)
            if value in (None, ""):
                hashes[name] = None
                continue
            if not isinstance(value, str) or not is_valid_hash(value):
                raise AnalysisDataError(name, f"invalid hash value {value!r}")
            value = value.lower()
            if classify_hash(value).value != name:
                raise AnalysisDataError(name, f"{value!r} is not a {name} digest")
            hashes[name] = value
        if not any(hashes.values()):
            raise AnalysisDataError("md5/sha1/sha256", "record carries no hash at all")

        timestamp = None
        raw_ts = document.get("compile_timestamp")
        if raw_ts not in (None, ""):
            if not isinstance(raw_ts, str):
                raise AnalysisDataError("compile_timestamp", f"expected ISO-8601 string, got {raw_ts!r}")
            try:
                timestamp = dt.datetime.fromisoformat(raw_ts.replace("Z", "+00:00"))
            except ValueError as exc:
                raise AnalysisDataError("compile_timestamp", str(exc)) from exc
            if timestamp.tzinfo is None:
                timestamp = timestamp.replace(tzinfo=dt.timezone.utc)
            timestamp = timestamp.astimezone(dt.timezone.utc)

        lists: dict[str, tuple[str, ...]] = {}
        for name in _LIST_FIELDS:
            raw = document.get(name, [])
            if not isinstance(raw, list) or not all(isinstance(v, str) for v in raw):
                raise AnalysisDataError(name, "expected a list of strings")
            lists[name] = tuple(raw)

        for ip in lists["contacted_ips"]:
            if not is_valid_ip(ip):
                raise AnalysisDataError("contacted_ips", f"invalid IP address {ip!r}")

        own = set(h for h in hashes.values() if h)
        dropped: list[str] = []
        for value in lists["dropped_hashes"]:
            if not is_valid_hash(value):
                raise AnalysisDataError("dropped_hashes", f"invalid hash value {value!r}")
            value = value.lower()
            if value not in own and value not in dropped:
                dropped.append(value)
        lists["dropped_hashes"] = tuple(dropped)

        return cls(
            md5=hashes["md5"],
            sha1=hashes["sha1"],
            sha256=hashes["sha256"],
            compile_timestamp=timestamp,
            **lists,
        )

    def to_document(self) -> dict:
        document: dict = {
            "md5": self.md5,
            "sha1": self.sha1,
            "sha256": self.sha256,
            "compile_timestamp": self.compile_timestamp.isoformat() if self.compile_timestamp else None,
        }
        for name in _LIST_FIELDS:
            document[name] = list(getattr(self, name))
        return document

    def _to_json(self) -> str:
        """The JSON of :meth:`to_document` as :meth:`EnrichmentResult.to_json`
        nests it, one level into the records."""
        timestamp = self.compile_timestamp.isoformat() if self.compile_timestamp else None
        fields = [f'"{name}": {"null" if value is None else _json_string(value)}'
                  for name, value in (("md5", self.md5), ("sha1", self.sha1), ("sha256", self.sha256),
                                      ("compile_timestamp", timestamp))]
        fields += [f'"{name}": {_json_strings(getattr(self, name), "      ")}' for name in _LIST_FIELDS]
        return "{\n      " + ",\n      ".join(fields) + "\n    }"


def _json_strings(values: Sequence[str], indent: str) -> str:
    """``json.dumps(list(values), indent=2)`` for a list nested at ``indent``."""
    if not values:
        return "[]"
    items = f",\n{indent}  ".join(map(_json_string, values))
    return f"[\n{indent}  {items}\n{indent}]"


class EnrichmentResult(NamedTuple):
    """Outcome of one transitive collection run."""

    records: Mapping[str, AnalysisRecord] = MappingProxyType({})
    missing: AbstractSet[str] = frozenset()
    discovered: AbstractSet[str] = frozenset()
    query_count: int = 0

    def all_hashes(self) -> set[str]:
        return set(self.records) | self.missing | self.discovered

    def to_document(self) -> dict:
        return {
            "records": {h: self.records[h].to_document() for h in sorted(self.records)},
            "missing": sorted(self.missing),
            "discovered": sorted(self.discovered),
            "query_count": self.query_count,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_document(), indent=2) + "\\n"``, the sidecar,
        written directly: the standard encoder indents in pure Python."""
        records = "".join(f",\n    {_json_string(h)}: {self.records[h]._to_json()}" for h in sorted(self.records))
        records = f"{{{records[1:]}\n  }}" if records else "{}"
        return (f'{{\n  "records": {records},\n  "missing": {_json_strings(sorted(self.missing), "  ")},'
                f'\n  "discovered": {_json_strings(sorted(self.discovered), "  ")},'
                f'\n  "query_count": {self.query_count}\n}}\n')

    @classmethod
    def from_document(cls, document: dict) -> "EnrichmentResult":
        """The result :meth:`to_document` wrote; a non-object, a missing key
        or a wrongly typed field raises :class:`AnalysisDataError`."""
        if not isinstance(document, dict):
            raise AnalysisDataError("document", "expected a JSON object")
        for key, kind in (("records", dict), ("missing", list), ("discovered", list), ("query_count", int)):
            value = document.get(key)
            # type(), not isinstance(): a JSON true is no query count.
            if type(value) is not kind or kind is list and not all(type(item) is str for item in value):
                raise AnalysisDataError(key, f"expected {kind.__name__}, got {value!r}" if key in document else "missing")
        return cls(
            records={h: AnalysisRecord.from_document(doc) for h, doc in document["records"].items()},
            missing=set(document["missing"]),
            discovered=set(document["discovered"]),
            query_count=document["query_count"],
        )


def fetch_analysis(hash_value: str, provider: AnalysisProvider) -> AnalysisRecord | None:
    """One normalized analysis record, or None when the provider has no
    analysis for the hash (such hashes still become bare malware events)."""
    classify_hash(hash_value)
    document = provider.fetch(hash_value.lower())
    if document is None:
        return None
    return AnalysisRecord.from_document(document)


def _fetch_with_retry(
    hash_value: str,
    provider: AnalysisProvider,
    retries: int,
    backoff: float,
) -> AnalysisRecord | None:
    for attempt in range(retries + 1):
        try:
            return fetch_analysis(hash_value, provider)
        except ProviderError as exc:
            if attempt == retries:
                import logging  # loaded only to warn
                logging.getLogger(__name__).warning("giving up on %s after %d retries: %s", hash_value, retries, exc)
                raise
            delay = max(backoff * 2**attempt, exc.retry_after or 0.0)
            if delay > 0:
                time.sleep(delay)


def _walk(seeds: set[str], depth_limit: int, fetch_level: Callable[[list[str]], dict]) -> EnrichmentResult:
    """The breadth-first walk; ``fetch_level`` maps one level's sorted hashes
    to their records, None where the hash has no analysis, in that order."""
    records: dict[str, AnalysisRecord] = {}
    missing: set[str] = set()
    discovered: set[str] = set()
    visited: set[str] = set()

    frontier = sorted(seeds)
    for _ in range(depth_limit):
        visited.update(frontier)
        results = fetch_level(frontier)
        next_frontier: set[str] = set()
        for hash_value, record in results.items():
            if record is None:
                missing.add(hash_value)
                continue
            records[hash_value] = record
            for dropped in record.dropped_hashes:
                if dropped not in seeds:
                    discovered.add(dropped)
                if dropped not in visited:
                    next_frontier.add(dropped)
        frontier = sorted(next_frontier)

    return EnrichmentResult(records, missing, discovered, len(visited))


def enrich_transitively(
    seeds: set[str],
    provider: AnalysisProvider,
    depth_limit: int = 2,
    *,
    retries: int = 3,
    backoff: float = 0.5,
    max_workers: int = 4,
) -> EnrichmentResult:
    """Expand from the seed hashes over ``dropped_hashes``, breadth-first.

    Seeds sit at depth 1. Every hash is queried at most once; hashes first
    seen beyond ``depth_limit`` are recorded as discovered but never queried,
    which bounds the walk even on adversarial (cyclic) analysis graphs. A
    fetch that still fails after ``retries`` retries raises its
    :class:`ProviderError`, and no fetch queued behind it is made. With
    ``max_workers`` 1 the fetches run inline, in frontier order.
    """
    if not seeds:
        raise ValueError("seed set must not be empty")
    if depth_limit < 1:
        raise ValueError("depth_limit must be >= 1")
    seed_set = {h.lower() for h in seeds}
    for seed in seed_set:
        classify_hash(seed)

    if max_workers == 1:
        # A pool of one fetches nothing concurrently: it would only add
        # thread hand-offs and its imports.
        return _walk(seed_set, depth_limit,
                     lambda frontier: {h: _fetch_with_retry(h, provider, retries, backoff) for h in frontier})

    # Imported here so that reading enrichment results (stats) does not load
    # the thread pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:

        def fetch_level(frontier: list[str]) -> dict[str, AnalysisRecord | None]:
            futures = {h: pool.submit(_fetch_with_retry, h, provider, retries, backoff) for h in frontier}
            try:
                # Reading in frontier order keeps both the merge and error propagation deterministic.
                return {h: future.result() for h, future in futures.items()}
            except BaseException:
                # The level's queued fetches are dropped; leaving the with
                # block waits only for those already running.
                pool.shutdown(wait=False, cancel_futures=True)
                raise

        return _walk(seed_set, depth_limit, fetch_level)


def replay_closure(seeds: set[str], fetched: EnrichmentResult, depth_limit: int) -> EnrichmentResult:
    """The walk from the lowercase ``seeds`` answered from the records of an
    earlier walk whose seeds included them, with the same ``depth_limit``; no
    provider is queried."""
    return _walk(seeds, depth_limit, lambda frontier: {h: fetched.records.get(h) for h in frontier})


def record_to_attributes(record: AnalysisRecord, origin_report: str) -> list[Attribute]:
    """Attribute items for a malware event, ending with the back-link comment
    that names the originating report."""
    attributes: list[Attribute] = []
    for name, type_token in _ATTRIBUTE_FIELDS:
        values = getattr(record, name)
        if name in HASH_TYPES:
            values = [values] if values else []
        category = CATEGORY[type_token]
        for value in values:
            # The first filename names the sample; filenames come first.
            comment = "original_filename" if name == "filenames" and not attributes else ""
            attributes.append(Attribute(category, comment, value, type_token))
    attributes.append(Attribute(CATEGORY["comment"], "", origin_report, "comment"))
    return attributes


def build_malware_event(
    hash_value: str,
    record: AnalysisRecord | None,
    origin: str,
    fallback_date: dt.date,
) -> Event:
    """Build a malware event for ``hash_value``.

    The event date is the analysis compile timestamp when known, otherwise the
    originating report's publication date. Without analysis the record is the
    hash alone, so the event carries just its own hash and the back-link.
    """
    kind = classify_hash(hash_value).value
    hash_value = hash_value.lower()
    if record is None:
        record = AnalysisRecord(**{kind: hash_value})
    date = record.compile_timestamp.date() if record.compile_timestamp else fallback_date
    return Event(0, date, hash_value, MALWARE, record_to_attributes(record, origin))
