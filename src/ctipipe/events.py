"""Event schema: report events hold parsed indicators, malware events hold
analysis-derived attributes, and a back-link comment ties each malware event
to the report it came from."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import Iterable

from .extraction import Indicator, IndicatorKind

REPORT = "report"
MALWARE = "malware"

CATEGORY_EXTERNAL = "External analysis"
CATEGORY_NETWORK = "Network activity"
CATEGORY_PAYLOAD = "Payload installation"
CATEGORY_ARTIFACTS = "Artifacts dropped"
CATEGORY_OTHER = "Other"

HASH_TYPES = frozenset({"md5", "sha1", "sha256"})

# Every attribute type token the store can contain.
ATTRIBUTE_TYPES = frozenset({
    "md5", "sha1", "sha256", "ip-src", "url", "hostname", "email",
    "vulnerability", "registry", "filename", "pdb", "code-sign", "other",
    "comment",
})


@dataclass
class Attribute:
    category: str
    comment: str
    value: str
    type: str
    id: int = 0


@dataclass
class Event:
    id: int
    date: dt.date
    info: str
    kind: str
    attributes: list[Attribute] = field(default_factory=list)


@dataclass
class EventSet:
    """One report event plus the malware events derived from it."""

    report_title: str
    report_event: Event
    malware_events: list[Event] = field(default_factory=list)


def is_back_link(attribute: Attribute) -> bool:
    """The comment attribute naming a malware event's originating report."""
    return attribute.type == "comment" and attribute.category == CATEGORY_OTHER


def event_kind(attributes: list[Attribute], event_id: int) -> str:
    """The kind the back-links imply: exactly one makes a malware event, none
    a report event; more than one is malformed."""
    count = sum(1 for a in attributes if is_back_link(a))
    if count > 1:
        raise ValueError(f"event {event_id} has {count} back-links")
    return MALWARE if count else REPORT


def value_holders(
    groups: Iterable[tuple[int, Iterable[Event]]],
    count_back_links: bool = False,
) -> dict[tuple[str, str], list[int]]:
    """Map each (type, value) held by the events of ``groups``, pairs of a
    key and events, to the keys of the groups holding it, ascending and
    distinct. Back-links are skipped unless ``count_back_links``.

    This is the one scan of who holds a value: correlation keys a group by
    event id, noise scoring by event set, the statistics by side of a set."""
    holders: dict[tuple[str, str], list[int]] = {}
    for key, events in sorted(groups, key=itemgetter(0)):
        for event in events:
            for a in event.attributes:
                if count_back_links or not is_back_link(a):
                    pair = (a.type, a.value)
                    keys = holders.get(pair)
                    if keys is None:
                        holders[pair] = [key]
                    elif keys[-1] != key:
                        keys.append(key)
    return holders


def report_hashes(event: Event) -> set[str]:
    """The lowercased hash values of a report event: the seeds enrichment
    starts from, and the "extracted malware hashes" of the statistics."""
    return {a.value.lower() for a in event.attributes if a.type in HASH_TYPES}


# How each parsed indicator kind maps onto (category, attribute type).
_INDICATOR_ATTRIBUTE = {
    IndicatorKind.URL: (CATEGORY_NETWORK, "url"),
    IndicatorKind.HOSTNAME: (CATEGORY_NETWORK, "hostname"),
    IndicatorKind.IP: (CATEGORY_NETWORK, "ip-src"),
    IndicatorKind.EMAIL: (CATEGORY_NETWORK, "email"),
    IndicatorKind.MD5: (CATEGORY_PAYLOAD, "md5"),
    IndicatorKind.SHA1: (CATEGORY_PAYLOAD, "sha1"),
    IndicatorKind.SHA256: (CATEGORY_PAYLOAD, "sha256"),
    IndicatorKind.FILENAME: (CATEGORY_EXTERNAL, "filename"),
    IndicatorKind.CVE: (CATEGORY_EXTERNAL, "vulnerability"),
    IndicatorKind.REGISTRY: (CATEGORY_EXTERNAL, "registry"),
    IndicatorKind.PDB: (CATEGORY_ARTIFACTS, "pdb"),
}


def build_report_event(title: str, publication_date: dt.date, indicators: list[Indicator]) -> Event:
    """Turn a parsed report into a report event; ids are assigned on commit."""
    if not title:
        raise ValueError("report title must not be empty")
    attributes = []
    for indicator in indicators:
        category, type_token = _INDICATOR_ATTRIBUTE[indicator.kind]
        attributes.append(Attribute(category, "", indicator.value, type_token))
    return Event(0, publication_date, title, REPORT, attributes)


def event_to_document(event: Event) -> dict:
    """Serialize with exactly the exchange field names and order."""
    return {
        "id": event.id,
        "date": event.date.isoformat(),
        "info": event.info,
        "Attribute": [
            {
                "category": a.category,
                "comment": a.comment,
                "value": a.value,
                "type": a.type,
                "id": a.id,
            }
            for a in event.attributes
        ],
    }


def event_to_json(event: Event) -> str:
    """``json.dumps(event_to_document(event), indent=2) + "\\n"``, written
    directly: the standard encoder indents in pure Python."""
    attributes = ",".join(
        f'\n    {{\n      "category": {_json_string(a.category)},'
        f'\n      "comment": {_json_string(a.comment)},'
        f'\n      "value": {_json_string(a.value)},'
        f'\n      "type": {_json_string(a.type)},'
        f'\n      "id": {a.id!r}\n    }}'
        for a in event.attributes
    )
    close = "\n  ]" if attributes else "]"
    return (
        f'{{\n  "id": {event.id!r},\n  "date": {_json_string(event.date.isoformat())},'
        f'\n  "info": {_json_string(event.info)},\n  "Attribute": [{attributes}{close}\n}}\n'
    )


def document_to_event(document: dict) -> Event:
    """Inverse of :func:`event_to_document`; the event kind is re-derived
    from the back-links (see :func:`event_kind`)."""
    try:
        event_id = int(document["id"])
        date = dt.date.fromisoformat(document["date"])
        info = document["info"]
        items = document["Attribute"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed event document: {exc}") from exc
    attributes = []
    for item in items:
        try:
            attributes.append(
                Attribute(item["category"], item["comment"], item["value"], item["type"], int(item["id"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed attribute item: {exc}") from exc
    return Event(event_id, date, info, event_kind(attributes, event_id), attributes)


def group_event_sets(events: list[Event]) -> list[EventSet]:
    """Reconstruct event sets by following malware back-links to report titles."""
    sets: dict[str, EventSet] = {}
    malware: list[Event] = []
    for event in events:
        kind = event_kind(event.attributes, event.id)
        if kind != event.kind:
            found = "a" if kind == MALWARE else "no"
            raise ValueError(f"{event.kind} event {event.id} has {found} back-link")
        if kind == MALWARE:
            malware.append(event)
        elif event.info in sets:
            raise ValueError(f"duplicate report event for {event.info!r}")
        else:
            sets[event.info] = EventSet(event.info, event)
    for event in malware:
        origin = next(a.value for a in event.attributes if is_back_link(a))
        if origin not in sets:
            raise ValueError(f"malware event {event.id} references unknown report {origin!r}")
        sets[origin].malware_events.append(event)
    return sorted(sets.values(), key=lambda s: s.report_event.id)
