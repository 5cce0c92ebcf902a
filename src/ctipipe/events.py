"""Event schema: report events hold parsed indicators, malware events hold
analysis-derived attributes, and a back-link comment ties each malware event
to the report it came from."""

from __future__ import annotations

import datetime as dt
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .extraction import Indicator

REPORT = "report"
MALWARE = "malware"

# The category of every attribute type token the store can contain.
CATEGORY = {
    **dict.fromkeys(("md5", "sha1", "sha256"), "Payload installation"),
    **dict.fromkeys(("ip-src", "url", "hostname", "email"), "Network activity"),
    **dict.fromkeys(("vulnerability", "registry", "filename"), "External analysis"),
    **dict.fromkeys(("pdb", "code-sign", "other"), "Artifacts dropped"),
    "comment": "Other",
}
ATTRIBUTE_TYPES = frozenset(CATEGORY)
HASH_TYPES = frozenset({"md5", "sha1", "sha256"})


# Records are immutable named tuples; ``record._replace(field=value)`` is
# a copy with one field changed.
class Attribute(NamedTuple):
    category: str
    comment: str
    value: str
    type: str
    id: int = 0


class Event(NamedTuple):
    id: int
    date: dt.date
    info: str
    kind: str
    attributes: list[Attribute]


class EventSet(NamedTuple):
    """One report event plus the malware events derived from it."""

    report_title: str
    report_event: Event
    malware_events: Sequence[Event] = ()


def is_back_link(attribute: Attribute) -> bool:
    """The comment attribute naming a malware event's originating report."""
    return attribute.type == "comment" and attribute.category == CATEGORY["comment"]


def event_kind(attributes: list[Attribute], event_id: int) -> str:
    """The kind the back-links imply: exactly one makes a malware event, none
    a report event; more than one is malformed."""
    count = sum(map(is_back_link, attributes))
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


def build_report_event(title: str, publication_date: dt.date, indicators: list[Indicator]) -> Event:
    """Turn a parsed report into a report event; ids are assigned on commit."""
    if not title:
        raise ValueError("report title must not be empty")
    attributes = [Attribute(CATEGORY[i.kind.value], "", i.value, i.kind.value) for i in indicators]
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


_EVENT_JSON_TYPES = {"id": int, "info": str, "Attribute": list}
_ATTRIBUTE_JSON_TYPES = {"category": str, "comment": str, "value": str, "type": str, "id": int}
# An attribute item's fields in Attribute order, read in one call.
_attribute_row = itemgetter(*_ATTRIBUTE_JSON_TYPES)


def _wrong_type(document: dict, fields: dict[str, type]) -> str:
    """Name the first of ``fields`` whose value in ``document`` is not of
    its type; type(), not isinstance(), since a JSON true is no id."""
    key = next(key for key, kind in fields.items() if type(document[key]) is not kind)
    return f"{key!r} is {type(document[key]).__name__}, not {fields[key].__name__}"


def document_to_event(document: dict) -> Event:
    """Inverse of :func:`event_to_document`; the event kind is re-derived
    from the back-links (see :func:`event_kind`). A missing or wrongly typed
    field, or a date not written YYYY-MM-DD, raises ValueError."""
    try:
        event_id = document["id"]
        text = document["date"]
        date = dt.date.fromisoformat(text)
        info = document["info"]
        items = document["Attribute"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed event document: {exc}") from exc
    # fromisoformat also takes the basic and week forms, such as 20141203 and
    # 2014-W49-3, which a commit would rewrite. Of the forms it takes, only
    # YYYY-MM-DD is ten characters long with a "-" at index 7.
    if len(text) != 10 or text[7] != "-":
        raise ValueError(f"malformed event document: date {text!r} is not YYYY-MM-DD")
    if not (type(event_id) is int and type(info) is str and type(items) is list):
        raise ValueError(f"malformed event document: {_wrong_type(document, _EVENT_JSON_TYPES)}")
    attributes = []
    for item in items:
        try:
            row = _attribute_row(item)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed attribute item: {exc}") from exc
        category, comment, value, type_token, attribute_id = row
        if not (type(category) is type(comment) is type(value) is type(type_token) is str
                and type(attribute_id) is int):
            raise ValueError(f"malformed attribute item: {_wrong_type(item, _ATTRIBUTE_JSON_TYPES)}")
        # What Attribute._make(row) does, without its frame and length check:
        # a call with arguments runs a Python-level __new__.
        attributes.append(tuple.__new__(Attribute, row))
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
            sets[event.info] = EventSet(event.info, event, [])
    for event in malware:
        origin = next(a.value for a in event.attributes if is_back_link(a))
        if origin not in sets:
            raise ValueError(f"malware event {event.id} references unknown report {origin!r}")
        sets[origin].malware_events.append(event)
    return sorted(sets.values(), key=lambda s: s.report_event.id)
