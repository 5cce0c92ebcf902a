"""Extract typed indicators of compromise from security-report text.

Reports conventionally defang indicators (hxxp, "[.]", "[at]") to keep them
non-clickable; :func:`normalize_defanged` reverses that before the pattern
grammar in :func:`extract_indicators` runs. :func:`indicator_runs` does so
only in the parts of a report that can hold an indicator. The grammar is
deliberately fixed so the same text always yields the same indicator list.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .defang import DEFANG_TABLE, SCHEME_DEFANGS


class IndicatorKind(str, Enum):
    """Indicator types the parser recognizes; values are the stored tokens.
    Declared in overlap priority: when spans collide, the more specific,
    earlier kind wins."""

    URL = "url"
    EMAIL = "email"
    REGISTRY = "registry"
    PDB = "pdb"
    SHA256 = "sha256"
    SHA1 = "sha1"
    MD5 = "md5"
    CVE = "vulnerability"
    IP = "ip-src"
    FILENAME = "filename"
    HOSTNAME = "hostname"


class Indicator(NamedTuple):
    """One extracted observable with its position in the text it was
    extracted from."""

    kind: IndicatorKind
    value: str
    source_id: str
    offset: int


# Extensions that make a bare basename count as a filename indicator.
DEFAULT_FILENAME_EXTENSIONS: frozenset[str] = frozenset({
    "exe", "dll", "sys", "doc", "docx", "xls", "xlsx", "ppt", "pptx",
    "pdf", "zip", "rar", "js", "vbs", "bat", "ps1", "jar", "apk", "scr",
    "tmp", "dat",
})

_HASH_LENGTHS = {32: IndicatorKind.MD5, 40: IndicatorKind.SHA1, 64: IndicatorKind.SHA256}
_HEX_RE = re.compile(r"[0-9A-Fa-f]+")

# A hex run only counts as a hash when delimited by non-hex characters, so a
# sha256 never doubles as an embedded md5.
_HEX_RUN_RE = re.compile(r"(?<![0-9A-Fa-f])[0-9A-Fa-f]{32,}(?![0-9A-Fa-f])")
_URL_RE = re.compile(r"\b(?:https?|ftps?)://[^\s<>\"']+", re.IGNORECASE)
_EMAIL_RE = re.compile(
    r"(?<![A-Za-z0-9._%+\-])[A-Za-z0-9._%+\-]+@[A-Za-z0-9\-]+(?:\.[A-Za-z0-9\-]+)+"
)
_HOSTNAME_RE = re.compile(
    r"\b(?:[A-Za-z0-9](?:[A-Za-z0-9\-]{0,61}[A-Za-z0-9])?\.)+[A-Za-z]{2,}\b"
)
# The lookarounds reject candidates embedded in a longer dotted sequence
# (e.g. the tail of "999.1.1.1" or the head of "1.2.3.4.5").
_IP_RE = re.compile(r"(?<![0-9])(?<![0-9]\.)[0-9]{1,3}(?:\.[0-9]{1,3}){3}(?![0-9])(?!\.[0-9])")
_CVE_RE = re.compile(r"\bCVE-[0-9]{4}-[0-9]{4,}\b")
_REGISTRY_RE = re.compile(r"\b(?:HKLM|HKCU|HKCR|HKU|HKEY_[A-Za-z_]+)\\[^\s\"'<>|]+")
# Anchored at the start of a segment: a match from inside one would also be
# one from its start, which the greedy repeat takes up to the last ".pdb",
# so the lookbehind only spares the retries from every later position.
_PDB_RE = re.compile(r"(?<![^\s\"'<>|])[^\s\"'<>|]+\.pdb\b", re.IGNORECASE)

_TRAILING_PUNCT = ".,;:!?)]}\"'"

# No pattern above, nor a filename extension, matches whitespace, and every
# match holds a trigger: one of ". @ \ : -" followed by a non-whitespace
# character, or 32 hex digits. So the patterns scan only the whitespace-
# delimited runs that hold a trigger, through finditer's pos and endpos,
# which keep offsets and lookbehinds on the whole text; or, where those runs
# fill at least half of the text, as in what indicator_runs returns, the
# whole text once, in fewer finditer calls: on hub_corpus's runs strings
# that takes about 52 ms against 70 ms run by run. The hex runs are found
# in a mask of the text, one byte per character, 1 where it is a hex digit:
# in a pattern, an alternation starting with [0-9A-Fa-f] would try a match
# at every hex digit.
_TRIGGER_RE = re.compile(r"[.@\\:\-](?=\S)")
_HEX_MASK = bytes(chr(byte) in "0123456789ABCDEFabcdef" for byte in range(256))
_HEX_TRIGGER = b"\x01" * 32
_RUN_END_RE = re.compile(r"\S*")
# The triggers of the raw runs that indicator_runs keeps under the built-in
# defang table. No entry's pattern or replacement holds whitespace, so each
# run is normalized on its own, and a run changes only where "hxxp" or
# "hxxps" becomes "http" or "https", adding no trigger and no hex digit, or
# where a bracket pattern matches: one holding a trigger, or "[dot]" or
# "[at]", which start with "[" followed by a non-whitespace character.
_RAW_TRIGGER_RE = re.compile(r"[.@\\:\-\[](?=\S)")

# Lower rank = higher priority when spans collide.
_PRIORITY = {kind: rank for rank, kind in enumerate(IndicatorKind)}

_MAX_DEFANG_PASSES = 100


def normalize_defanged(raw: str, extra_table: Sequence[tuple[str, str]] | None = None) -> str:
    """Undo defanging, repeating until the text is stable.

    Repetition makes the function idempotent even for nested constructions
    like ``[[dot]]`` whose first rewrite re-creates a defang token.
    """
    table = list(DEFANG_TABLE) + [tuple(entry) for entry in (extra_table or ())]
    text = raw
    for _ in range(_MAX_DEFANG_PASSES):  # defensive cap; the built-in table converges in 2
        previous = text
        for pattern, replacement in table:
            token = pattern.lower()
            if token in SCHEME_DEFANGS:
                if text.isascii() and "\\" not in replacement:
                    text = _replace_caseless(text, token, replacement)
                # re.IGNORECASE matches a character to h, x, p or s only where
                # it casefolds to that letter (the long s "ſ" does to s), so
                # without the pattern in the casefolded text there is nothing
                # to replace. A backslash makes the replacement a template.
                elif token in text.casefold():
                    text = re.sub(re.escape(pattern), replacement, text, flags=re.IGNORECASE)
            else:
                text = text.replace(pattern, replacement)
        if text == previous:
            break
    return text


def indicator_runs(raw: str, extra_table: Sequence[tuple[str, str]] | None = None) -> str:
    """:func:`normalize_defanged` of the whitespace-delimited runs of ``raw``
    that can hold an indicator once defanging is undone, joined by single
    spaces.

    :func:`extract_indicators` finds in it the kinds and values, in this
    order, that it finds in ``normalize_defanged(raw, extra_table)``, and
    it holds every string that :func:`fits_in_runs` wherever that text
    does. With added defang entries, it is that whole text.
    """
    if extra_table:
        return normalize_defanged(raw, extra_table)
    return normalize_defanged(" ".join(raw[start:end] for start, end in _windows(raw, _RAW_TRIGGER_RE)))


def fits_in_runs(value: str) -> bool:
    """Whether what :func:`indicator_runs` returns for a report holds
    ``value``, and its lowercase form lowercased, wherever the report's whole
    normalized text does: ``value`` holds no whitespace, so it lies inside
    one run, and holds a trigger, so that run can hold an indicator."""
    return value.split() == [value] and (
        _TRIGGER_RE.search(value) is not None
        or _HEX_TRIGGER in value.encode("ascii", "replace").translate(_HEX_MASK)
    )


def _replace_caseless(text: str, token: str, replacement: str) -> str:
    """``re.sub`` of the lowercase ``token``, case-insensitively, by the
    literal ``replacement``, for an ASCII ``text``: there a character
    matches a letter of the token caselessly exactly where its lowercase
    form is that letter, so the matches are those in ``text.lower()``."""
    pieces, at = [], 0
    for part in text.lower().split(token):
        pieces.append(text[at:at + len(part)])
        at += len(part) + len(token)
    return replacement.join(pieces)


def classify_hash(value: str) -> IndicatorKind:
    """Map a hex digest onto md5/sha1/sha256 by its length."""
    if not _HEX_RE.fullmatch(value):
        raise ValueError(f"not a hexadecimal string: {value!r}")
    kind = _HASH_LENGTHS.get(len(value))
    if kind is None:
        raise ValueError(f"not a supported hash length: {len(value)}")
    return kind


def is_valid_hash(value: str) -> bool:
    return len(value) in _HASH_LENGTHS and _HEX_RE.fullmatch(value) is not None


def is_valid_ip(value: str) -> bool:
    """Four dot-separated octets of ASCII digits, each 0-255: what the
    pattern's ``[0-9]`` takes. ``isdecimal()`` alone also takes other
    scripts' digits, and ``isdigit()`` superscript two, which ``int()``
    refuses."""
    parts = value.split(".")
    if len(parts) != 4 or not value.isascii():
        return False
    for part in parts:
        if not part.isdecimal() or int(part) > 255:
            return False
    return True


def looks_like_hostname(value: str) -> bool:
    return bool(_HOSTNAME_RE.fullmatch(value))


def _filename_pattern(extensions: Iterable[str]) -> re.Pattern[str]:
    """The filename pattern for ``extensions``, one per set of them
    lowercased and without leading dots; ValueError if one holds
    whitespace, which no indicator may span."""
    return _filename_pattern_of(frozenset(ext.lower().lstrip(".") for ext in extensions))


@lru_cache(maxsize=16)
def _filename_pattern_of(extensions: frozenset[str]) -> re.Pattern[str]:
    ordered = sorted(extensions)
    for ext in ordered:
        if any(ch.isspace() for ch in ext):
            raise ValueError(f"filename extension {ext!r} contains whitespace")
    alternatives = "|".join(re.escape(ext) for ext in ordered)
    return re.compile(rf"\b[\w.\-]+\.(?:{alternatives})\b", re.IGNORECASE)


class _Candidate(NamedTuple):
    start: int
    end: int
    kind: IndicatorKind
    value: str


def _windows(doc: str, trigger_re: re.Pattern[str] = _TRIGGER_RE) -> Iterator[tuple[int, int]]:
    """``(start, end)`` of each whitespace-delimited run of ``doc`` that holds
    a match of ``trigger_re`` or 32 hex digits, in order."""
    # Non-ASCII characters encode as one "?" each, so offsets match.
    hex_mask = doc.encode("ascii", "replace").translate(_HEX_MASK)
    end = 0
    punctuation = trigger_re.search(doc)
    while True:
        if punctuation is not None and punctuation.start() < end:
            punctuation = trigger_re.search(doc, end)
        # A hex trigger that starts before the punctuation one ends before
        # it, or holds it and so lies in its run.
        trigger = hex_mask.find(_HEX_TRIGGER, end, len(doc) if punctuation is None else punctuation.start())
        if trigger < 0:
            if punctuation is None:
                return
            trigger = punctuation.start()
        start = trigger
        while start > end and not doc[start - 1].isspace():
            start -= 1
        end = _RUN_END_RE.match(doc, trigger).end()
        yield start, end


def _gather_candidates(doc: str, extensions: Iterable[str]) -> list[_Candidate]:
    # Kinds whose whole match is the value. The gathering order does not
    # matter: extract_indicators' sort key is total.
    plain = (
        (IndicatorKind.EMAIL, _EMAIL_RE),
        (IndicatorKind.PDB, _PDB_RE),
        (IndicatorKind.CVE, _CVE_RE),
        (IndicatorKind.FILENAME, _filename_pattern(extensions)),
        (IndicatorKind.HOSTNAME, _HOSTNAME_RE),
    )
    windows, covered = [], 0
    for start, end in _windows(doc):
        windows.append((start, end))
        covered += end - start
        if 2 * covered >= len(doc):
            windows = [(0, len(doc))]
            break
    candidates: list[_Candidate] = []
    for start, end in windows:
        for match in _URL_RE.finditer(doc, start, end):
            value = match.group(0).rstrip(_TRAILING_PUNCT)
            host = value.split("://", 1)[-1]
            if host:
                candidates.append(_Candidate(match.start(), match.start() + len(value), IndicatorKind.URL, value))

        for match in _REGISTRY_RE.finditer(doc, start, end):
            value = match.group(0).rstrip(_TRAILING_PUNCT)
            candidates.append(_Candidate(match.start(), match.start() + len(value), IndicatorKind.REGISTRY, value))

        for match in _HEX_RUN_RE.finditer(doc, start, end):
            run = match.group(0)
            if len(run) in _HASH_LENGTHS:
                candidates.append(
                    _Candidate(match.start(), match.end(), _HASH_LENGTHS[len(run)], run.lower())
                )

        for match in _IP_RE.finditer(doc, start, end):
            if is_valid_ip(match.group(0)):
                candidates.append(_Candidate(match.start(), match.end(), IndicatorKind.IP, match.group(0)))

        for kind, pattern in plain:
            for match in pattern.finditer(doc, start, end):
                candidates.append(_Candidate(match.start(), match.end(), kind, match.group(0)))

    return candidates


def extract_indicators(
    doc: str,
    source_id: str,
    extensions: Iterable[str] | None = None,
) -> list[Indicator]:
    """Return all non-overlapping indicators in ``doc``, sorted by position.

    ``doc`` is expected to have passed through :func:`normalize_defanged`,
    alone or in :func:`indicator_runs`.
    Overlaps resolve in favor of the wider span, then the more specific kind:
    a URL swallows its own hostname and any filename in its path, an email
    swallows its domain, and a hash run is claimed by exactly one hash kind.
    """
    candidates = _gather_candidates(doc, extensions or DEFAULT_FILENAME_EXTENSIONS)
    candidates.sort(key=lambda c: (c.start, -(c.end - c.start), _PRIORITY[c.kind]))

    kept: list[_Candidate] = []
    max_end = 0
    for candidate in candidates:
        if candidate.start >= max_end:
            kept.append(candidate)
            max_end = candidate.end
    return [Indicator(c.kind, c.value, source_id, c.start) for c in kept]
