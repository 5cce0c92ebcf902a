"""Extract typed indicators of compromise from security-report text.

Reports conventionally defang indicators (hxxp, "[.]", "[at]") to keep them
non-clickable; :func:`normalize_defanged` reverses that before the pattern
grammar in :func:`extract_indicators` runs. The grammar is deliberately fixed
so the same text always yields the same indicator list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence


class IndicatorKind(str, Enum):
    """Indicator types the parser recognizes; values are the stored tokens."""

    MD5 = "md5"
    SHA1 = "sha1"
    SHA256 = "sha256"
    IP = "ip"
    URL = "url"
    HOSTNAME = "hostname"
    EMAIL = "email"
    CVE = "cve"
    REGISTRY = "registry"
    FILENAME = "filename"
    PDB = "pdb"


@dataclass(frozen=True)
class Indicator:
    """One extracted observable with its position in the normalized text."""

    kind: IndicatorKind
    value: str
    source_id: str
    offset: int


# Applied in order; the scheme entries are matched case-insensitively, the
# bracket entries literally. Extendable through the pipeline config.
DEFANG_TABLE: tuple[tuple[str, str], ...] = (
    ("hxxp", "http"),
    ("hxxps", "https"),
    ("[.]", "."),
    ("(.)", "."),
    ("{.}", "."),
    ("[dot]", "."),
    ("[at]", "@"),
    ("[@]", "@"),
)

_SCHEME_DEFANGS = {"hxxp", "hxxps"}

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
_IP_RE = re.compile(r"(?<!\d)(?<!\d\.)\d{1,3}(?:\.\d{1,3}){3}(?!\d)(?!\.\d)")
_CVE_RE = re.compile(r"\bCVE-\d{4}-\d{4,}\b")
_REGISTRY_RE = re.compile(r"\b(?:HKLM|HKCU|HKCR|HKU|HKEY_[A-Za-z_]+)\\[^\s\"'<>|]+")
_PDB_RE = re.compile(r"[^\s\"'<>|]+\.pdb\b", re.IGNORECASE)

_TRAILING_PUNCT = ".,;:!?)]}\"'"

# No pattern above, nor a filename extension, matches whitespace, and every
# match holds a trigger: one of ". @ \ : -" followed by a non-whitespace
# character, or 32 hex digits. So the patterns scan only the whitespace-
# delimited runs that hold a trigger, through finditer's pos and endpos,
# which keep offsets and lookbehinds on the whole text.
_TRIGGER_RE = re.compile(r"[.@\\:\-](?=\S)|[0-9A-Fa-f]{32}")
_RUN_END_RE = re.compile(r"\S*")

# When spans collide the more specific kind wins; lower index = higher priority.
_PRIORITY = {
    IndicatorKind.URL: 0,
    IndicatorKind.EMAIL: 1,
    IndicatorKind.REGISTRY: 2,
    IndicatorKind.PDB: 3,
    IndicatorKind.SHA256: 4,
    IndicatorKind.SHA1: 5,
    IndicatorKind.MD5: 6,
    IndicatorKind.CVE: 7,
    IndicatorKind.IP: 8,
    IndicatorKind.FILENAME: 9,
    IndicatorKind.HOSTNAME: 10,
}

_filename_re_cache: dict[tuple[str, ...], re.Pattern[str]] = {}

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
            if pattern.lower() in _SCHEME_DEFANGS:
                # re.IGNORECASE matches a character to h, x, p or s only where
                # it casefolds to that letter, so without the pattern in the
                # casefolded text there is nothing to replace.
                if pattern.lower() in text.casefold():
                    text = re.sub(re.escape(pattern), replacement, text, flags=re.IGNORECASE)
            else:
                text = text.replace(pattern, replacement)
        if text == previous:
            break
    return text


def classify_hash(value: str) -> IndicatorKind:
    """Map a hex digest onto md5/sha1/sha256 by its length."""
    if not _HEX_RE.fullmatch(value):
        raise ValueError(f"not a hexadecimal string: {value!r}")
    kind = _HASH_LENGTHS.get(len(value))
    if kind is None:
        raise ValueError(f"not a supported hash length: {len(value)}")
    return kind


def is_valid_hash(value: str) -> bool:
    try:
        classify_hash(value)
    except ValueError:
        return False
    return True


def is_valid_ip(value: str) -> bool:
    """Four dot-separated decimal octets, each 0-255."""
    parts = value.split(".")
    if len(parts) != 4:
        return False
    for part in parts:
        if not part.isdigit() or int(part) > 255:
            return False
    return True


def looks_like_hostname(value: str) -> bool:
    return bool(_HOSTNAME_RE.fullmatch(value))


def _filename_pattern(extensions: Iterable[str]) -> re.Pattern[str]:
    """The filename pattern for ``extensions``; ValueError if one holds
    whitespace, which no indicator may span."""
    key = tuple(sorted(set(ext.lower().lstrip(".") for ext in extensions)))
    pattern = _filename_re_cache.get(key)
    if pattern is None:
        for ext in key:
            if any(ch.isspace() for ch in ext):
                raise ValueError(f"filename extension {ext!r} contains whitespace")
        alternatives = "|".join(re.escape(ext) for ext in key)
        pattern = re.compile(rf"\b[\w.\-]+\.(?:{alternatives})\b", re.IGNORECASE)
        _filename_re_cache[key] = pattern
    return pattern


@dataclass(frozen=True)
class _Candidate:
    start: int
    end: int
    kind: IndicatorKind
    value: str


def _windows(doc: str) -> Iterator[tuple[int, int]]:
    """``(start, end)`` of each whitespace-delimited run of ``doc`` that holds
    a trigger, in order."""
    end = 0
    while (trigger := _TRIGGER_RE.search(doc, end)) is not None:
        start = trigger.start()
        while start > end and not doc[start - 1].isspace():
            start -= 1
        end = _RUN_END_RE.match(doc, trigger.end()).end()
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
    candidates: list[_Candidate] = []
    for start, end in _windows(doc):
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

    ``doc`` is expected to have passed through :func:`normalize_defanged`.
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

    kept.sort(key=lambda c: (c.start, c.kind.value))
    return [Indicator(c.kind, c.value, source_id, c.start) for c in kept]
