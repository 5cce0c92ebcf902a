"""Merge redundant attributes and flag noise.

Two cheap filters run per event (exact duplicate merge, denylist of values the
operating system generates on its own), plus a dataset-wide heuristic: a value
that appears across several event sets which otherwise have little in common
is noise with high probability, because keeping it would correlate unrelated
incidents. Flagging is advisory; removal is the operator's call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from itertools import chain, combinations
from pathlib import Path

from .config import ConfigError
from .events import (
    ATTRIBUTE_TYPES,
    Attribute,
    Event,
    EventSet,
    HASH_TYPES,
    MALWARE,
    value_holders,
)


class DenylistError(ConfigError):
    """Raised at load time for a denylist file that cannot be read or holds
    a malformed pattern: the denylist is part of the configuration, so the
    CLI reports it as a config error."""


@dataclass(frozen=True)
class DenyRule:
    pattern: str
    type_scope: str | None = None


# Files the OS produces regardless of what the malware intended.
DEFAULT_DENYLIST: tuple[DenyRule, ...] = (
    DenyRule("desktop.ini"),
    DenyRule("thumbs.db"),
    DenyRule("pagefile.sys"),
    DenyRule("hiberfil.sys"),
    DenyRule("ntuser.dat*"),
    DenyRule("kernel32.dll", "filename"),
    DenyRule("ntdll.dll", "filename"),
    DenyRule("user32.dll", "filename"),
    DenyRule("advapi32.dll", "filename"),
    DenyRule("msvcrt.dll", "filename"),
)


def parse_denylist(lines: list[str]) -> list[DenyRule]:
    """One pattern per line, optional "type:" scope prefix, "#" comments."""
    rules = []
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        scope = None
        pattern = line
        if ":" in line:
            prefix, rest = line.split(":", 1)
            prefix, rest = prefix.strip(), rest.strip()
            if prefix in ATTRIBUTE_TYPES:
                scope, pattern = prefix, rest
        if not pattern:
            raise DenylistError(f"line {number}: empty pattern")
        rules.append(DenyRule(pattern, scope))
    return rules


def load_denylist(path: str | Path) -> list[DenyRule]:
    """The rules of a denylist file; an unreadable or malformed file is a
    :class:`DenylistError` that names it."""
    try:
        return parse_denylist(Path(path).read_text(encoding="utf-8").splitlines())
    except OSError as exc:
        raise DenylistError(f"cannot read denylist {path}: {exc.strerror or exc}") from exc
    except DenylistError as exc:
        raise DenylistError(f"{path}: {exc}") from exc


def dedup_attributes(event: Event) -> Event:
    """Merge attributes equal on (type, value), keeping the first occurrence's
    position and id and joining distinct non-empty comments with "; ". An
    attribute whose comment the join leaves as it is is kept, not copied.

    Duplicates across different events are deliberately left alone: shared
    values are the correlation signal.
    """
    merged: dict[tuple[str, str], tuple[Attribute, list[str]]] = {}
    for attribute in event.attributes:
        key = (attribute.type, attribute.value)
        if key not in merged:
            merged[key] = (attribute, [])
        comments = merged[key][1]
        if attribute.comment and attribute.comment not in comments:
            comments.append(attribute.comment)
    attributes = []
    for attribute, comments in merged.values():
        comment = "; ".join(comments)
        attributes.append(attribute if comment == attribute.comment else replace(attribute, comment=comment))
    return replace(event, attributes=attributes)


def _protected(event: Event, attribute) -> bool:
    # Back-links carry the event-set ground truth; a malware event's own
    # hashes are its identity. Neither may be filtered away.
    if attribute.type == "comment":
        return True
    return event.kind == MALWARE and attribute.type in HASH_TYPES


def apply_denylist(event: Event, denylist: list[DenyRule]) -> Event:
    """Drop the unprotected attributes some rule matches: the rule is
    unscoped or scoped to the attribute's type, and its glob matches the
    value, case-insensitively. Each pattern and each value is lowercased
    once, not once per (attribute, rule) pair."""
    rules = [(rule.type_scope, rule.pattern.lower()) for rule in denylist]
    kept = []
    for a in event.attributes:
        if not _protected(event, a):
            value = a.value.lower()
            if any((scope is None or a.type == scope) and fnmatchcase(value, pattern) for scope, pattern in rules):
                continue
        kept.append(a)
    return replace(event, attributes=kept)


def drop_values(event: Event, values: set[str]) -> Event:
    """Remove attributes whose value was flagged, honoring the same
    protections as the denylist."""
    kept = [a for a in event.attributes if _protected(event, a) or a.value not in values]
    return replace(event, attributes=kept)


@dataclass
class NoiseReport:
    scores: dict[str, float]
    threshold: float
    flagged: set[str]


def contextual_noise_scores(dataset: list[EventSet], threshold: float = 0.7) -> NoiseReport:
    """Score every attribute value by how much it looks like cross-set noise.

    For a value present in k of K event sets, the score is
    (k / K) * (1 - mean pairwise Jaccard similarity of those sets with the
    value itself excluded). A value shared by many mutually dissimilar sets
    scores near 1; a value confined to a single set scores 0.

    Each set pair's Jaccard comes from counts, not from rebuilt sets: with
    the value's pairs removed, |A'∩B'| = |A∩B| - t and |A'∪B'| =
    (|A| - m_A) + (|B| - m_B) - |A'∩B'|, where t counts the (type, value)
    pairs both sets hold and m_X those set X holds. |A∩B| is counted once
    for every set pair sharing a (type, value), so each pair costs O(1).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be within (0, 1], got {threshold}")
    if len(dataset) < 2:
        raise ValueError("need at least two event sets to score noise")

    total = len(dataset)
    holders = value_holders(enumerate([event_set.report_event, *event_set.malware_events] for event_set in dataset))
    held_pairs = Counter(chain.from_iterable(holders.values()))
    sizes = [held_pairs[i] for i in range(total)]  # |X|, the pairs set X holds
    shared = [0] * (total * total)  # |A∩B| of sets i < j at i * total + j
    by_value: dict[str, list[list[int]]] = {}
    for (_, value), indices in holders.items():
        by_value.setdefault(value, []).append(indices)
        for i, j in combinations(indices, 2):
            shared[i * total + j] += 1

    scores: dict[str, float] = {}
    for value, owner_lists in by_value.items():
        held = Counter(i for owners in owner_lists for i in owners)  # m_X
        indices = sorted(held)
        k = len(indices)
        if k < 2:
            scores[value] = 0.0
            continue
        # t per set pair; 1 for every pair when the value has a single type.
        both = None
        if len(owner_lists) > 1:
            both = Counter(pair for owners in owner_lists for pair in combinations(owners, 2))
        similarities = []
        for i, j in combinations(indices, 2):
            common = shared[i * total + j] - (1 if both is None else both[i, j])
            union = sizes[i] - held[i] + sizes[j] - held[j] - common
            similarities.append(common / union if union else 0.0)
        mean_similarity = sum(similarities) / len(similarities)
        scores[value] = (k / total) * (1.0 - mean_similarity)

    flagged = {value for value, score in scores.items() if score >= threshold}
    return NoiseReport(scores, threshold, flagged)
