"""Output checks for one pipeline round, computed apart from the program.

Every check compares the program's outputs with the generator's ground truth
(:mod:`corpus`) or with a computation done here from the documented formats
and formulas; none imports ``ctipipe``. Each check returns a list of error
strings, empty when the output is correct.
"""

from __future__ import annotations

import json
import random
import re
from fnmatch import fnmatchcase
from itertools import combinations
from pathlib import Path

from corpus import Corpus, walk

HASH_TYPES = {32: "md5", 40: "sha1", 64: "sha256"}
NAME_LIKE_TYPES = {"hostname", "url", "email", "filename", "pdb", "other"}
PUBLIC_SUFFIXES = {"com", "net", "org"}


def parse_store(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _pairs(document: dict) -> list[tuple[str, str]]:
    return [(a["type"], a["value"]) for a in document["Attribute"]]


def _is_back_link(attribute: dict) -> bool:
    return attribute["type"] == "comment" and attribute["category"] == "Other"


def _limit(errors: list[str], stage: str, limit: int = 5) -> list[str]:
    if len(errors) > limit:
        errors = errors[:limit] + [f"... {len(errors) - limit} more"]
    return [f"{stage}: {e}" for e in errors]


# ingest ---------------------------------------------------------------------

def check_ingest(corpus: Corpus, store: list[dict]) -> list[str]:
    errors = []
    if len(store) != len(corpus.reports):
        errors.append(f"{len(store)} events for {len(corpus.reports)} reports")
    for number, (report, event) in enumerate(zip(corpus.reports, store), start=1):
        if event["id"] != number or event["info"] != report.title or event["date"] != report.date.isoformat():
            errors.append(f"event {event['id']} is not report {report.name}")
        got = set(_pairs(event))
        if got != report.indicators:
            errors.append(
                f"{report.name}: extra {sorted(got - report.indicators)[:3]}, "
                f"missed {sorted(report.indicators - got)[:3]}"
            )
    return _limit(errors, "ingest")


# enrich ---------------------------------------------------------------------

def _malware_pairs(hash_value: str, document: dict | None, origin: str) -> list[tuple[str, str]]:
    """Attribute (type, value) list of the malware event for ``hash_value``,
    in the documented order: filenames, contacted IPs and URLs, own hashes,
    PDB paths, signing serials, mutexes/mappings/strings, back-link."""
    if document is None:
        return [(HASH_TYPES[len(hash_value)], hash_value), ("comment", origin)]
    pairs = [("filename", v) for v in document["filenames"]]
    pairs += [("ip-src", v) for v in document["contacted_ips"]]
    pairs += [("url", v) for v in document["contacted_urls"]]
    pairs += [(HASH_TYPES[len(h)], h) for h in (document["md5"], document["sha1"], document["sha256"]) if h]
    pairs += [("pdb", v) for v in document["pdb_paths"]]
    pairs += [("code-sign", v) for v in document["code_sign_serials"]]
    pairs += [("other", v) for v in document["mutexes"] + document["file_mappings"] + document["strings"]]
    pairs.append(("comment", origin))
    return pairs


class EnrichTruth:
    """Per-report walks and the expected malware events and sidecar."""

    def __init__(self, corpus: Corpus):
        self.events: list[tuple[str, str, list[tuple[str, str]]]] = []
        records: set[str] = set()
        missing: set[str] = set()
        discovered: set[str] = set()
        self.queried: set[str] = set()
        self.seeds: set[str] = set()
        for report in corpus.reports:
            if not report.seeds:
                continue
            result = walk(corpus.docs, report.seeds, corpus.depth)
            self.seeds |= set(report.seeds)
            records |= result.records
            missing |= result.missing
            discovered |= result.discovered
            self.queried |= result.queried
            for hash_value in sorted(result.hashes):
                document = corpus.docs[hash_value] if hash_value in result.records else None
                date = document["compile_timestamp"][:10] if document else report.date.isoformat()
                self.events.append((hash_value, date, _malware_pairs(hash_value, document, report.title)))
        self.records = records
        self.missing = missing - records
        self.discovered = discovered - self.seeds


def check_enrich(corpus: Corpus, truth: EnrichTruth, store: list[dict], sidecar: dict) -> list[str]:
    errors = []
    malware = store[len(corpus.reports):]
    if len(malware) != len(truth.events):
        errors.append(f"{len(malware)} malware events, expected {len(truth.events)}")
    for event, (info, date, pairs) in zip(malware, truth.events):
        if event["info"] != info or event["date"] != date or _pairs(event) != pairs:
            errors.append(f"malware event {event['id']} ({event['info']}) differs from the analysis of {info}")
    ids = [e["id"] for e in store]
    if ids != list(range(1, len(store) + 1)):
        errors.append("event ids are not 1..n in store order")
    attribute_ids = [a["id"] for e in store for a in e["Attribute"]]
    if attribute_ids != sorted(set(attribute_ids)):
        errors.append("attribute ids are not unique and increasing")
    if set(sidecar["records"]) != truth.records:
        errors.append(f"sidecar records: {len(sidecar['records'])}, expected {len(truth.records)}")
    if set(sidecar["missing"]) != truth.missing:
        errors.append(f"sidecar missing: {sorted(sidecar['missing'])[:3]}..., expected {len(truth.missing)}")
    if set(sidecar["discovered"]) != truth.discovered:
        errors.append(f"sidecar discovered: {len(sidecar['discovered'])}, expected {len(truth.discovered)}")
    if sidecar["query_count"] != len(truth.queried):
        errors.append(f"sidecar query_count {sidecar['query_count']}, expected {len(truth.queried)}")
    return _limit(errors, "enrich")


def check_request_log(corpus: Corpus, truth: EnrichTruth, log: list[tuple[str, int]]) -> list[str]:
    """Each queried hash requested once, plus one retry per injected 503, and
    nothing left missing."""
    errors = []
    statuses: dict[str, list[int]] = {}
    for hash_value, status in log:
        statuses.setdefault(hash_value, []).append(status)
    if set(statuses) != truth.queried:
        errors.append(f"stand-in saw {len(statuses)} hashes, expected {len(truth.queried)}")
    for hash_value, seen in statuses.items():
        expected = [503, 200] if hash_value in corpus.fail_first else [200]
        if seen != expected:
            errors.append(f"{hash_value}: statuses {seen}, expected {expected}")
    if truth.missing:
        errors.append(f"{len(truth.missing)} hashes recorded as missing")
    return errors


# filter ---------------------------------------------------------------------

def _denied(corpus: Corpus, data_type: str, value: str) -> bool:
    return any((scope is None or scope == data_type) and fnmatchcase(value.lower(), pattern.lower())
               for scope, pattern in corpus.denylist)


def check_filter(corpus: Corpus, enriched: list[dict], filtered: list[dict]) -> list[str]:
    """Per event: duplicates merged in first-occurrence order, denylisted
    values gone unless protected (back-links; a malware event's own hashes)."""
    errors = []
    if [e["id"] for e in enriched] != [e["id"] for e in filtered]:
        errors.append("filter changed the event ids")
    reports = len(corpus.reports)
    for position, (before, after) in enumerate(zip(enriched, filtered)):
        is_malware = position >= reports
        expected = []
        for pair in dict.fromkeys(_pairs(before)):
            data_type, value = pair
            protected = data_type == "comment" or (is_malware and data_type in HASH_TYPES.values())
            if protected or not _denied(corpus, data_type, value):
                expected.append(pair)
        got = _pairs(after)
        if got != expected:
            errors.append(f"event {after['id']}: attributes {len(got)}, expected {len(expected)}")
        if len(set(got)) != len(got):
            errors.append(f"event {after['id']} repeats a (type, value)")
    return _limit(errors, "filter")


def event_sets(corpus: Corpus, store: list[dict]) -> list[set[tuple[str, str]]]:
    """Distinct (type, value) pairs per report's event set, back-links excluded."""
    by_title = {r.title: index for index, r in enumerate(corpus.reports)}
    sets: list[set[tuple[str, str]]] = [set() for _ in corpus.reports]
    for position, event in enumerate(store):
        if position < len(corpus.reports):
            index = position
        else:
            links = [a["value"] for a in event["Attribute"] if _is_back_link(a)]
            index = by_title[links[0]]
        sets[index].update((a["type"], a["value"]) for a in event["Attribute"] if not _is_back_link(a))
    return sets


def noise_score(sets: list[set[tuple[str, str]]], value: str) -> float:
    """(k / K) * (1 - mean pairwise Jaccard of the k sets holding ``value``,
    with the value removed from each)."""
    holding = [s for s in sets if any(v == value for _, v in s)]
    k = len(holding)
    if k < 2:
        return 0.0
    reduced = [{p for p in s if p[1] != value} for s in holding]
    total = 0.0
    for a, b in combinations(reduced, 2):
        union = len(a | b)
        total += len(a & b) / union if union else 0.0
    return (k / len(sets)) * (1.0 - total / (k * (k - 1) / 2))


def check_noise(corpus: Corpus, filtered: list[dict], stdout: str, seed: int) -> list[str]:
    errors = []
    printed: dict[str, float] = {}
    for line in stdout.splitlines():
        if line.startswith("noise "):
            _, score, value = line.split(" ", 2)
            printed[value] = float(score)
    sets = event_sets(corpus, filtered)
    holders: dict[str, int] = {}
    for pairs in sets:
        for value in {v for _, v in pairs}:
            holders[value] = holders.get(value, 0) + 1
    # A score never exceeds k / K, so only these values can be flagged.
    candidates = [v for v, k in holders.items() if k >= corpus.noise_threshold * len(sets)]
    sample = random.Random(seed).sample(sorted(holders), min(30, len(holders)))
    for value in dict.fromkeys([*corpus.hubs, *printed, *sorted(candidates), *sample]):
        score = noise_score(sets, value)
        flagged = score >= corpus.noise_threshold
        if flagged != (value in printed):
            errors.append(f"{value}: score {score:.4f}, printed as flagged: {value in printed}")
        elif flagged and abs(printed[value] - score) > 0.0006:
            errors.append(f"{value}: printed score {printed[value]}, computed {score:.4f}")
    if not printed and "no values flagged" not in stdout:
        errors.append("no noise lines and no 'no values flagged' line")
    return _limit(errors, "filter noise")


# stats ----------------------------------------------------------------------

_SUMMARY_ROWS = {
    "reports": "reports",
    "data stored": "data",
    "extracted malware hashes": "extracted",
    "analyzed malware": "analyzed",
    "additionally extracted malware": "discovered",
}


def check_stats(corpus: Corpus, truth: EnrichTruth, filtered: list[dict], stdout: str) -> list[str]:
    errors = []
    lines = stdout.splitlines()
    summary = {}
    for line in lines:
        for label, key in _SUMMARY_ROWS.items():
            match = re.fullmatch(rf"{label}\s+(\d+)(?:\s+[\d.]+%)?", line.strip())
            if match:
                summary[key] = int(match.group(1))
    attributes = sum(len(e["Attribute"]) for e in filtered)
    expected = {
        "reports": len(corpus.reports),
        "data": attributes,
        "extracted": len(truth.seeds),
        "analyzed": len(truth.records - truth.discovered),
        "discovered": len(truth.discovered),
    }
    if summary != expected:
        errors.append(f"summary {summary}, expected {expected}")
    header = next((line.split() for line in lines if line.split()[:1] == ["year"]), None)
    total_row = next((line.split() for line in lines if line.split()[:1] == ["total"]), None)
    if header is None or total_row is None or len(header) != len(total_row):
        errors.append("type/year table has no total row")
    else:
        row = dict(zip(header, total_row))
        if int(row["total"]) != attributes:
            errors.append(f"type/year total {row['total']}, store holds {attributes} attributes")
        if int(row["report_events"]) != len(corpus.reports) or int(row["malware_events"]) != len(truth.events):
            errors.append(f"type/year event totals {row['report_events']}/{row['malware_events']}")
    percents = [int(m.group(1)) for m in (re.fullmatch(r"[a-z_]+\s+(\d+)%", l.strip()) for l in lines) if m]
    if len(percents) != 4 or sum(percents) != 100:
        errors.append(f"category percentages {percents} do not total 100")
    return _limit(errors, "stats")


# correlate --------------------------------------------------------------------

def lcs_length(x: str, y: str) -> int:
    """Bit-parallel longest common subsequence (Allison-Dix)."""
    if not x or not y:
        return 0
    masks: dict[str, int] = {}
    for position, char in enumerate(x):
        masks[char] = masks.get(char, 0) | (1 << position)
    full = (1 << len(x)) - 1
    row = full
    for char in y:
        matched = row & masks.get(char, 0)
        row = ((row + matched) | (row - matched)) & full
    return len(x) - bin(row).count("1")


def similarity(x: str, y: str) -> float:
    if not x and not y:
        return 1.0
    return 2.0 * lcs_length(x, y) / (len(x) + len(y))


def canonical(value: str, data_type: str) -> str:
    """Hostnames and URLs: the registrable label (public suffix dropped);
    filenames: basename without extension; else lowercased and trimmed."""
    if data_type in ("hostname", "url"):
        host = value.split("://", 1)[-1].split("/", 1)[0].split("?", 1)[0].rsplit("@", 1)[-1].split(":", 1)[0]
        labels = host.lower().split(".")
        return labels[-2] if len(labels) >= 2 and labels[-1] in PUBLIC_SUFFIXES else ".".join(labels)
    if data_type == "filename":
        base = value.replace("\\", "/").rsplit("/", 1)[-1].lower()
        return base.rsplit(".", 1)[0] if "." in base else base
    return value.strip().lower()


class Adjacency:
    """Event links through identical (type, value) pairs and, with fuzzy on,
    through similar name-like values of one type."""

    def __init__(self, store: list[dict], fuzzy: bool, threshold: float):
        self.values: dict[int, set[tuple[str, str]]] = {}
        self.owners: dict[tuple[str, str], set[int]] = {}
        for event in store:
            pairs = set(_pairs(event))
            self.values[event["id"]] = pairs
            for pair in pairs:
                self.owners.setdefault(pair, set()).add(event["id"])
        self.threshold = threshold
        self.similar: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self.fuzzy_edges = 0
        if fuzzy:
            self._link_similar()

    def _link_similar(self) -> None:
        by_type: dict[str, dict[str, list[str]]] = {}
        for data_type, value in self.owners:
            if data_type in NAME_LIKE_TYPES:
                by_type.setdefault(data_type, {}).setdefault(canonical(value, data_type), []).append(value)
        for data_type, groups in by_type.items():
            names = sorted(groups)
            for i, name_a in enumerate(names):
                for name_b in names[i:]:
                    if name_a != name_b:
                        short, long = sorted((len(name_a), len(name_b)))
                        if 2 * short < self.threshold * (short + long):
                            continue
                        if similarity(name_a, name_b) < self.threshold:
                            continue
                        pairs = [(a, b) for a in groups[name_a] for b in groups[name_b]]
                    else:
                        pairs = list(combinations(groups[name_a], 2))
                    for a, b in pairs:
                        key_a, key_b = (data_type, a), (data_type, b)
                        self.similar.setdefault(key_a, []).append(key_b)
                        self.similar.setdefault(key_b, []).append(key_a)
                        owners_a, owners_b = self.owners[key_a], self.owners[key_b]
                        self.fuzzy_edges += len(owners_a) * len(owners_b) - len(owners_a & owners_b)

    def exact_edges(self) -> int:
        return sum(len(o) * (len(o) - 1) // 2 for o in self.owners.values())

    def linked(self, a: int, b: int) -> bool:
        shared = self.values[a] & self.values[b]
        if shared:
            return True
        return any(other in self.values[b] for pair in self.values[a] for other in self.similar.get(pair, ()))

    def distance(self, start: int, goal: int) -> int | None:
        distance = {start: 0}
        frontier = [start]
        expanded: set[tuple[str, str]] = set()
        while frontier and goal not in distance:
            following = []
            for event in frontier:
                for pair in self.values[event]:
                    if pair in expanded:
                        continue
                    expanded.add(pair)
                    for linked in (pair, *self.similar.get(pair, ())):
                        for other in self.owners[linked]:
                            if other not in distance:
                                distance[other] = distance[event] + 1
                                following.append(other)
            frontier = following
        return distance.get(goal)


def check_correlate(corpus: Corpus, adjacency: Adjacency, filtered: list[dict], graph: dict,
                    stdout: str, seed: int) -> list[str]:
    errors = []
    if [n["id"] for n in graph["nodes"]] != [e["id"] for e in filtered]:
        errors.append("graph nodes are not the store's events")
    exact = [e for e in graph["edges"] if e["kind"] == "exact"]
    fuzzy = [e for e in graph["edges"] if e["kind"] == "fuzzy"]
    if len(exact) != adjacency.exact_edges():
        errors.append(f"{len(exact)} exact edges, expected sum of C(k, 2) = {adjacency.exact_edges()}")
    if len(fuzzy) != adjacency.fuzzy_edges:
        errors.append(f"{len(fuzzy)} fuzzy edges, expected {adjacency.fuzzy_edges}")
    if f"graph: {len(graph['nodes'])} nodes, {len(graph['edges'])} edges" not in stdout:
        errors.append("printed graph size does not match the JSON")
    fuzzy_pairs = {(e["data_type"], frozenset((e["value_a"], e["value_b"]))) for e in fuzzy}
    for data_type, a, b in corpus.near_pairs:
        if (data_type, frozenset((a, b))) not in fuzzy_pairs:
            errors.append(f"planted near duplicates {a} / {b} have no fuzzy edge")
    for edge in random.Random(seed).sample(fuzzy, min(40, len(fuzzy))):
        data_type = edge["data_type"]
        expected = round(similarity(canonical(edge["value_a"], data_type), canonical(edge["value_b"], data_type)), 9)
        if abs(edge["weight"] - expected) > 1e-9:
            errors.append(f"fuzzy edge {edge['value_a']} / {edge['value_b']}: weight {edge['weight']}, expected {expected}")
    return _limit(errors, "correlate")


def check_query(corpus: Corpus, adjacency: Adjacency, a: int, b: int, connected: bool, stdout: str) -> list[str]:
    errors = []
    if a not in adjacency.values or b not in adjacency.values:
        return [f"query: {a} -> {b}: no such events in the store"]
    distance = adjacency.distance(a, b)
    if (distance is not None) != connected:
        errors.append(f"{a} -> {b}: planted as {'connected' if connected else 'unconnected'}, BFS distance {distance}")
    line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if line == f"no path between {a} and {b}":
        if distance is not None:
            errors.append(f"{a} -> {b}: printed no path, BFS distance {distance}")
        return _limit(errors, "query")
    try:
        path = [int(step.split(":", 1)[0]) for step in line.split(" -> ")]
    except ValueError:
        return _limit(errors + [f"{a} -> {b}: unreadable output {line[:80]!r}"], "query")
    if path[0] != a or path[-1] != b:
        errors.append(f"{a} -> {b}: path runs {path[0]} -> {path[-1]}")
    for u, v in zip(path, path[1:]):
        if u not in adjacency.values or v not in adjacency.values or not adjacency.linked(u, v):
            errors.append(f"{a} -> {b}: hop {u} -> {v} shares nothing")
    if distance is None or len(path) - 1 > distance:
        errors.append(f"{a} -> {b}: {len(path) - 1} hops, BFS distance {distance}")
    return _limit(errors, "query")


# export ---------------------------------------------------------------------

def check_export(filtered: list[dict], out_dir: Path) -> list[str]:
    errors = []
    files = sorted(out_dir.glob("*.json"))
    if len(files) != len(filtered):
        errors.append(f"{len(files)} documents for {len(filtered)} events")
    for event in filtered:
        path = out_dir / f"event_{event['id']:05d}.json"
        if not path.is_file():
            errors.append(f"no document for event {event['id']}")
        elif json.loads(path.read_text(encoding="utf-8")) != event:
            errors.append(f"document for event {event['id']} differs from its store line")
    return _limit(errors, "export")
