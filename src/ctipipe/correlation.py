"""Correlate events through shared and similar attribute values.

Exact edges come from plain string matching, the approach commercial
intelligence services take. That misses near-identical infrastructure like
"bartsimpson.com" vs "bsimpson.net", so name-like values also get a fuzzy
pass: a longest-common-subsequence ratio over canonical forms (registrable
domain label, basename without extension, or the lowercased string).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .events import Event, EventSet, distinct_pairs, is_back_link, jaccard

EXACT = "exact"
FUZZY = "fuzzy"

# Types eligible for similarity matching. Hashes, IPs, and CVEs are identities:
# nearly-equal ones are unrelated, so they never fuzzy-match.
NAME_LIKE_TYPES = frozenset({"hostname", "url", "email", "filename", "pdb", "other"})

# Stripped from hostnames and URLs by canonical_name; fixed, not a setting.
DEFAULT_PUBLIC_SUFFIXES = frozenset({"com", "net", "org"})

DEFAULT_FUZZY_THRESHOLD = 0.8


class Edge(NamedTuple):
    """One link between events a < b. The field order is the graph's edge
    order, so a list of edges sorts with a plain ``sort()``."""

    a: int
    b: int
    kind: str
    data_type: str
    value_a: str
    value_b: str
    weight: float


@dataclass
class GraphOptions:
    fuzzy: bool = False
    threshold: float = DEFAULT_FUZZY_THRESHOLD
    cross_set_only: bool = False


@dataclass
class CorrelationGraph:
    nodes: dict[int, tuple[str, str]]  # event id -> (kind, info)
    edges: list[Edge] = field(default_factory=list)


def _match_masks(x: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``x[i] == c``."""
    masks: dict[str, int] = {}
    for i, c in enumerate(x):
        masks[c] = masks.get(c, 0) | 1 << i
    return masks


def _lcs_bits(masks: dict[str, int], n: int, y: str) -> int:
    """LCS length of ``y`` and the length-``n`` string behind ``masks``.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): the zero bits of ``v``
    count the matched positions, so each character of ``y`` costs a few
    operations on an n-bit int instead of a DP row.
    """
    full = (1 << n) - 1
    v = full
    for c in y:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def lcs_length(x: str, y: str) -> int:
    """Longest common subsequence length, bit-parallel over the shorter string."""
    if len(x) > len(y):
        x, y = y, x
    return _lcs_bits(_match_masks(x), len(x), y)


def lcs_ratio(x: str, y: str) -> float:
    """2*LCS / (|x| + |y|); 1.0 exactly when the strings are equal."""
    if not x and not y:
        return 1.0
    return 2.0 * lcs_length(x, y) / (len(x) + len(y))


def _host_of(value: str) -> str:
    host = value.split("://", 1)[-1]
    host = host.split("/", 1)[0].split("?", 1)[0]
    if "@" in host:
        host = host.rsplit("@", 1)[-1]
    return host.split(":", 1)[0]


def canonical_name(value: str, data_type: str) -> str:
    """Canonical form used for similarity.

    Hostnames and URLs reduce to the registrable-domain label with the public
    suffix stripped; filenames to the basename without its extension; anything
    else to the lowercased, trimmed string.
    """
    if data_type in ("hostname", "url"):
        labels = _host_of(value).lower().split(".")
        if len(labels) >= 2 and labels[-1] in DEFAULT_PUBLIC_SUFFIXES:
            return labels[-2]
        return ".".join(labels)
    if data_type == "filename":
        basename = value.replace("\\", "/").rsplit("/", 1)[-1].lower()
        return basename.rsplit(".", 1)[0] if "." in basename else basename
    return value.strip().lower()


def name_similarity(value_a: str, value_b: str, data_type: str) -> float:
    return lcs_ratio(canonical_name(value_a, data_type), canonical_name(value_b, data_type))


def _event_pairs(event: Event, cross_set_only: bool) -> set[tuple[str, str]]:
    return {
        (a.type, a.value)
        for a in event.attributes
        if not (cross_set_only and is_back_link(a))
    }


def _owners(events: list[Event], cross_set_only: bool = False) -> dict[tuple[str, str], dict[int, None]]:
    """The ids of the events holding each (type, value), as dict keys."""
    owners: dict[tuple[str, str], dict[int, None]] = {}
    for event in events:
        for pair in _event_pairs(event, cross_set_only):
            owners.setdefault(pair, {})[event.id] = None
    return owners


def exact_edges(events: list[Event], *, cross_set_only: bool = False) -> list[Edge]:
    """One edge per event pair per identical (type, value).

    With ``cross_set_only`` the back-link comments are skipped: they connect
    an event set's own members, which is already known ground truth.
    """
    edges = []
    for (data_type, value), ids in _owners(events, cross_set_only).items():
        ids = sorted(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                edges.append(Edge(ids[i], ids[j], EXACT, data_type, value, value, 1.0))
    edges.sort()
    return edges


def fuzzy_edges(events: list[Event], threshold: float = DEFAULT_FUZZY_THRESHOLD) -> list[Edge]:
    """Similarity edges between distinct name-like values of the same type.

    Equal values are exact_edges' business and never produce a fuzzy edge,
    so no event pair carries both kinds for the same value pair. Values are
    grouped by canonical form, so each distinct canonical pair is scored
    once; values sharing a canonical form score 1.0.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be within (0, 1], got {threshold}")
    groups: dict[str, dict[str, list[tuple[str, dict[int, None]]]]] = {}
    for (data_type, value), ids in _owners(events).items():
        if data_type not in NAME_LIKE_TYPES:
            continue
        canonical = canonical_name(value, data_type)
        groups.setdefault(data_type, {}).setdefault(canonical, []).append((value, ids))

    edges: list[Edge] = []
    for data_type, by_canonical in groups.items():
        names = sorted(by_canonical, key=len)
        for i, short in enumerate(names):
            group = by_canonical[short]
            for k, member in enumerate(group):
                _link(edges, data_type, [member], group[k + 1:], 1.0)
            n = len(short)
            masks = _match_masks(short)
            for long in names[i + 1:]:
                m = len(long)
                # The ratio with LCS = n, its largest value: once it fails,
                # every longer name fails too.
                if 2.0 * n / (n + m) < threshold:
                    break
                similarity = 2.0 * _lcs_bits(masks, n, long) / (n + m)
                if similarity >= threshold:
                    _link(edges, data_type, group, by_canonical[long], round(similarity, 9))
    edges.sort()
    return edges


def _link(edges: list[Edge], data_type: str, left: list, right: list, weight: float) -> None:
    """One edge per event pair across two lists of (value, owner ids) whose
    values differ; an event is never linked to itself."""
    for value_l, ids_l in left:
        for value_r, ids_r in right:
            for id_l in ids_l:
                for id_r in ids_r:
                    if id_l < id_r:
                        edges.append(Edge(id_l, id_r, FUZZY, data_type, value_l, value_r, weight))
                    elif id_r < id_l:
                        edges.append(Edge(id_r, id_l, FUZZY, data_type, value_r, value_l, weight))


def event_set_similarity(a: EventSet, b: EventSet) -> float:
    """Jaccard index over the distinct (type, value) pairs of two event sets,
    back-links excluded; 0.0 when both sets are empty."""
    return jaccard(distinct_pairs(a), distinct_pairs(b))


def build_graph(events: list[Event], options: GraphOptions | None = None) -> CorrelationGraph:
    options = options or GraphOptions()
    nodes = {event.id: (event.kind, event.info) for event in events}
    edges = exact_edges(events, cross_set_only=options.cross_set_only)
    if options.fuzzy:
        edges.extend(fuzzy_edges(events, options.threshold))
        edges.sort()
    return CorrelationGraph(nodes, edges)


def find_path(graph: CorrelationGraph, start: int, goal: int) -> list[int] | None:
    """Shortest path by hop count; ties prefer the larger minimum edge weight
    along the path, then the smaller node-id sequence. None when disconnected."""
    if start not in graph.nodes:
        raise ValueError(f"unknown event id {start}")
    if goal not in graph.nodes:
        raise ValueError(f"unknown event id {goal}")
    if start == goal:
        return [start]

    weight: dict[tuple[int, int], float] = {}
    adjacency: dict[int, set[int]] = {node: set() for node in graph.nodes}
    for a, b, _, _, _, _, w in graph.edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
        key = (a, b) if a < b else (b, a)
        weight[key] = max(weight.get(key, 0.0), w)

    # Hop distances out from the goal, level by level, until the start.
    distance = {goal: 0}
    levels = [[goal]]
    while levels[-1] and start not in distance:
        levels.append([])
        for node in levels[-2]:
            for neighbor in adjacency[node]:
                if neighbor not in distance:
                    distance[neighbor] = len(levels) - 1
                    levels[-1].append(neighbor)
    if start not in distance:
        return None

    def closer(node: int) -> list[tuple[int, float]]:
        """Neighbors one hop nearer the goal, with the link weight."""
        return [
            (n, weight[(node, n) if node < n else (n, node)])
            for n in adjacency[node]
            if distance.get(n) == distance[node] - 1
        ]

    # reach[v]: the best bottleneck weight from v to the goal over shortest paths.
    reach = {goal: float("inf")}
    for level in levels[1:]:
        for node in level:
            reach[node] = max(min(w, reach[n]) for n, w in closer(node))

    # Step to the smallest id that still keeps the start's best bottleneck.
    path = [start]
    while path[-1] != goal:
        path.append(min(n for n, w in closer(path[-1]) if min(w, reach[n]) >= reach[start]))
    return path


def temporal_timeline(events: list[Event]) -> list[tuple]:
    """(date, event id, kind, info) ascending by date, ties by id. Malware
    events already carry their compile date when the analysis had one."""
    entries = [(e.date, e.id, e.kind, e.info) for e in events]
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(graph: CorrelationGraph) -> str:
    lines = ["graph correlation {"]
    for node_id in sorted(graph.nodes):
        kind, info = graph.nodes[node_id]
        lines.append(f'  {node_id} [label="{_dot_escape(info)}" kind="{kind}"];')
    for edge in graph.edges:
        if edge.kind == EXACT:
            label = f"{edge.data_type}={edge.value_a}"
        else:
            label = f"{edge.data_type}≈{edge.weight:.3f}"
        lines.append(f'  {edge.a} -- {edge.b} [label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: CorrelationGraph) -> dict:
    return {
        "nodes": [
            {"id": node_id, "kind": kind, "info": info}
            for node_id, (kind, info) in sorted(graph.nodes.items())
        ],
        "edges": [dict(zip(Edge._fields, edge)) for edge in graph.edges],
    }
