"""Correlate events through shared and similar attribute values.

Exact edges come from plain string matching, the approach commercial
intelligence services take. That misses near-identical infrastructure like
"bartsimpson.com" vs "bsimpson.net", so name-like values also get a fuzzy
pass: a longest-common-subsequence ratio over canonical forms (registrable
domain label, basename without extension, or the lowercased string).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import groupby
from json.encoder import encode_basestring_ascii as _json_string
from math import comb
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

from .events import NAME_LIKE_TYPES, Event, value_holders

EXACT = "exact"
FUZZY = "fuzzy"

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


class GraphOptions(NamedTuple):
    fuzzy: bool = False
    threshold: float = DEFAULT_FUZZY_THRESHOLD
    cross_set_only: bool = False


class Link(NamedTuple):
    """Every event pair that one value, or one similar value pair, links.

    ``left`` and ``right`` are ascending tuples of distinct event ids. An
    exact link is a clique: each two of ``left`` share ``value_left``;
    ``right`` is the same tuple and ``value_right`` the same value. A fuzzy
    link is a biclique: each event of ``left``, which holds ``value_left``,
    to each other event of ``right``, which holds ``value_right``."""

    kind: str
    data_type: str
    value_left: str
    left: tuple[int, ...]
    value_right: str
    right: tuple[int, ...]
    weight: float


class CorrelationGraph:
    """Events as nodes, joined through the values they share or resemble.
    ``holders`` maps each (type, value) to the ascending ids of the events
    holding it, as :func:`value_holders` orders it, back-links counted
    unless ``options.cross_set_only``; it may leave out a value held once,
    unless the value is name-like. ``links``, one per shared value and one
    per similar value pair, and ``sides``, their index by event, are built
    from it on first use. Path search reads them; :meth:`rows` streams the
    edges from them as ints, which :meth:`edges` and the writers decode
    through ``ranked_sides``."""

    def __init__(
        self,
        nodes: dict[int, tuple[str, str]],  # event id -> (kind, info)
        holders: Mapping[tuple[str, str], Sequence[int]] = MappingProxyType({}),
        options: GraphOptions = GraphOptions(),
    ):
        self.nodes = nodes
        self.holders = holders
        self.options = options

    @cached_property
    def links(self) -> list[Link]:
        # Back-links are never name-like, so cross_set_only leaves the
        # similar pairs as they are.
        # tuple.__new__ is what Link._make does, without a Python-level call.
        links = [tuple.__new__(Link, (EXACT, data_type, value, (ids := tuple(keys)), value, ids, 1.0))
                 for (data_type, value), keys in self.holders.items() if len(keys) > 1]
        if self.options.fuzzy:
            links += _similar_values(self.holders, self.options.threshold)
        return links

    @cached_property
    def sides(self) -> dict[int, list[int]]:
        """The sides each event is on, ascending: side 2i is ``links[i].left``
        and 2i + 1 ``links[i].right``. An exact link's events are on side 2i
        only, which faces itself; a fuzzy link's two sides face each other."""
        on: dict[int, list[int]] = {}
        for i, (kind, _, _, left, _, right, _) in enumerate(self.links):
            for node in left:
                on.setdefault(node, []).append(2 * i)
            if kind == FUZZY:
                for node in right:
                    on.setdefault(node, []).append(2 * i + 1)
        return on

    @cached_property
    def ranked_sides(self) -> list[tuple[str, str, str, str, float, int]]:
        """Every side that gives one of its events an edge to a larger id, as
        the fields after ``a`` and ``b`` of the edges from it, ``(kind,
        data_type, value_a, value_b, weight)`` (a fuzzy link's values swapped
        on its right side), then the side. Sorted: a side's place here is its
        rank, and equal fields keep the side order."""
        ranked = []
        for i, (kind, data_type, value_l, left, value_r, right, weight) in enumerate(self.links):
            if left[0] < right[-1]:
                ranked.append((kind, data_type, value_l, value_r, weight, 2 * i))
            if kind == FUZZY and right[0] < left[-1]:
                ranked.append((kind, data_type, value_r, value_l, weight, 2 * i + 1))
        ranked.sort()
        return ranked

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """Each event ``a`` with an edge to a larger id, ascending, and its
        row: one int ``b * n + rank`` per edge (a, b), where ``n`` is
        ``len(ranked_sides)`` and ``rank`` that of the side of ``a`` the edge
        comes from. Each row is sorted, which is the :class:`Edge` order.

        A ranked side's codes, one per event of the side it faces, are made
        once; ``a``'s part of them is the ascending suffix after ``a``."""
        links, on, ranked = self.links, self.sides, self.ranked_sides
        n = len(ranked)
        coded: list[list[int]] = [[]] * (2 * len(links))
        for rank, (*_, side) in enumerate(ranked):
            link = links[side >> 1]
            coded[side] = [b * n + rank for b in (link.left if side & 1 else link.right)]
        for a in sorted(on):
            first = (a + 1) * n  # the least code of a b > a
            row: list[int] = []
            for side in on[a]:
                codes = coded[side]
                row += codes[bisect_left(codes, first):]
            if row:
                row.sort()
                yield a, row

    def edges(self) -> Iterator[Edge]:
        """Every linked event pair as an edge a < b, decoded from
        :meth:`rows` in their order."""
        n = len(self.ranked_sides)
        fields = [ranked[:5] for ranked in self.ranked_sides]
        for a, row in self.rows():
            for code in row:
                b, rank = divmod(code, n)
                yield Edge(a, b, *fields[rank])

    def edge_count(self) -> int:
        """The number of edges :meth:`edges` yields, counted from the links:
        a fuzzy link's pairs less those of an event with itself."""
        return sum(
            comb(len(left), 2) if kind == EXACT
            else left != right if len(left) == len(right) == 1
            else len(left) * len(right) - len(set(left).intersection(right))
            for kind, _, _, left, _, right, _ in self.links
        )


def _match_masks(x: str) -> dict[str, int]:
    """Bit i of ``masks[c]`` is set where ``x[i] == c``."""
    masks: dict[str, int] = {}
    for i, c in enumerate(x):
        masks[c] = masks.get(c, 0) | 1 << i
    return masks


def lcs_length(x: str, y: str) -> int:
    """Longest common subsequence length: the shorter string in one :class:`_Lanes` lane."""
    if len(x) > len(y):
        x, y = y, x
    return len(x) - _Lanes([x]).unmatched(y, -1)


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


def exact_edges(events: list[Event], *, cross_set_only: bool = False) -> list[Edge]:
    """One edge per event pair per identical (type, value).

    With ``cross_set_only`` the back-link comments are skipped: they connect
    an event set's own members, which is already known ground truth.
    """
    return list(build_graph(events, GraphOptions(cross_set_only=cross_set_only)).edges())


def fuzzy_edges(events: list[Event], threshold: float = DEFAULT_FUZZY_THRESHOLD) -> list[Edge]:
    """Similarity edges between distinct name-like values of the same type, one
    per event pair across each pair of :func:`_similar_values`, none to itself."""
    graph = CorrelationGraph({})
    graph.links = _similar_values(value_holders((e.id, (e,)) for e in events), threshold)
    return list(graph.edges())


def _similar_values(owners: Mapping[tuple[str, str], Sequence[int]], threshold: float) -> list[Link]:
    """One fuzzy link for each pair of distinct name-like values of one type
    whose similarity reaches ``threshold``, weight rounded to 9 places.

    Equal values are exact matches and never pair here, so no event pair
    is linked both exactly and fuzzily through the same values. Values are grouped by
    canonical form, so each distinct canonical pair is scored once; values
    sharing a canonical form score 1.0. Each form is scored against the
    longer ones its cut-off reaches with one pass per :class:`_Lanes` class.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be within (0, 1], got {threshold}")
    groups: dict[str, dict[str, list[tuple[str, tuple[int, ...]]]]] = {}
    for (data_type, value), ids in owners.items():
        if data_type not in NAME_LIKE_TYPES:
            continue
        canonical = canonical_name(value, data_type)
        groups.setdefault(data_type, {}).setdefault(canonical, []).append((value, tuple(ids)))

    similar = []
    for data_type, by_canonical in groups.items():
        names = sorted(by_canonical, key=len)
        classes, first = [], 0
        for _, same in groupby(names, _lane_width):
            classes.append(_Lanes(list(same), first))
            first += len(classes[-1].names)
        stop = 0
        for i, short in enumerate(names):
            group = by_canonical[short]
            for k, (value_l, ids_l) in enumerate(group):
                for value_r, ids_r in group[k + 1:]:
                    similar.append(tuple.__new__(Link, (FUZZY, data_type, value_l, ids_l, value_r, ids_r, 1.0)))
            n = len(short)
            # Score the names after this one up to the first that fails even
            # with LCS = n, its largest value: every longer name fails too.
            # As n grows, that first failing name can only move on.
            stop = max(stop, i + 1)
            while stop < len(names) and 2.0 * n / (n + len(names[stop])) >= threshold:
                stop += 1
            for lanes in classes:
                start, end = max(i + 1 - lanes.first, 0), min(stop - lanes.first, len(lanes.names))
                if start >= end:
                    continue
                for long, lcs in lanes.passing(short, start, end, threshold):
                    weight = round(2.0 * lcs / (n + len(long)), 9)
                    for value_l, ids_l in group:
                        for value_r, ids_r in by_canonical[long]:
                            similar.append(tuple.__new__(
                                Link, (FUZZY, data_type, value_l, ids_l, value_r, ids_r, weight)))
    return similar


def _lane_width(name: str) -> int:
    """The least power of two, 8 or more, above the name's length."""
    return max(8, 1 << len(name).bit_length())


class _Lanes:
    """Names of one :func:`_lane_width`, ``first`` on in their type's order,
    in the bit fields, lanes, of one int: name k from bit ``k * width``,
    below its lane's top bit. ``masks[c]`` sets the bits where a name holds
    ``c``; ``lengths[m]`` bit 0 of each lane of a name of length m. The LCS
    with every lane is one bit-parallel scan of a text (Allison & Dix 1986;
    Hyyrö 2004; Hyyrö, Fredriksson & Navarro 2005), and the threshold test
    of every lane a few whole-int operations, so passing lanes alone cost
    Python work of their own."""

    def __init__(self, names: list[str], first: int = 0):
        self.names, self.first = names, first
        self.width = width = _lane_width(names[-1])
        self.masks: dict[str, int] = {}
        self.lengths: dict[int, int] = {}
        for k, name in enumerate(names):
            offset = k * width
            for c, mask in _match_masks(name).items():
                self.masks[c] = self.masks.get(c, 0) | mask << offset
            self.lengths[len(name)] = self.lengths.get(len(name), 0) | 1 << offset
        self.full = sum(((1 << m) - 1) * ones for m, ones in self.lengths.items())
        every = (1 << len(names) * width) - 1
        # Adding neighbouring fields of 1, 2, ..., width / 2 bits counts each lane's bits.
        self.counters = [(shift, every // ((1 << 2 * shift) - 1) * ((1 << shift) - 1))
                         for shift in (1 << j for j in range(width.bit_length() - 1))]
        self.tops = every // ((1 << width) - 1) << (width - 1)
        self._biases: dict[tuple[int, float], int] = {}

    def unmatched(self, text: str, span: int) -> int:
        """Each lane with a bit in ``span`` holding, in its low bits, how many
        characters of its name an LCS with ``text`` leaves unmatched; other
        lanes 0. Lanes never mix: a sum carries at most into a lane's top bit,
        which ``full`` clears, ``v - u`` never borrows, as ``u`` is a subset
        of ``v``, and each field of the count lies within one lane."""
        full = v = self.full & span
        masks = self.masks
        for c in text:
            u = v & masks.get(c, 0)
            v = ((v + u) | (v - u)) & full
        for shift, mask in self.counters:
            v = (v & mask) + ((v >> shift) & mask)
        return v

    def passing(self, text: str, start: int, stop: int, threshold: float) -> Iterator[tuple[str, int]]:
        """Each name of lanes ``start`` to ``stop - 1``, none shorter than
        ``text``, whose LCS with it passes ``2.0 * lcs / (n + m) >=
        threshold``, with that LCS, in lane order. A lane of the bias holds
        2^(width - 1) plus m less the least passing LCS, so it keeps its top
        bit after the subtraction of its count exactly when it passes."""
        width, n = self.width, len(text)
        bias = self._biases.get((n, threshold))
        if bias is None:
            # The least passing LCS, from just below its estimate, by the float test itself.
            least = {m: next(lcs for lcs in range(max(int(threshold * (n + m) / 2) - 1, 0), m + 1)
                             if 2.0 * lcs / (n + m) >= threshold) for m in self.lengths if m >= n}
            bias = self._biases[n, threshold] = sum(
                ((1 << (width - 1)) + m - least[m]) * self.lengths[m] for m in least)
        span = (1 << stop * width) - (1 << start * width)
        counts = self.unmatched(text, span)
        passed = (bias - counts) & self.tops & span
        if passed:
            step, size = width // 8, stop * width // 8
            flags = (passed >> (width - 1)).to_bytes(size, "little")
            counted = counts.to_bytes(size, "little")
            at = flags.find(1, start * step)
            while at >= 0:
                name = self.names[at // step]
                yield name, len(name) - int.from_bytes(counted[at:at + step], "little")
                at = flags.find(1, at + step)


def build_graph(events: list[Event], options: GraphOptions | None = None) -> CorrelationGraph:
    """The graph of ``events``; its links and edges are built when first read."""
    options = options or GraphOptions()
    nodes = {event.id: (event.kind, event.info) for event in events}
    holders = value_holders(((event.id, (event,)) for event in events), not options.cross_set_only)
    return CorrelationGraph(nodes, holders, options)


def find_path(graph: CorrelationGraph, start: int, goal: int) -> list[int] | None:
    """Shortest path by hop count; ties prefer the larger minimum edge weight
    along the path, then the smaller node-id sequence. None when disconnected.

    The search runs over the graph's link sides, not its edges: a node
    reaches every event of the side facing each side it is on (the same side
    for an exact link), itself excepted.
    """
    if start not in graph.nodes:
        raise ValueError(f"unknown event id {start}")
    if goal not in graph.nodes:
        raise ValueError(f"unknown event id {goal}")
    if start == goal:
        return [start]

    links, on = graph.links, graph.sides

    def facing(side: int) -> int:
        return side if links[side >> 1].kind == EXACT else side ^ 1

    def members(side: int) -> tuple[int, ...]:
        link = links[side >> 1]
        return link.right if side & 1 else link.left

    # Hop distances out from the goal, level by level, until the start; the
    # first node on side s, at level nearest[s], expands the side s faces.
    distance = {goal: 0}
    levels = [[goal]]
    nearest: dict[int, int] = {}
    while levels[-1] and start not in distance:
        hops = len(levels)
        level: list[int] = []
        for node in levels[-1]:
            for side in on.get(node, ()):
                if side not in nearest:
                    nearest[side] = hops - 1
                    for neighbor in members(facing(side)):
                        if neighbor not in distance:
                            distance[neighbor] = hops
                            level.append(neighbor)
        levels.append(level)
    if start not in distance:
        return None

    # reach[v]: the best bottleneck weight from v to the goal over shortest
    # paths, needed on the start's level for the start alone; best[s], the
    # best reach of side s's events at level nearest[s], serves the next level.
    reach = {goal: float("inf")}
    best: dict[int, float] = {}
    for hops, level in enumerate([*levels[:-1], [start]]):
        for node in level:
            if hops:
                reach[node] = max(
                    min(links[side >> 1].weight, best[facing(side)])
                    for side in on[node]
                    if nearest.get(facing(side)) == hops - 1
                )
            for side in on[node]:
                if nearest.get(side) == hops:
                    best[side] = max(best.get(side, 0.0), reach[node])

    # Step to the smallest id that still keeps the start's best bottleneck.
    target = reach[start]
    path = [start]
    while path[-1] != goal:
        hops = distance[path[-1]] - 1
        path.append(min(
            neighbor
            for side in on[path[-1]]
            if links[side >> 1].weight >= target and nearest.get(facing(side)) == hops
            for neighbor in members(facing(side))
            if distance.get(neighbor) == hops and reach[neighbor] >= target
        ))
    return path


def temporal_timeline(events: list[Event]) -> list[tuple]:
    """(date, event id, kind, info) ascending by date, ties by id. Malware
    events already carry their compile date when the analysis had one."""
    entries = [(e.date, e.id, e.kind, e.info) for e in events]
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    return entries


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(graph: CorrelationGraph) -> Iterator[str]:
    """The graph in DOT, one node per chunk and one event's row of edges
    per chunk."""
    yield "graph correlation {\n"
    for node_id in sorted(graph.nodes):
        kind, info = graph.nodes[node_id]
        yield f'  {node_id} [label="{_dot_escape(info)}" kind="{kind}"];\n'

    labels = [
        f"{data_type}={value_a}" if kind == EXACT else f"{data_type}≈{weight:.3f}"
        for kind, data_type, value_a, _, weight, _ in graph.ranked_sides
    ]
    labels = [f' [label="{_dot_escape(label)}"];\n' for label in labels]
    n = len(labels)
    for a, row in graph.rows():
        yield "".join([f"  {a} -- {code // n}{labels[code % n]}" for code in row])
    yield "}\n"


def graph_to_json(graph: CorrelationGraph) -> Iterator[str]:
    """The graph as ``json.dumps(..., indent=2) + "\\n"`` of ``{"nodes":
    [{id, kind, info}], "edges": [Edge fields]}``, byte for byte, one node or
    one event's row of edges per chunk, so no dict per edge and no whole
    document is held. Strings are escaped as ``json.dumps`` escapes them
    (ASCII only) and numbers written with ``repr``, as ``json.dumps`` writes
    them. Everything of an edge after its ``b`` is its side's, encoded once."""
    yield '{\n  "nodes": ['
    separator = "\n"
    for node_id, (kind, info) in sorted(graph.nodes.items()):
        yield (
            f'{separator}    {{\n      "id": {node_id!r},\n      "kind": {_json_string(kind)},'
            f'\n      "info": {_json_string(info)}\n    }}'
        )
        separator = ",\n"
    yield '],\n  "edges": [' if separator == "\n" else '\n  ],\n  "edges": ['

    tails = [
        f',\n      "kind": {_json_string(kind)},\n      "data_type": {_json_string(data_type)},'
        f'\n      "value_a": {_json_string(value_a)},\n      "value_b": {_json_string(value_b)},'
        f'\n      "weight": {weight!r}\n    }}'
        for kind, data_type, value_a, value_b, weight, _ in graph.ranked_sides
    ]
    n = len(tails)
    separator = "\n"
    for a, row in graph.rows():
        head = f'    {{\n      "a": {a!r},\n      "b": '
        yield separator + head + (",\n" + head).join([f"{code // n}{tails[code % n]}" for code in row])
        separator = ",\n"
    yield "]\n}\n" if separator == "\n" else "\n  ]\n}\n"
