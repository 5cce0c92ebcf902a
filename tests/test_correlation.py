import datetime as dt
import itertools
import json
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctipipe.correlation as correlation
from ctipipe.correlation import (
    EXACT,
    FUZZY,
    CorrelationGraph,
    Edge,
    GraphOptions,
    Link,
    build_graph,
    canonical_name,
    exact_edges,
    find_path,
    fuzzy_edges,
    graph_to_dot,
    graph_to_json,
    lcs_length,
    lcs_ratio,
    name_similarity,
    temporal_timeline,
)
from ctipipe.events import NAME_LIKE_TYPES, Attribute, Event, EventSet, MALWARE, REPORT
from ctipipe.store import atomic_write, load_all

from conftest import DATA_DIR, random_event
from test_filtering import distinct_pairs, jaccard

DATE = dt.date(2017, 1, 1)


def event(event_id, pairs, kind=REPORT, info=None, date=DATE):
    attributes = [Attribute("Other", "", value, type_token) for type_token, value in pairs]
    return Event(event_id, date, info or f"e{event_id}.pdf", kind, attributes)


def oracle_lcs(x, y):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if x[i - 1] == y[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(x), len(y))


def dp_lcs(x, y):
    """Two-row DP, the reference for the bit-parallel lcs_length."""
    if not x or not y:
        return 0
    previous = [0] * (len(y) + 1)
    for cx in x:
        current = [0]
        for j, cy in enumerate(y, start=1):
            if cx == cy:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(current[j - 1], previous[j]))
        previous = current
    return previous[-1]


def pairwise_fuzzy_edges(events, threshold):
    """Every pair of (value, event id) entries scored with the DP LCS: the
    reference for fuzzy_edges."""
    by_type = {}
    for ev in events:
        for attribute in ev.attributes:
            if attribute.type in NAME_LIKE_TYPES:
                bucket = by_type.setdefault(attribute.type, [])
                if (attribute.value, ev.id) not in bucket:
                    bucket.append((attribute.value, ev.id))
    edges = set()
    for data_type, entries in by_type.items():
        for i, (value_i, id_i) in enumerate(entries):
            for value_j, id_j in entries[i + 1:]:
                if id_i == id_j or value_i == value_j:
                    continue
                x = canonical_name(value_i, data_type)
                y = canonical_name(value_j, data_type)
                similarity = 1.0 if not x and not y else 2.0 * dp_lcs(x, y) / (len(x) + len(y))
                if similarity >= threshold:
                    a, b = (id_i, id_j) if id_i < id_j else (id_j, id_i)
                    va, vb = (value_i, value_j) if id_i < id_j else (value_j, value_i)
                    edges.add(Edge(a, b, FUZZY, data_type, va, vb, round(similarity, 9)))
    return sorted(edges, key=old_edge_key)


def lcs_bits(masks, n, y):
    """LCS length of ``y`` and the length-``n`` string behind ``masks``, one
    bit-parallel row per character of ``y``: the per-pair kernel the lane
    scoring replaced."""
    full = (1 << n) - 1
    v = full
    for c in y:
        u = v & masks.get(c, 0)
        v = ((v + u) | (v - u)) & full
    return n - v.bit_count()


def per_pair_similar_values(owners, threshold):
    """correlation._similar_values as it scored one canonical pair per
    lcs_bits call: the oracle for the lane scoring, order included."""
    groups = {}
    for (data_type, value), ids in owners.items():
        if data_type not in NAME_LIKE_TYPES:
            continue
        canonical = canonical_name(value, data_type)
        groups.setdefault(data_type, {}).setdefault(canonical, []).append((value, ids))

    similar = []
    for data_type, by_canonical in groups.items():
        names = sorted(by_canonical, key=len)
        for i, short in enumerate(names):
            group = by_canonical[short]
            for k, (value_l, ids_l) in enumerate(group):
                for value_r, ids_r in group[k + 1:]:
                    similar.append(Link(FUZZY, data_type, value_l, ids_l, value_r, ids_r, 1.0))
            n = len(short)
            masks = correlation._match_masks(short)
            for long in names[i + 1:]:
                m = len(long)
                if 2.0 * n / (n + m) < threshold:
                    break
                similarity = 2.0 * lcs_bits(masks, n, long) / (n + m)
                if similarity >= threshold:
                    weight = round(similarity, 9)
                    for value_l, ids_l in group:
                        for value_r, ids_r in by_canonical[long]:
                            similar.append(Link(FUZZY, data_type, value_l, ids_l, value_r, ids_r, weight))
    return similar


# The edge order and JSON shape as they were spelled out before Edge became a
# named tuple, the edges as they were sorted row by row before the rows became
# ints, and the DOT and JSON text as it was built whole before it was
# streamed: the oracles for the plain sorts, CorrelationGraph.rows and
# graph_to_json/graph_to_dot.
def old_edge_key(e):
    """The sort key of exact_edges and of fuzzy_edges."""
    return (e.a, e.b, e.data_type, e.value_a, e.value_b)


def old_graph_key(e):
    """The sort key of build_graph once fuzzy edges joined the exact ones."""
    return (e.a, e.b, e.kind, e.data_type, e.value_a, e.value_b)


def expanded_edges(links):
    """Every event pair of ``links`` as an edge a < b, expanded into one list
    and sorted whole, as the graph built its edges before they were streamed
    row by row: the oracle for CorrelationGraph.edges."""
    edges = []
    for kind, data_type, value_l, left, value_r, right, weight in links:
        for a in left:
            for b in right:
                if a < b:
                    edges.append(Edge(a, b, kind, data_type, value_l, value_r, weight))
                elif b < a and kind == FUZZY:
                    edges.append(Edge(b, a, kind, data_type, value_r, value_l, weight))
    edges.sort()
    return edges


def row_sorted_edges(graph):
    """Every linked event pair as an edge a < b, one node's row at a time:
    a's partners b > a on the side each of a's sides faces, a fuzzy link's
    values swapped when a is on its right side, each row sorted as Edges."""
    links, on = graph.links, graph.sides
    edges = []
    for a in sorted(on):
        row = []
        for side in on[a]:
            kind, data_type, value_l, left, value_r, right, weight = links[side >> 1]
            if side & 1:
                value_l, value_r, right = value_r, value_l, left
            for b in right:
                if b > a:
                    row.append(Edge(a, b, kind, data_type, value_l, value_r, weight))
        row.sort()
        edges += row
    return edges


def old_graph_to_json(graph):
    return {
        "nodes": [
            {"id": node_id, "kind": kind, "info": info}
            for node_id, (kind, info) in sorted(graph.nodes.items())
        ],
        "edges": [
            {
                "a": e.a,
                "b": e.b,
                "kind": e.kind,
                "data_type": e.data_type,
                "value_a": e.value_a,
                "value_b": e.value_b,
                "weight": e.weight,
            }
            for e in row_sorted_edges(graph)
        ],
    }


def old_graph_json_text(graph):
    return json.dumps(old_graph_to_json(graph), indent=2) + "\n"


def old_dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def old_graph_to_dot(graph):
    lines = ["graph correlation {"]
    for node_id in sorted(graph.nodes):
        kind, info = graph.nodes[node_id]
        lines.append(f'  {node_id} [label="{old_dot_escape(info)}" kind="{kind}"];')
    for edge in row_sorted_edges(graph):
        if edge.kind == EXACT:
            label = f"{edge.data_type}={edge.value_a}"
        else:
            label = f"{edge.data_type}≈{edge.weight:.3f}"
        lines.append(f'  {edge.a} -- {edge.b} [label="{old_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# Name-like values whose canonical forms collide often: empty ones ("", ".exe",
# "  "), equal ones from different values ("ab.com", "AB.net"), and typo variants.
_name_values = st.builds(
    lambda stem, suffix: stem + suffix,
    st.text(alphabet="abcAB -/", max_size=7),
    st.sampled_from(["", ".com", ".net", ".exe", ".dll", ".xyz"]),
)
_name_pairs = st.lists(
    st.tuples(st.sampled_from(["hostname", "url", "filename", "other", "md5"]), _name_values),
    max_size=5,
)
_name_events = st.lists(st.tuples(st.integers(1, 8), _name_pairs), max_size=8).map(
    lambda drafts: [event(event_id, pairs) for event_id, pairs in drafts]
)
# Events sharing values exactly and by similarity, back-links ("comment" in
# category "Other") included, with distinct ids.
_graph_events = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["hostname", "filename", "other", "md5", "comment"]), _name_values),
        max_size=5,
    ),
    max_size=8,
).map(lambda drafts: [event(event_id, pairs) for event_id, pairs in enumerate(drafts, start=1)])


class TestLcs:
    @pytest.mark.parametrize(
        "x,y,length",
        [
            ("", "", 0),
            ("abc", "", 0),
            ("abc", "abc", 3),
            ("abc", "acb", 2),
            ("bartsimpson", "bsimpson", 8),
        ],
    )
    def test_known_lengths(self, x, y, length):
        assert lcs_length(x, y) == length

    @given(st.text(alphabet="abcd", max_size=12), st.text(alphabet="abcd", max_size=12))
    @settings(max_examples=150)
    def test_matches_recursive_oracle(self, x, y):
        assert lcs_length(x, y) == oracle_lcs(x, y)

    @given(st.text(alphabet="ab\u00e9\u0436\u20ac\U0001f600", max_size=150),
           st.text(alphabet="ab\u00e9\u0436\u20ac\U0001f600", max_size=150))
    @settings(max_examples=150)
    def test_matches_dp_beyond_one_word(self, x, y):
        # Non-ASCII text, and lengths past 64 where the bit vector spans words.
        assert lcs_length(x, y) == dp_lcs(x, y)

    def test_long_strings_match_dp(self):
        rng = random.Random(7)
        for length in (63, 64, 65, 130, 300):
            x = "".join(rng.choice("abc\u00e9") for _ in range(length))
            y = "".join(rng.choice("abc\u00e9") for _ in range(rng.randint(1, 2 * length)))
            assert lcs_length(x, y) == dp_lcs(x, y)
            assert lcs_length(y, x) == dp_lcs(x, y)

    @given(st.text(alphabet="abcdef", max_size=16), st.text(alphabet="abcdef", max_size=16))
    @settings(max_examples=150)
    def test_ratio_bounds(self, x, y):
        ratio = lcs_ratio(x, y)
        assert 0.0 <= ratio <= 1.0
        assert lcs_ratio(x, y) == lcs_ratio(y, x)
        if x == y:
            assert ratio == 1.0

    def test_ratio_one_only_for_equal(self):
        assert lcs_ratio("abc", "abc") == 1.0
        assert lcs_ratio("abc", "abcd") < 1.0


class TestCanonicalForms:
    @pytest.mark.parametrize(
        "value,data_type,expected",
        [
            ("bartsimpson.com", "hostname", "bartsimpson"),
            ("bsimpson.net", "hostname", "bsimpson"),
            ("WWW.BartSimpson.COM", "hostname", "bartsimpson"),
            ("http://www.bartsimpson.com/path?q=1", "url", "bartsimpson"),
            ("https://user@portal.bsimpson.net:8443/x", "url", "bsimpson"),
            ("evil.xyz", "hostname", "evil.xyz"),  # unknown suffix: kept whole
            ("zhcat.exe", "filename", "zhcat"),
            ("C:\\tools\\ZhCat.EXE", "filename", "zhcat"),
            ("archive.tar.gz", "filename", "archive.tar"),
            ("  Mixed Case Marker  ", "other", "mixed case marker"),
            ("e:\\P\\x.pdb", "pdb", "e:\\p\\x.pdb"),
            ("update.example.dev", "hostname", "update.example.dev"),  # suffixes are fixed
        ],
    )
    def test_canonical(self, value, data_type, expected):
        assert canonical_name(value, data_type) == expected


class TestExactEdges:
    def test_shared_filename_links_pair(self):
        events = load_all(DATA_DIR / "golden_store.jsonl")
        edges = exact_edges(events)
        shared = [e for e in edges if e.data_type == "filename"]
        assert [(e.a, e.b, e.value_a) for e in shared] == [(1, 2, "zhcat.exe")]

    def test_no_shared_values(self):
        edges = exact_edges([event(1, [("other", "x")]), event(2, [("other", "y")])])
        assert edges == []

    def test_three_way_share_is_complete(self):
        events = [event(i, [("ip-src", "7.7.7.7")]) for i in (1, 2, 3)]
        edges = exact_edges(events)
        assert [(e.a, e.b) for e in edges] == [(1, 2), (1, 3), (2, 3)]
        assert all(e.weight == 1.0 for e in edges)

    def test_same_value_different_type_no_edge(self):
        edges = exact_edges([event(1, [("other", "x")]), event(2, [("filename", "x")])])
        assert edges == []

    def test_cross_set_only_skips_back_links(self):
        title = "origin.pdf"
        events = [
            Event(1, DATE, "a" * 32, MALWARE, [
                Attribute("Payload installation", "", "a" * 32, "md5"),
                Attribute("Other", "", title, "comment"),
            ]),
            Event(2, DATE, "b" * 32, MALWARE, [
                Attribute("Payload installation", "", "b" * 32, "md5"),
                Attribute("Other", "", title, "comment"),
            ]),
        ]
        assert len(exact_edges(events)) == 1
        assert exact_edges(events, cross_set_only=True) == []

    def test_duplicate_attributes_yield_single_edge(self):
        events = [
            event(1, [("other", "x"), ("other", "x")]),
            event(2, [("other", "x")]),
        ]
        assert len(exact_edges(events)) == 1

    def brute_force(self, events, cross_set_only=False):
        found = set()
        for left in events:
            for right in events:
                if left.id >= right.id:
                    continue
                for la in left.attributes:
                    for ra in right.attributes:
                        if cross_set_only and la.type == "comment":
                            continue
                        if la.type == ra.type and la.value == ra.value:
                            found.add((left.id, right.id, la.type, la.value))
        return found

    def test_matches_brute_force_on_random_fixtures(self):
        rng = random.Random(99)
        for _ in range(30):
            events = [random_event(rng, i) for i in range(1, rng.randint(2, 10))]
            got = {(e.a, e.b, e.data_type, e.value_a) for e in exact_edges(events)}
            assert got == self.brute_force(events)

    def test_permutation_invariant(self):
        rng = random.Random(13)
        events = [random_event(rng, i) for i in range(1, 9)]
        baseline = exact_edges(events)
        shuffled = events[:]
        rng.shuffle(shuffled)
        assert exact_edges(shuffled) == baseline


class TestFuzzyEdges:
    def test_paper_domain_pair_links(self):
        events = [
            event(1, [("hostname", "bartsimpson.com")]),
            event(2, [("hostname", "bsimpson.net")]),
        ]
        edges = fuzzy_edges(events, threshold=0.8)
        assert len(edges) == 1
        edge = edges[0]
        assert edge.kind == FUZZY
        assert edge.weight == pytest.approx(16 / 19, abs=1e-9)

    def test_identical_values_never_fuzzy(self):
        events = [event(1, [("hostname", "a.com")]), event(2, [("hostname", "a.com")])]
        assert fuzzy_edges(events, threshold=0.1) == []

    def test_dissimilar_domains_not_linked(self):
        events = [
            event(1, [("hostname", "example.com")]),
            event(2, [("hostname", "zqwtkv.net")]),
        ]
        # canonical "example" vs "zqwtkv": LCS is empty, ratio 0.
        assert name_similarity("example.com", "zqwtkv.net", "hostname") == 0.0
        assert fuzzy_edges(events, threshold=0.8) == []

    def test_hashes_ips_cves_never_fuzzy(self):
        events = [
            event(1, [("md5", "a" * 32), ("ip-src", "1.2.3.4"), ("vulnerability", "CVE-2017-0001")]),
            event(2, [("md5", "a" * 31 + "b"), ("ip-src", "1.2.3.5"), ("vulnerability", "CVE-2017-0002")]),
        ]
        assert fuzzy_edges(events, threshold=0.5) == []

    def test_same_event_values_not_compared(self):
        events = [event(1, [("hostname", "cdn.lure-download.net"), ("hostname", "lure-download.net")])]
        assert fuzzy_edges(events, threshold=0.8) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            fuzzy_edges([], threshold=0.0)

    def test_no_pair_gets_exact_and_fuzzy_for_same_values(self):
        events = [
            event(1, [("hostname", "bartsimpson.com"), ("other", "shared")]),
            event(2, [("hostname", "bartsimpson.com"), ("other", "shared")]),
        ]
        graph = build_graph(events, GraphOptions(fuzzy=True, threshold=0.5))
        edges = list(graph.edges())
        pairs_exact = {(e.a, e.b, e.value_a, e.value_b) for e in edges if e.kind == EXACT}
        pairs_fuzzy = {(e.a, e.b, e.value_a, e.value_b) for e in edges if e.kind == FUZZY}
        assert pairs_exact and not pairs_exact & pairs_fuzzy


def count_kernel_passes(monkeypatch):
    """A list that grows by one on each bit-parallel pass of the lane kernel."""
    passes = []
    real = correlation._Lanes.unmatched
    monkeypatch.setattr(correlation._Lanes, "unmatched", lambda *args: passes.append(1) or real(*args))
    return passes


class TestFuzzyScoredOnce:
    def test_links_and_edges_share_one_scoring(self, monkeypatch):
        import ctipipe.correlation as correlation

        rng = random.Random(11)
        bases = ["bartsimpson", "brightwater", "winterlace"]
        events = [
            event(event_id, [("hostname", base[:i] + rng.choice("aexz") + base[i + 1:] + ".com")])
            for event_id, (base, i) in enumerate(((rng.choice(bases), rng.randrange(10)) for _ in range(30)), 1)
        ]
        passes = count_kernel_passes(monkeypatch)
        expected = fuzzy_edges(events, 0.8)
        scored = len(passes)
        assert scored > 0
        passes.clear()
        graph = build_graph(events, GraphOptions(fuzzy=True, threshold=0.8))
        find_path(graph, 1, 2)
        assert [e for e in graph.edges() if e.kind == FUZZY] == expected
        graph.edge_count()
        assert len(passes) == scored


# Name lengths 0-70, so lanes straddle CPython's 30-bit int digits and fill
# the width classes 8 to 128; ASCII,
# non-ASCII and astral characters; a few stems with small edits, so pairs
# reach the threshold; case and suffix variants, so canonical forms collide.
_ALPHABET = "abcAB \u00e9\u0436\U0001f600"


@st.composite
def _owner_maps(draw):
    stems = draw(st.lists(st.text(alphabet=_ALPHABET, max_size=70), min_size=1, max_size=3))
    owners = {}
    for _ in range(draw(st.integers(0, 12))):
        stem = draw(st.sampled_from(stems))
        cut = draw(st.integers(0, len(stem)))
        value = stem[:cut] + draw(st.text(alphabet=_ALPHABET, max_size=2)) + stem[cut + draw(st.integers(0, 2)):]
        if draw(st.booleans()):
            value = value.upper()
        value += draw(st.sampled_from(["", ".com", ".net", ".exe", " "]))
        data_type = draw(st.sampled_from(["hostname", "url", "filename", "other", "email", "md5"]))
        owners[(data_type, value)] = tuple(sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=3))))
    return owners


# Lengths at the edges of the lane width classes 8, 16, 32, 64 and 128.
WIDTH_EDGES = (0, 1, 7, 8, 15, 16, 31, 32, 63, 64, 70)


def lane_counts(lanes, counts):
    """The count in each lane of :meth:`_Lanes.unmatched`'s result."""
    width = lanes.width
    return [counts >> k * width & (1 << width) - 1 for k in range(len(lanes.names))]


class TestPackedScoring:
    @given(st.lists(st.text(alphabet=_ALPHABET, max_size=70), min_size=1, max_size=6),
           st.text(alphabet=_ALPHABET, max_size=70), st.data())
    @settings(max_examples=300)
    def test_each_block_is_its_lcs(self, names, text, data):
        # Each lane of the kernel against the two-row DP.
        names.sort(key=len)
        start = data.draw(st.integers(0, len(names) - 1))
        stop = data.draw(st.integers(start + 1, len(names)))
        lanes = correlation._Lanes(names)
        width = lanes.width
        counts = lane_counts(lanes, lanes.unmatched(text, (1 << stop * width) - (1 << start * width)))
        assert counts == [len(name) - dp_lcs(text, name) if start <= k < stop else 0
                          for k, name in enumerate(names)]

    @given(st.lists(st.text(alphabet=_ALPHABET, max_size=70), min_size=1, max_size=6),
           st.text(alphabet=_ALPHABET, min_size=1, max_size=70),
           st.one_of(st.sampled_from([0.05, 0.5, 2 / 3, 0.8, 1.0]), st.floats(0.01, 1.0)), st.data())
    @settings(max_examples=300)
    def test_passing_lanes_are_the_float_test(self, names, text, threshold, data):
        names = sorted(names + [text], key=len)
        start = data.draw(st.integers(names.index(text), len(names) - 1))
        stop = data.draw(st.integers(start + 1, len(names)))
        n = len(text)
        expected = [(name, dp_lcs(text, name)) for name in names[start:stop]]
        expected = [(name, lcs) for name, lcs in expected if 2.0 * lcs / (n + len(name)) >= threshold]
        assert list(correlation._Lanes(names).passing(text, start, stop, threshold)) == expected

    @pytest.mark.parametrize("length", WIDTH_EDGES)
    def test_width_class_edges(self, length):
        rng = random.Random(length)
        name = "".join(rng.choice("ab\u00e9\U0001f600") for _ in range(length))
        width = correlation._lane_width(name)
        assert width >= 8 and width > length and (width == 8 or width <= 2 * length)
        for other_length in WIDTH_EDGES:
            other = "".join(rng.choice("ab\u00e9\U0001f600") for _ in range(other_length))
            assert lcs_length(name, other) == dp_lcs(name, other)
            lanes = correlation._Lanes(sorted([name, other, name[::-1]], key=len))
            assert lane_counts(lanes, lanes.unmatched(other, -1)) == [
                len(lane) - dp_lcs(other, lane) for lane in lanes.names]

    def test_counts_past_one_byte(self):
        # Lanes of 512 bits, whose counts take two bytes.
        names = ["a" * 20, "ab" * 150, "a" * 300]
        lanes = correlation._Lanes(names)
        assert lanes.width == 512
        assert lane_counts(lanes, lanes.unmatched("b" * 20, -1)) == [20, 280, 300]
        assert list(lanes.passing("a" * 20, 1, 3, 0.1)) == [("ab" * 150, 20), ("a" * 300, 20)]
        assert list(lanes.passing("ab" * 10, 1, 3, 0.1)) == [("ab" * 150, 20)]
        assert list(lanes.passing("a" * 20, 1, 3, 0.13)) == []

    def test_width_classes_match_per_pair_oracle(self):
        rng = random.Random(9)
        base = "".join(rng.choice("ab\u00e9\u0436") for _ in range(70))
        owners = {}
        for event_id, length in enumerate(WIDTH_EDGES + (6, 9, 14, 17, 30, 33, 62, 65, 69), 1):
            name = list(base[:length])
            if name:
                name[rng.randrange(length)] = rng.choice("ab\U0001f600")
            owners[("other", "".join(name))] = (event_id,)
        for threshold in (0.05, 0.5, 2 / 3, 0.8, 0.9, 1.0):
            links = correlation._similar_values(owners, threshold)
            assert links == per_pair_similar_values(owners, threshold)
        # Pairs across each two neighbouring width classes pass.
        widths = {tuple(map(correlation._lane_width, (link.value_left, link.value_right)))
                  for link in correlation._similar_values(owners, 0.8)}
        assert {(8, 16), (16, 32), (32, 64), (64, 128)} <= widths

    @given(_owner_maps(), st.one_of(st.sampled_from([0.05, 0.5, 2 / 3, 0.8, 1.0]), st.floats(0.01, 1.0)))
    @settings(max_examples=400)
    def test_matches_per_pair_oracle(self, owners, threshold):
        assert correlation._similar_values(owners, threshold) == per_pair_similar_values(owners, threshold)

    @pytest.mark.parametrize("short, long, threshold", [
        ("abcde", "abcdx", 0.8),  # 2.0 * 4 / 10 == 0.8
        ("abc", "abx", 2 / 3),  # 2.0 * 2 / 6 == 2 / 3
        ("abcd", "abcdxy", 0.8),  # the length cut-off at equality, 2.0 * 4 / 10
    ])
    def test_ratio_equal_to_threshold_links(self, short, long, threshold):
        assert 2.0 * lcs_length(short, long) / (len(short) + len(long)) == threshold
        owners = {("other", short): (1,), ("other", long): (2,)}
        links = correlation._similar_values(owners, threshold)
        assert links == per_pair_similar_values(owners, threshold)
        assert [link.weight for link in links] == [round(threshold, 9)]

    def test_length_cut_off_drops_every_pair(self, monkeypatch):
        owners = {("other", "a"): (1,), ("other", "A "): (2,), ("other", "b" * 5): (3,), ("other", "a" * 70): (4,)}
        passes = count_kernel_passes(monkeypatch)
        links = correlation._similar_values(owners, 0.9)
        assert links == per_pair_similar_values(owners, 0.9)
        assert links == [Link(FUZZY, "other", "a", (1,), "A ", (2,), 1.0)]
        assert passes == []

    def test_single_name_per_type(self):
        owners = {("hostname", "abc.com"): (1,), ("url", "http://abd.net/x"): (2,), ("filename", "abc.exe"): (3,)}
        assert correlation._similar_values(owners, 0.05) == []

    def test_names_across_int_digits(self):
        rng = random.Random(3)
        base = "".join(rng.choice("ab\u00e9") for _ in range(70))
        owners = {}
        for event_id, length in enumerate((1, 28, 29, 30, 31, 32, 59, 60, 61, 62, 70, 70), 1):
            name = list(base[:length])
            name[rng.randrange(length)] = rng.choice("ab\U0001f600")
            owners[("other", "".join(name))] = (event_id,)
        for threshold in (0.5, 0.8, 0.9, 1.0):
            links = correlation._similar_values(owners, threshold)
            assert links == per_pair_similar_values(owners, threshold)
        assert len(correlation._similar_values(owners, 0.8)) > 5


class TestFuzzyAgainstPairwise:
    @given(_name_events, st.one_of(st.sampled_from([0.05, 0.5, 0.8, 0.84, 1.0]), st.floats(0.01, 1.0)))
    @settings(max_examples=400)
    def test_matches_pairwise_oracle(self, events, threshold):
        assert fuzzy_edges(events, threshold) == pairwise_fuzzy_edges(events, threshold)

    @pytest.mark.parametrize("threshold", [0.05, 1.0])
    def test_canonical_collisions(self, threshold):
        events = [
            event(1, [("hostname", "bartsimpson.com"), ("hostname", "BartSimpson.net")]),
            event(2, [("hostname", "bartsimpson.com"), ("filename", ".exe"), ("other", "  ")]),
            event(3, [("hostname", "www.bsimpson.net"), ("filename", "C:/x/.dll"), ("other", "")]),
            event(4, [("hostname", "bartsimpson.com"), ("url", "http://bsimpson.org/a")]),
        ]
        edges = fuzzy_edges(events, threshold)
        assert edges == pairwise_fuzzy_edges(events, threshold)
        assert (1, 2, "BartSimpson.net", "bartsimpson.com", 1.0) in {
            (e.a, e.b, e.value_a, e.value_b, e.weight) for e in edges
        }

    def test_typo_variants_match_pairwise(self):
        rng = random.Random(5)
        bases = ["bartsimpson", "brightwater", "winterlace", "zhcat"]

        def variant(base):
            i = rng.randrange(len(base))
            return base[:i] + rng.choice("aexz") + base[i + 1:]

        events = [
            event(event_id, [
                ("hostname", variant(rng.choice(bases)) + rng.choice([".com", ".net", ".io"])),
                ("url", f"http://{variant(rng.choice(bases))}.org/{rng.randrange(3)}"),
                ("filename", variant(rng.choice(bases)) + ".exe"),
            ])
            for event_id in range(1, 41)
        ]
        for threshold in (0.5, 0.8, 0.9, 1.0):
            edges = fuzzy_edges(events, threshold)
            assert edges == pairwise_fuzzy_edges(events, threshold)
        assert len(fuzzy_edges(events, 0.8)) > 100


class TestEdgeOrder:
    @given(_graph_events, st.sampled_from([None, 0.5, 1.0]), st.booleans())
    @settings(max_examples=300)
    def test_plain_sorts_match_old_keys(self, events, threshold, cross_set_only):
        # Each list is re-sorted from reversed order, so a key that left ties
        # to the input order would show here.
        exact = exact_edges(events, cross_set_only=cross_set_only)
        assert exact == sorted(exact[::-1], key=old_edge_key)
        edges = exact
        if threshold is not None:
            fuzzy = fuzzy_edges(events, threshold)
            assert fuzzy == sorted(fuzzy[::-1], key=old_edge_key)
            edges = exact + fuzzy
        options = GraphOptions(fuzzy=threshold is not None, threshold=threshold or 0.8, cross_set_only=cross_set_only)
        graph = build_graph(events, options)
        assert list(graph.edges()) == sorted(edges[::-1], key=old_graph_key)
        # Compared as text: JSON output depends on key order, dict equality does not.
        assert "".join(graph_to_json(graph)) == old_graph_json_text(graph)
        assert "".join(graph_to_dot(graph)) == old_graph_to_dot(graph)

    def test_edge_equals_plain_tuple(self):
        edge = Edge(1, 2, EXACT, "other", "x", "x", 1.0)
        assert edge == (1, 2, "exact", "other", "x", "x", 1.0)
        assert Edge._fields == ("a", "b", "kind", "data_type", "value_a", "value_b", "weight")


def event_set_similarity(a, b):
    """The Jaccard index over two event sets' distinct (type, value) pairs,
    back-links excluded: the set similarity noise scoring averages."""
    return jaccard(distinct_pairs(a), distinct_pairs(b))


class TestEventSetSimilarity:
    def set_of(self, index, pairs):
        title = f"s{index}.pdf"
        return EventSet(title, event(index, pairs, info=title))

    def test_identical_sets(self):
        a = self.set_of(1, [("other", "x"), ("other", "y")])
        b = self.set_of(2, [("other", "x"), ("other", "y")])
        assert event_set_similarity(a, b) == 1.0

    def test_disjoint_sets(self):
        a = self.set_of(1, [("other", "x")])
        b = self.set_of(2, [("other", "y")])
        assert event_set_similarity(a, b) == 0.0

    def test_two_shared_of_six(self):
        a = self.set_of(1, [("other", "s1"), ("other", "s2"), ("other", "a1"), ("other", "a2")])
        b = self.set_of(2, [("other", "s1"), ("other", "s2"), ("other", "b1"), ("other", "b2")])
        assert event_set_similarity(a, b) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert event_set_similarity(self.set_of(1, []), self.set_of(2, [])) == 0.0

    def test_back_links_excluded(self):
        title = "same.pdf"
        left = EventSet(title, event(1, [], info=title), [
            Event(3, DATE, "a" * 32, MALWARE, [Attribute("Other", "", title, "comment")]),
        ])
        right = EventSet(title, event(2, [], info=title), [
            Event(4, DATE, "b" * 32, MALWARE, [Attribute("Other", "", title, "comment")]),
        ])
        assert event_set_similarity(left, right) == 0.0


def weighted_graph(nodes, links):
    """A graph with one fuzzy link per (a, b, weight) link."""
    graph = CorrelationGraph({node: (REPORT, f"e{node}") for node in nodes})
    graph.links = [Link(FUZZY, "other", "x", (a,), "y", (b,), w) for a, b, w in links]
    return graph


def edge_list_path(graph, start, goal):
    """find_path as it ran over the edge list before links: the oracle for
    the link search. Adjacency and the heaviest weight per pair come from
    graph.edges()."""
    if start == goal:
        return [start]
    weight = {}
    adjacency = {node: set() for node in graph.nodes}
    for a, b, _, _, _, _, w in graph.edges():
        adjacency[a].add(b)
        adjacency[b].add(a)
        weight[a, b] = max(weight.get((a, b), 0.0), w)

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

    def closer(node):
        return [
            (n, weight[(node, n) if node < n else (n, node)])
            for n in adjacency[node]
            if distance.get(n) == distance[node] - 1
        ]

    reach = {goal: float("inf")}
    for level in levels[1:]:
        for node in level:
            reach[node] = max(min(w, reach[n]) for n, w in closer(node))
    path = [start]
    while path[-1] != goal:
        path.append(min(n for n, w in closer(path[-1]) if min(w, reach[n]) >= reach[start]))
    return path


def brute_force_path(links, start, goal):
    """Every simple path, ranked as find_path documents: fewer hops, then the
    larger smallest weight, then the smaller id sequence."""
    weight = {}
    for a, b, w in links:
        weight[a, b] = weight[b, a] = max(w, weight.get((a, b), 0.0))
    ranked = []

    def extend(path, bottleneck):
        if path[-1] == goal:
            ranked.append((len(path), -bottleneck, path))
            return
        for (left, right), w in weight.items():
            if left == path[-1] and right not in path:
                extend(path + [right], min(bottleneck, w))

    extend([start], float("inf"))
    return min(ranked)[2] if ranked else None


class TestPaths:
    def lazarus_events(self):
        return [
            event(1, [("md5", "4e" * 16), ("hostname", "updates.winterlace.org")], info="A.pdf"),
            event(2, [("md5", "4e" * 16), ("ip-src", "203.0.113.77")], info="B.pdf"),
            event(3, [("ip-src", "203.0.113.77"), ("hostname", "lure-download.net")], info="C.pdf"),
        ]

    def test_two_hop_path(self):
        graph = build_graph(self.lazarus_events())
        assert find_path(graph, 1, 3) == [1, 2, 3]

    def test_self_path(self):
        graph = build_graph(self.lazarus_events())
        assert find_path(graph, 2, 2) == [2]

    def test_disconnected(self):
        events = self.lazarus_events() + [event(9, [("other", "isolated")], info="D.pdf")]
        graph = build_graph(events)
        assert find_path(graph, 1, 9) is None

    def test_unknown_id_rejected(self):
        graph = build_graph(self.lazarus_events())
        with pytest.raises(ValueError):
            find_path(graph, 1, 404)

    def test_tie_broken_by_bottleneck_weight(self):
        # Two 2-hop routes: via 2 the first hop is fuzzy (weight < 1), via 3
        # both hops are exact. The stronger bottleneck wins over the lower id.
        events = [
            event(1, [("hostname", "brightwater.com"), ("other", "left-link")]),
            event(2, [("hostname", "brightwaters.com"), ("other", "mid-link")]),
            event(3, [("other", "left-link"), ("other", "right-link")]),
            event(4, [("other", "mid-link"), ("other", "right-link")]),
        ]
        graph = build_graph(events, GraphOptions(fuzzy=True, threshold=0.8))
        fuzzy = [e for e in graph.edges() if e.kind == FUZZY]
        assert [(e.a, e.b) for e in fuzzy] == [(1, 2)]
        path = find_path(graph, 1, 4)
        assert path == [1, 3, 4]

    def test_tie_broken_by_smaller_ids(self):
        events = [
            event(1, [("other", "left"), ("other", "right")]),
            event(2, [("other", "left"), ("other", "goal")]),
            event(3, [("other", "right"), ("other", "goal")]),
            event(4, [("other", "goal")]),
        ]
        graph = build_graph(events)
        assert find_path(graph, 1, 4) == [1, 2, 4]

    def test_equal_bottleneck_falls_to_smaller_ids(self):
        # Both 3-hop routes bottleneck at the last hop (0.8). The stronger
        # first hop 1-3 must not decide: the smaller id sequence wins.
        links = [(1, 2, 0.85), (1, 3, 0.9), (2, 4, 0.95), (3, 4, 0.95), (4, 5, 0.8)]
        assert find_path(weighted_graph(range(1, 6), links), 1, 5) == [1, 2, 4, 5]

    def test_matches_brute_force_on_random_weighted_graphs(self):
        rng = random.Random(41)
        for _ in range(300):
            nodes = rng.sample(range(1, 40), rng.randint(2, 7))
            links = [
                (a, b, rng.choice([0.5, 0.8, 0.9, 1.0]))
                for a, b in itertools.combinations(nodes, 2)
                if rng.random() < 0.45
            ]
            links += [(a, b, rng.choice([0.5, 1.0])) for a, b, _ in links if rng.random() < 0.2]
            graph = weighted_graph(nodes, links)
            for start, goal in itertools.product(nodes, repeat=2):
                assert find_path(graph, start, goal) == brute_force_path(links, start, goal), (links, start, goal)

    def test_path_is_minimal_and_exists_in_graph(self):
        rng = random.Random(31)
        for _ in range(20):
            events = [random_event(rng, i) for i in range(1, rng.randint(3, 10))]
            graph = build_graph(events)
            adjacency = {}
            for e in graph.edges():
                adjacency.setdefault(e.a, set()).add(e.b)
                adjacency.setdefault(e.b, set()).add(e.a)
            ids = [e.id for e in events]
            start, goal = rng.choice(ids), rng.choice(ids)
            path = find_path(graph, start, goal)
            # independent BFS for the reference distance
            distances = {start: 0}
            queue = [start]
            while queue:
                node = queue.pop(0)
                for nxt in adjacency.get(node, ()):
                    if nxt not in distances:
                        distances[nxt] = distances[node] + 1
                        queue.append(nxt)
            if goal not in distances:
                assert path is None
            else:
                assert path is not None
                assert len(path) - 1 == distances[goal]
                for a, b in zip(path, path[1:]):
                    assert b in adjacency.get(a, set())


class TestLinkSearch:
    """The link search against the edge-list search it replaced, the edges
    expanded from the links against the pairwise oracles, and the
    link-derived edge count against the edge list."""

    options = st.one_of(
        st.builds(GraphOptions, fuzzy=st.just(False), threshold=st.just(0.8), cross_set_only=st.booleans()),
        st.builds(GraphOptions, fuzzy=st.just(True), threshold=st.sampled_from([0.5, 0.8, 1.0]),
                  cross_set_only=st.booleans()),
    )

    @given(_graph_events, options)
    @settings(max_examples=300)
    def test_matches_edge_list_search(self, events, options):
        graph = build_graph(events, options)
        for start, goal in itertools.product(graph.nodes, repeat=2):
            assert find_path(graph, start, goal) == edge_list_path(graph, start, goal), (start, goal)

    @given(_graph_events, options)
    @settings(max_examples=300)
    def test_edges_match_brute_force(self, events, options):
        # Every edge comes from the row-by-row walk of the link sides: it must
        # be the whole-list expansion of the links and the pairwise exact
        # oracle plus, with fuzzy, the pairwise fuzzy one, each pair once.
        graph = build_graph(events, options)
        expected = {
            Edge(a, b, EXACT, data_type, value, value, 1.0)
            for a, b, data_type, value in TestExactEdges().brute_force(events, options.cross_set_only)
        }
        if options.fuzzy:
            expected.update(pairwise_fuzzy_edges(events, options.threshold))
        edges = list(graph.edges())
        assert edges == expanded_edges(graph.links) == sorted(expected)
        assert exact_edges(events, cross_set_only=options.cross_set_only) == [
            e for e in edges if e.kind == EXACT
        ]
        if options.fuzzy:
            assert fuzzy_edges(events, options.threshold) == [e for e in edges if e.kind == FUZZY]

    @given(_graph_events, options)
    @settings(max_examples=300)
    def test_edge_count_matches_edge_list(self, events, options):
        graph = build_graph(events, options)
        assert graph.edge_count() == len(list(graph.edges()))

    def test_matches_edge_list_search_on_random_links(self):
        # Links drawn directly, with sides of several events and mixed
        # weights, so one side can hold events of different reach.
        rng = random.Random(43)
        for _ in range(300):
            nodes = rng.sample(range(1, 30), rng.randint(2, 8))
            graph = CorrelationGraph({node: (REPORT, f"e{node}") for node in nodes})
            graph.links = []
            for _ in range(rng.randint(1, 6)):
                weight = rng.choice([0.5, 0.8, 0.9, 1.0])
                left = tuple(rng.sample(nodes, rng.randint(1, min(4, len(nodes)))))
                if rng.random() < 0.4:
                    graph.links.append(Link(EXACT, "other", "x", left, "x", left, weight))
                else:
                    right = tuple(rng.sample(nodes, rng.randint(1, min(4, len(nodes)))))
                    graph.links.append(Link(FUZZY, "other", "x", left, "y", right, weight))
            edges = sorted(
                Edge(min(a, b), max(a, b), kind, "other", "", "", weight)
                for kind, _, _, left, _, right, weight in graph.links
                for a in left
                for b in right
                if a != b
            )
            oracle = CorrelationGraph(graph.nodes)
            oracle.edges = lambda: iter(edges)
            for start, goal in itertools.product(nodes, repeat=2):
                assert find_path(graph, start, goal) == edge_list_path(oracle, start, goal), (graph.links, start, goal)

    def test_shared_value_is_one_clique(self):
        events = [event(i, [("ip-src", "7.7.7.7")]) for i in (1, 2, 3)]
        graph = build_graph(events)
        assert graph.links == [Link(EXACT, "ip-src", "7.7.7.7", (1, 2, 3), "7.7.7.7", (1, 2, 3), 1.0)]
        assert graph.edge_count() == 3

    def test_path_query_builds_no_edges(self, monkeypatch):
        def no_edges(graph):
            raise AssertionError("a path query made an edge")

        monkeypatch.setattr(CorrelationGraph, "edges", no_edges)
        monkeypatch.setattr(CorrelationGraph, "rows", no_edges)
        graph = build_graph(TestPaths().lazarus_events())
        assert find_path(graph, 1, 3) == [1, 2, 3]
        assert "ranked_sides" not in vars(graph)


class TestTimeline:
    def test_compiled_before_published(self):
        malware = event(2, [], kind=MALWARE, info="a" * 32, date=dt.date(2013, 5, 1))
        report = event(1, [], info="r.pdf", date=dt.date(2014, 12, 3))
        timeline = temporal_timeline([report, malware])
        assert [entry[1] for entry in timeline] == [2, 1]

    def test_equal_dates_ordered_by_id(self):
        timeline = temporal_timeline([
            event(2852, [], info="Cylance_Operation_Cleaver_Report.pdf", date=dt.date(2014, 12, 3)),
            event(2741, [], kind=MALWARE, info="836ef6b06c5fd52ecc910a3e3408004a", date=dt.date(2014, 12, 3)),
        ])
        assert [entry[1] for entry in timeline] == [2741, 2852]
        assert timeline[0][2] == MALWARE


class TestExports:
    def test_dot_output(self):
        graph = build_graph([
            event(1, [("filename", "zhcat.exe")], info='report "one".pdf'),
            event(2, [("filename", "zhcat.exe")], info="a" * 32, kind=MALWARE),
        ])
        dot = "".join(graph_to_dot(graph))
        assert dot.startswith("graph correlation {")
        assert '1 -- 2 [label="filename=zhcat.exe"];' in dot
        assert '\\"one\\"' in dot  # quotes escaped

    def test_dot_fuzzy_label_uses_similarity(self):
        graph = build_graph(
            [event(1, [("hostname", "bartsimpson.com")]), event(2, [("hostname", "bsimpson.net")])],
            GraphOptions(fuzzy=True),
        )
        assert "hostname\u22480.842" in "".join(graph_to_dot(graph))

    def test_json_mirror(self):
        events = [event(1, [("other", "x")]), event(2, [("other", "x")])]
        graph = build_graph(events)
        text = "".join(graph_to_json(graph))
        assert text == old_graph_json_text(graph)
        payload = json.loads(text)
        assert [node["id"] for node in payload["nodes"]] == [1, 2]
        assert payload["edges"][0] == {
            "a": 1, "b": 2, "kind": "exact", "data_type": "other",
            "value_a": "x", "value_b": "x", "weight": 1.0,
        }


# Text that json.dumps and DOT escaping treat specially: quotes, backslashes,
# control characters, non-ASCII (astral too), U+2028/U+2029 and lone surrogates.
_awkward_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "≈", "\u2028", "\u2029",
                         "\ud800", "\udfff", "\U0001f600"]),
        st.characters(codec=None, exclude_categories=()),
    ),
    max_size=12,
)
_weights = st.one_of(
    st.floats(0.0, 1.0).map(lambda w: round(w, 9)),
    st.sampled_from([1.0, 0.842105263, 0.123456789, 0.5, 1e-09]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _graph_with(nodes, links):
    graph = CorrelationGraph(nodes)
    graph.links = links
    return graph


def _links(ids, values, weights):
    """Lists of exact and fuzzy links over ascending tuples of distinct ``ids``."""
    members = st.lists(ids, min_size=1, max_size=4, unique=True).map(lambda drawn: tuple(sorted(drawn)))
    exact = st.builds(
        lambda data_type, value, clique, weight: Link(EXACT, data_type, value, clique, value, clique, weight),
        values, values, members, weights,
    )
    fuzzy = st.builds(Link, st.just(FUZZY), values, values, members, values, members, weights)
    return st.lists(st.one_of(exact, fuzzy), max_size=6)


_streamed_graphs = st.builds(
    _graph_with,
    st.dictionaries(st.integers(-5, 10**6), st.tuples(_awkward_text, _awkward_text), max_size=6),
    _links(st.integers(-5, 10**6), _awkward_text, _weights),
)


class TestStreamedText:
    """graph_to_json and graph_to_dot yield the text the whole-document
    builders produced, byte for byte."""

    @given(_streamed_graphs)
    @settings(max_examples=150)
    def test_matches_whole_document_oracles(self, graph):
        assert "".join(graph_to_json(graph)) == old_graph_json_text(graph)
        assert "".join(graph_to_dot(graph)) == old_graph_to_dot(graph)

    @pytest.mark.parametrize("nodes, links", [
        pytest.param({}, [], id="no nodes"),
        pytest.param({3: (REPORT, "a.pdf"), 1: (MALWARE, "ab" * 16)}, [], id="nodes without edges"),
        pytest.param({}, [Link(FUZZY, "hostname", "a ", (1,), '"b\\', (2,), 0.842105263)],
                     id="edges without nodes"),
        pytest.param({1: (REPORT, "a.pdf")}, [Link(FUZZY, "hostname", "a", (1,), "b", (1,), 0.9)],
                     id="a link without edges"),
    ])
    def test_empty_lists(self, nodes, links):
        graph = _graph_with(nodes, links)
        assert "".join(graph_to_json(graph)) == old_graph_json_text(graph)
        assert "".join(graph_to_dot(graph)) == old_graph_to_dot(graph)

    def test_streams_in_bounded_memory(self, tmp_path):
        # 317 events sharing one value: C(317, 2) = 50 086 exact edges. Only
        # the links are built before tracing; writing the file then holds one
        # node's row of edges and a chunk at a time, not the edge list, a
        # dict per edge or the whole text.
        graph = build_graph([event(event_id, [("other", "shared")]) for event_id in range(1, 318)])
        assert graph.edge_count() == 50_086
        path = tmp_path / "graph.json"
        tracemalloc.start()
        try:
            atomic_write(path, graph_to_json(graph))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == old_graph_json_text(graph)
        assert peak < path.stat().st_size / 10

    def test_encodes_per_side_not_per_edge(self, monkeypatch):
        # The same 50 086-edge clique: every edge shares its one side's text,
        # so JSON-encoding runs twice per node and four times per link side.
        graph = build_graph([event(event_id, [("other", "shared")]) for event_id in range(1, 318)])
        encode = correlation._json_string
        calls = 0

        def counting(text):
            nonlocal calls
            calls += 1
            return encode(text)

        monkeypatch.setattr(correlation, "_json_string", counting)
        text = "".join(graph_to_json(graph))
        assert text == old_graph_json_text(graph)
        assert len(graph.ranked_sides) == 1
        assert calls == 2 * len(graph.nodes) + 4 * len(graph.ranked_sides) == 638


class TestRowStream:
    """CorrelationGraph.rows, read through edges(), graph_to_json and
    graph_to_dot, against the per-row Edge sort it replaced."""

    # Few ids, two common values and common weights: several links between
    # one pair (ties on b), events on both sides of a fuzzy link, and a fuzzy
    # side whose swapped values equal another link's (ties on the whole key).
    tied_graphs = st.builds(
        _graph_with,
        st.dictionaries(st.integers(-3, 6), st.tuples(_awkward_text, _awkward_text), max_size=4),
        _links(
            st.integers(-3, 6),
            st.one_of(st.sampled_from(["x", "y"]), _awkward_text),
            st.one_of(st.sampled_from([1.0, 0.5, 0.0, -0.0]), _weights),
        ),
    )

    @given(st.one_of(tied_graphs, st.builds(build_graph, _graph_events, TestLinkSearch.options)))
    @settings(max_examples=300)
    def test_matches_row_sorted_oracle(self, graph):
        edges = list(graph.edges())
        assert edges == row_sorted_edges(graph) == expanded_edges(graph.links)
        assert len(edges) == graph.edge_count()
        assert "".join(graph_to_json(graph)) == old_graph_json_text(graph)
        assert "".join(graph_to_dot(graph)) == old_graph_to_dot(graph)

    @pytest.mark.parametrize("weights", [(0.0, -0.0), (-0.0, 0.0)])
    def test_equal_fields_keep_side_order(self, weights):
        # 0.0 == -0.0, so only the side order tells these two edges apart.
        links = [Link(FUZZY, "other", "x", (1,), "y", (2,), weight) for weight in weights]
        graph = _graph_with({}, links)
        assert "".join(graph_to_json(graph)) == old_graph_json_text(graph)
        assert "".join(graph_to_dot(graph)) == old_graph_to_dot(graph)
        assert [repr(edge.weight) for edge in graph.edges()] == [repr(weight) for weight in weights]
