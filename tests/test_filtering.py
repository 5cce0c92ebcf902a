import datetime as dt
import random
from fnmatch import fnmatchcase

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctipipe.events import Attribute, Event, EventSet, HASH_TYPES, MALWARE, REPORT, is_back_link
from ctipipe.filtering import (
    DEFAULT_DENYLIST,
    DenyRule,
    DenylistError,
    NoiseReport,
    apply_denylist,
    contextual_noise_scores,
    dedup_attributes,
    drop_values,
    load_denylist,
    parse_denylist,
)

from conftest import random_event

DATE = dt.date(2016, 1, 1)


def report_event(event_id, title, values, type_token="other"):
    attributes = [Attribute("Other", "", value, type_token) for value in values]
    return Event(event_id, DATE, title, REPORT, attributes)


def event_set(index, values, type_token="other"):
    title = f"set_{index}.pdf"
    return EventSet(title, report_event(index, title, values, type_token))


def ordered_dedup(event):
    """dedup_attributes as it was before one dict held each pair's first
    attribute and comments: an order list, first positions and a copy of
    every kept attribute. The oracle for the single-dict merge."""
    order = []
    first = {}
    comments = {}
    for position, attribute in enumerate(event.attributes):
        key = (attribute.type, attribute.value)
        if key not in first:
            first[key] = position
            order.append(key)
            comments[key] = []
        if attribute.comment and attribute.comment not in comments[key]:
            comments[key].append(attribute.comment)
    merged = []
    for key in order:
        attribute = event.attributes[first[key]]._replace(comment="; ".join(comments[key]))
        merged.append(attribute)
    return event._replace(attributes=merged)


# Attributes over a small vocabulary, so (type, value) pairs and comments
# recur within one event, and a comment can already hold a join.
_dedup_events = st.builds(
    lambda kind, attributes: Event(1, DATE, "r.pdf", kind, attributes),
    st.sampled_from([REPORT, MALWARE]),
    st.lists(
        st.builds(
            Attribute,
            st.sampled_from(["Other", "External analysis"]),
            st.sampled_from(["", "a", "b", "a; b", "b; a"]),
            st.sampled_from(["x", "y", "X"]),
            st.sampled_from(["other", "filename"]),
            st.integers(0, 3),
        ),
        max_size=8,
    ),
)


class TestDedup:
    @given(_dedup_events)
    @settings(max_examples=400)
    def test_matches_ordered_oracle(self, event):
        assert dedup_attributes(event) == ordered_dedup(event)

    def test_matches_ordered_oracle_on_random_events(self):
        rng = random.Random(12)
        for _ in range(500):
            event = random_event(rng)
            event = event._replace(attributes=event.attributes + [
                a._replace(comment=rng.choice(["", "sandbox", a.comment])) for a in event.attributes
            ])
            rng.shuffle(event.attributes)
            assert dedup_attributes(event) == ordered_dedup(event)

    def test_exact_duplicate_merged(self):
        event = Event(1, DATE, "r.pdf", REPORT, [
            Attribute("External analysis", "", "zhcat.exe", "filename", 10),
            Attribute("External analysis", "", "zhcat.exe", "filename", 11),
        ])
        merged = dedup_attributes(event)
        assert len(merged.attributes) == 1
        assert merged.attributes[0].id == 10

    def test_distinct_pairs_untouched(self):
        event = Event(1, DATE, "r.pdf", REPORT, [
            Attribute("External analysis", "", "zhcat.exe", "filename"),
            Attribute("Payload installation", "", "836e" * 8, "md5"),
        ])
        assert dedup_attributes(event) == event

    def test_comments_concatenated_distinct_only(self):
        event = Event(1, DATE, "r.pdf", REPORT, [
            Attribute("Other", "first sight", "v", "other"),
            Attribute("Other", "", "v", "other"),
            Attribute("Other", "sandbox", "v", "other"),
            Attribute("Other", "first sight", "v", "other"),
        ])
        merged = dedup_attributes(event)
        assert merged.attributes[0].comment == "first sight; sandbox"

    def test_same_value_different_type_kept(self):
        event = Event(1, DATE, "r.pdf", REPORT, [
            Attribute("Other", "", "x", "other"),
            Attribute("External analysis", "", "x", "filename"),
        ])
        assert len(dedup_attributes(event).attributes) == 2

    def test_idempotent_on_random_events(self):
        rng = random.Random(99)
        for _ in range(300):
            event = random_event(rng)
            once = dedup_attributes(event)
            assert dedup_attributes(once) == once

    def test_preserves_distinct_pair_multiset(self):
        rng = random.Random(41)
        for _ in range(100):
            event = random_event(rng)
            before = {(a.type, a.value) for a in event.attributes}
            after = [(a.type, a.value) for a in dedup_attributes(event).attributes]
            assert sorted(set(after)) == sorted(before)
            assert len(after) == len(set(after))


def pairwise_matches(rule, attribute_type, value):
    """The denylist rule as apply_denylist once applied it to every
    (attribute, rule) pair, lowercasing both each time."""
    if rule.type_scope is not None and attribute_type != rule.type_scope:
        return False
    return fnmatchcase(value.lower(), rule.pattern.lower())


def pairwise_denylist(event, rules):
    """apply_denylist over pairwise_matches: the oracle for lowercasing each
    value and pattern once."""
    kept = [
        a for a in event.attributes
        if a.type == "comment"
        or (event.kind == MALWARE and a.type in HASH_TYPES)
        or not any(pairwise_matches(rule, a.type, a.value) for rule in rules)
    ]
    return event._replace(attributes=kept)


_deny_types = st.sampled_from(["filename", "other", "md5", "comment"])
_deny_events = st.builds(
    lambda kind, attributes: Event(1, DATE, "r.pdf", kind, attributes),
    st.sampled_from([REPORT, MALWARE]),
    st.lists(
        st.builds(
            Attribute,
            st.just("Other"),
            st.just(""),
            st.text(st.sampled_from("aAbB.*?[]İß"), max_size=6),
            _deny_types,
        ),
        max_size=8,
    ),
)
_deny_rules = st.lists(
    st.builds(DenyRule, st.text(st.sampled_from("aAbB.*?[]!İß"), min_size=1, max_size=5), st.none() | _deny_types),
    max_size=4,
)


class TestDenylist:
    @given(_deny_events, _deny_rules)
    def test_matches_pairwise_oracle(self, event, rules):
        assert apply_denylist(event, rules) == pairwise_denylist(event, rules)

    def test_literal_match_removed(self):
        event = Event(1, DATE, "r.pdf", REPORT, [
            Attribute("External analysis", "", "desktop.ini", "filename"),
            Attribute("External analysis", "", "payload.exe", "filename"),
        ])
        rules = parse_denylist(["desktop.ini", "thumbs.db"])
        assert [a.value for a in apply_denylist(event, rules).attributes] == ["payload.exe"]

    def test_case_insensitive(self):
        event = Event(1, DATE, "r.pdf", REPORT, [Attribute("External analysis", "", "Desktop.INI", "filename")])
        assert apply_denylist(event, [DenyRule("desktop.ini")]).attributes == []

    def test_empty_denylist_is_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            event = random_event(rng)
            assert apply_denylist(event, []) == event

    def test_scoped_glob_only_hits_scoped_type(self):
        event = Event(1, DATE, "m" * 32, MALWARE, [
            Attribute("External analysis", "", "a.tmp", "filename"),
            Attribute("Artifacts dropped", "", "b.tmp", "other"),
        ])
        rules = parse_denylist(["filename: *.tmp"])
        remaining = apply_denylist(event, rules).attributes
        assert [(a.type, a.value) for a in remaining] == [("other", "b.tmp")]

    def test_back_link_survives_wildcard(self):
        event = Event(1, DATE, "a" * 32, MALWARE, [
            Attribute("Other", "", "origin.pdf", "comment"),
            Attribute("Artifacts dropped", "", "junk", "other"),
        ])
        filtered = apply_denylist(event, [DenyRule("*")])
        assert [(a.type, a.value) for a in filtered.attributes] == [("comment", "origin.pdf")]

    def test_malware_own_hashes_survive(self):
        event = Event(1, DATE, "a" * 32, MALWARE, [
            Attribute("Payload installation", "", "a" * 32, "md5"),
            Attribute("External analysis", "", "x.exe", "filename"),
        ])
        filtered = apply_denylist(event, [DenyRule("*")])
        assert [a.type for a in filtered.attributes] == ["md5"]

    def test_report_hash_attributes_not_protected(self):
        event = Event(1, DATE, "r.pdf", REPORT, [Attribute("Payload installation", "", "a" * 32, "md5")])
        assert apply_denylist(event, [DenyRule("a*")]).attributes == []

    def test_idempotent(self):
        rng = random.Random(17)
        rules = [DenyRule("*a*"), DenyRule("*.tmp", "filename")]
        for _ in range(200):
            event = random_event(rng)
            once = apply_denylist(event, rules)
            assert apply_denylist(once, rules) == once

    def test_parse_comments_and_blanks(self):
        rules = parse_denylist(["# header", "", "thumbs.db  # os artifact", "filename: *.log"])
        assert rules == [DenyRule("thumbs.db"), DenyRule("*.log", "filename")]

    def test_parse_unknown_scope_treated_as_literal(self):
        # "C:" prefixes in plain path patterns must not be read as scopes.
        rules = parse_denylist([r"C:\Windows\Temp\*"])
        assert rules == [DenyRule(r"C:\Windows\Temp\*")]

    def test_parse_empty_pattern_rejected(self):
        with pytest.raises(DenylistError):
            parse_denylist(["filename:   "])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "deny.txt"
        path.write_text("desktop.ini\nfilename: *.tmp\n", encoding="utf-8")
        assert load_denylist(path) == [DenyRule("desktop.ini"), DenyRule("*.tmp", "filename")]

    def test_load_errors_name_the_file(self, tmp_path):
        malformed = tmp_path / "deny.txt"
        malformed.write_text("desktop.ini\nfilename:\n", encoding="utf-8")
        with pytest.raises(DenylistError) as err:
            load_denylist(malformed)
        assert str(err.value) == f"{malformed}: line 2: empty pattern"
        missing = tmp_path / "missing.txt"
        with pytest.raises(DenylistError) as err:
            load_denylist(missing)
        assert str(err.value) == f"cannot read denylist {missing}: No such file or directory"
        not_utf8 = tmp_path / "latin1.txt"
        not_utf8.write_bytes(b"r\xe9sum\xe9.doc\n")
        with pytest.raises(DenylistError) as err:
            load_denylist(not_utf8)
        assert str(err.value).startswith(f"{not_utf8}: 'utf-8' codec can't decode byte 0xe9")

    def test_default_denylist_covers_os_artifacts(self):
        values = {rule.pattern for rule in DEFAULT_DENYLIST}
        assert {"desktop.ini", "thumbs.db", "pagefile.sys"} <= values

    def test_drop_values_respects_protections(self):
        event = Event(1, DATE, "a" * 32, MALWARE, [
            Attribute("Payload installation", "", "a" * 32, "md5"),
            Attribute("Other", "", "origin.pdf", "comment"),
            Attribute("Network activity", "", "5.6.7.8", "ip-src"),
        ])
        dropped = drop_values(event, {"a" * 32, "origin.pdf", "5.6.7.8"})
        assert [a.type for a in dropped.attributes] == ["md5", "comment"]


def naive_noise_scores(dataset):
    """Independent recomputation: explicit pair sets and explicit loops."""
    pair_sets = []
    for event_set in dataset:
        pairs = set()
        for event in [event_set.report_event, *event_set.malware_events]:
            for a in event.attributes:
                if not (a.type == "comment" and a.category == "Other"):
                    pairs.add((a.type, a.value))
        pair_sets.append(pairs)
    values = {value for pairs in pair_sets for _, value in pairs}
    scores = {}
    for value in values:
        holders = [i for i, pairs in enumerate(pair_sets) if any(v == value for _, v in pairs)]
        if len(holders) < 2:
            scores[value] = 0.0
            continue
        sims = []
        for x in range(len(holders)):
            for y in range(x + 1, len(holders)):
                left = {p for p in pair_sets[holders[x]] if p[1] != value}
                right = {p for p in pair_sets[holders[y]] if p[1] != value}
                union = left | right
                sims.append(len(left & right) / len(union) if union else 0.0)
        scores[value] = (len(holders) / len(dataset)) * (1 - sum(sims) / len(sims))
    return scores


def distinct_pairs(event_set):
    """Distinct (type, value) pairs across the whole set, back-links excluded."""
    return {
        (a.type, a.value)
        for event in [event_set.report_event, *event_set.malware_events]
        for a in event.attributes
        if not is_back_link(a)
    }


def jaccard(a, b):
    """|a ∩ b| / |a ∪ b|; 0.0 when both sets are empty."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def pairwise_noise_scores(dataset, threshold):
    """contextual_noise_scores as it was before counting intersections: a
    reduced pair set and a Jaccard per pair of sets holding the value. The
    oracle for the counted version, summed in the same order."""
    set_pairs = [distinct_pairs(event_set) for event_set in dataset]
    membership = {}
    for index, pairs in enumerate(set_pairs):
        for _, value in pairs:
            membership.setdefault(value, [])
            if index not in membership[value]:
                membership[value].append(index)

    total = len(dataset)
    scores = {}
    for value, indices in membership.items():
        k = len(indices)
        if k < 2:
            scores[value] = 0.0
            continue
        reduced = [{p for p in set_pairs[i] if p[1] != value} for i in indices]
        similarities = [
            jaccard(reduced[i], reduced[j])
            for i in range(k)
            for j in range(i + 1, k)
        ]
        mean_similarity = sum(similarities) / len(similarities)
        scores[value] = (k / total) * (1.0 - mean_similarity)

    flagged = {value for value, score in scores.items() if score >= threshold}
    return NoiseReport(scores, threshold, flagged)


# Event sets over a small vocabulary, so values recur across sets and types:
# "everywhere" sits in every set, under a type each set draws, and malware
# events add pairs of their own plus a back-link.
_noise_types = st.sampled_from(["other", "filename", "hostname", "md5"])
_noise_pairs = st.lists(st.tuples(_noise_types, st.sampled_from(["a", "b", "c", "d", "e", "f"])), max_size=6)


@st.composite
def _noise_dataset(draw):
    sets = []
    for index in range(draw(st.integers(2, 7))):
        title = f"set_{index}.pdf"
        pairs = draw(_noise_pairs) + [(draw(_noise_types), "everywhere")]
        report = Event(index * 10, DATE, title, REPORT,
                       [Attribute("Other", "", value, type_token) for type_token, value in pairs])
        malware = [
            Event(index * 10 + m, DATE, "a" * 32, MALWARE,
                  [Attribute("Other", "", value, type_token) for type_token, value in extra]
                  + [Attribute("Other", "", title, "comment")])
            for m, extra in enumerate(draw(st.lists(_noise_pairs, max_size=2)), start=1)
        ]
        sets.append(EventSet(title, report, malware))
    return sets


class TestNoiseScores:
    @given(_noise_dataset(), st.floats(0.01, 1.0))
    @settings(max_examples=400)
    def test_matches_pairwise_oracle_exactly(self, sets, threshold):
        report = contextual_noise_scores(sets, threshold)
        expected = pairwise_noise_scores(sets, threshold)
        assert report.scores == expected.scores
        assert report.flagged == expected.flagged

    def test_value_under_several_types(self):
        # "x" is a filename in sets 0 and 1 but also "other" in set 1 and 2:
        # removing it drops two pairs from set 1.
        sets = [
            event_set(0, ["x", "p"], "filename"),
            EventSet("set_1.pdf", Event(1, DATE, "set_1.pdf", REPORT, [
                Attribute("Other", "", "x", "filename"),
                Attribute("Other", "", "x", "other"),
                Attribute("Other", "", "p", "filename"),
            ])),
            event_set(2, ["x", "q"]),
        ]
        report = contextual_noise_scores(sets)
        assert report.scores == pairwise_noise_scores(sets, 0.7).scores
        # set pairs (0,1): {p}/{p} = 1; (0,2) and (1,2): 0. Mean 1/3, k = 3 of 3.
        assert report.scores["x"] == pytest.approx(2 / 3)


    def test_value_in_all_disjoint_sets_scores_one(self):
        sets = [event_set(i, [f"unique_{i}_{j}" for j in range(3)] + ["shared"]) for i in range(5)]
        report = contextual_noise_scores(sets, threshold=0.7)
        assert report.scores["shared"] == pytest.approx(1.0, abs=1e-9)
        assert report.flagged == {"shared"}

    def test_single_set_value_scores_zero(self):
        sets = [event_set(0, ["only_here"]), event_set(1, ["elsewhere"])]
        report = contextual_noise_scores(sets)
        assert report.scores["only_here"] == 0.0
        assert report.flagged == set()

    def test_four_set_fixture_matches_brute_force(self):
        # Two sets share three extra values, so the suspect value's score drops.
        sets = [
            event_set(0, ["noise", "alpha", "beta", "gamma"]),
            event_set(1, ["noise", "alpha", "beta", "gamma", "delta"]),
            event_set(2, ["noise", "own_2"]),
            event_set(3, ["quiet", "own_3"]),
        ]
        report = contextual_noise_scores(sets, threshold=0.7)
        expected = naive_noise_scores(sets)
        assert set(report.scores) == set(expected)
        for value, score in expected.items():
            assert report.scores[value] == pytest.approx(score, abs=1e-9)
        # hand check of the suspect value: present in 3 of 4 sets; the pair
        # (set0, set1) shares {alpha, beta, gamma} of 4 distinct leftovers.
        assert report.scores["noise"] == pytest.approx((3 / 4) * (1 - (3 / 4) / 3), abs=1e-9)

    def test_randomized_against_brute_force(self):
        rng = random.Random(2024)
        vocabulary = [f"v{i}" for i in range(12)]
        for _ in range(25):
            sets = [
                event_set(i, rng.sample(vocabulary, rng.randint(1, 6)))
                for i in range(rng.randint(2, 5))
            ]
            report = contextual_noise_scores(sets)
            expected = naive_noise_scores(sets)
            for value, score in expected.items():
                assert report.scores[value] == pytest.approx(score, abs=1e-9)
                assert 0.0 <= report.scores[value] <= 1.0

    def test_monotone_in_k_for_disjoint_sets(self):
        def score_with_k(k):
            sets = [
                event_set(i, [f"u{i}a", f"u{i}b"] + (["shared"] if i < k else []))
                for i in range(6)
            ]
            return contextual_noise_scores(sets).scores.get("shared", 0.0)

        scores = [score_with_k(k) for k in range(2, 7)]
        assert scores == sorted(scores)

    def test_threshold_validated(self):
        sets = [event_set(0, ["a"]), event_set(1, ["b"])]
        with pytest.raises(ValueError):
            contextual_noise_scores(sets, threshold=1.5)
        with pytest.raises(ValueError):
            contextual_noise_scores(sets, threshold=0.0)

    def test_needs_two_sets(self):
        with pytest.raises(ValueError):
            contextual_noise_scores([event_set(0, ["a"])])

    def test_back_links_not_scored(self):
        sets = []
        for i in range(2):
            title = f"set_{i}.pdf"
            report = report_event(i * 2 + 1, title, [f"val{i}"])
            malware = Event(i * 2 + 2, DATE, "a" * 32, MALWARE, [
                Attribute("Payload installation", "", "a" * 32, "md5"),
                Attribute("Other", "", title, "comment"),
            ])
            sets.append(EventSet(title, report, [malware]))
        report = contextual_noise_scores(sets)
        assert not any(value.endswith(".pdf") for value in report.scores)
