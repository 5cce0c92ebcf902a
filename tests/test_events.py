import datetime as dt
import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctipipe.enrichment import AnalysisRecord, build_malware_event, record_to_attributes
from ctipipe.events import (
    ATTRIBUTE_TYPES,
    CATEGORY,
    Attribute,
    Event,
    EventSet,
    MALWARE,
    REPORT,
    build_report_event,
    document_to_event,
    event_to_document,
    event_to_json,
    event_to_line,
    group_event_sets,
    is_back_link,
    report_hashes,
    value_holders,
)
from ctipipe.extraction import Indicator, IndicatorKind

from conftest import (
    CLEAVER_DATE,
    CLEAVER_MD5,
    CLEAVER_PDB,
    CLEAVER_SHA1,
    CLEAVER_TITLE,
    random_event,
)


def indicator(kind, value):
    return Indicator(kind, value, "r", 0)


class TestBuildReportEvent:
    def test_filename_category(self):
        event = build_report_event(CLEAVER_TITLE, CLEAVER_DATE, [indicator(IndicatorKind.FILENAME, "zhcat.exe")])
        assert event.kind == REPORT
        assert event.info == CLEAVER_TITLE
        assert event.date == CLEAVER_DATE
        assert [(a.category, a.type, a.value) for a in event.attributes] == [
            ("External analysis", "filename", "zhcat.exe"),
        ]

    def test_ip_serialized_as_ip_src(self):
        event = build_report_event(CLEAVER_TITLE, CLEAVER_DATE, [indicator(IndicatorKind.IP, "64.120.128.154")])
        assert [(a.category, a.type) for a in event.attributes] == [("Network activity", "ip-src")]

    def test_cve_serialized_as_vulnerability(self):
        event = build_report_event(CLEAVER_TITLE, CLEAVER_DATE, [indicator(IndicatorKind.CVE, "CVE-2010-0232")])
        assert [(a.category, a.type) for a in event.attributes] == [("External analysis", "vulnerability")]

    @pytest.mark.parametrize(
        "kind,category",
        [
            (IndicatorKind.URL, "Network activity"),
            (IndicatorKind.HOSTNAME, "Network activity"),
            (IndicatorKind.EMAIL, "Network activity"),
            (IndicatorKind.MD5, "Payload installation"),
            (IndicatorKind.SHA1, "Payload installation"),
            (IndicatorKind.SHA256, "Payload installation"),
            (IndicatorKind.REGISTRY, "External analysis"),
            (IndicatorKind.PDB, "Artifacts dropped"),
        ],
    )
    def test_category_mapping(self, kind, category):
        event = build_report_event("t.pdf", CLEAVER_DATE, [indicator(kind, "x" * 32)])
        assert event.attributes[0].category == category

    def test_empty_indicator_list(self):
        event = build_report_event("t.pdf", CLEAVER_DATE, [])
        assert event.attributes == []

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError):
            build_report_event("", CLEAVER_DATE, [])

    def test_attribute_order_follows_indicators(self):
        indicators = [
            indicator(IndicatorKind.IP, "1.1.1.1"),
            indicator(IndicatorKind.FILENAME, "a.exe"),
            indicator(IndicatorKind.IP, "2.2.2.2"),
        ]
        event = build_report_event("t.pdf", CLEAVER_DATE, indicators)
        assert [a.value for a in event.attributes] == ["1.1.1.1", "a.exe", "2.2.2.2"]


class TestCategory:
    """events.CATEGORY is the one map from type token to category."""

    def test_every_indicator_kind_is_a_type(self):
        assert set(CATEGORY) == ATTRIBUTE_TYPES
        assert {kind.value for kind in IndicatorKind} <= ATTRIBUTE_TYPES
        event = build_report_event("t.pdf", CLEAVER_DATE, [indicator(kind, "v") for kind in IndicatorKind])
        assert [a.type for a in event.attributes] == [kind.value for kind in IndicatorKind]
        assert all(a.category == CATEGORY[a.type] for a in event.attributes)

    def test_every_record_field_emits_a_type(self):
        record = AnalysisRecord(
            md5="a" * 32, sha1="b" * 40, sha256="c" * 64, filenames=["f.exe"], contacted_ips=["1.2.3.4"],
            contacted_urls=["http://u.example"], pdb_paths=["p.pdb"], code_sign_serials=["00"],
            mutexes=["m"], file_mappings=["fm"], strings=["s"],
        )
        attributes = record_to_attributes(record, "r.pdf")
        assert [a.type for a in attributes] == [
            "filename", "ip-src", "url", "md5", "sha1", "sha256", "pdb", "code-sign", "other", "other", "other",
            "comment",
        ]
        assert all(a.category == CATEGORY[a.type] for a in attributes)


class TestBuildMalwareEvent:
    def test_cleaver_event(self, cleaver_record):
        event = build_malware_event(CLEAVER_MD5, cleaver_record, CLEAVER_TITLE, CLEAVER_DATE)
        assert event.kind == MALWARE
        assert event.info == CLEAVER_MD5
        assert event.date == CLEAVER_DATE
        assert len(event.attributes) == 5
        assert [(a.category, a.value) for a in event.attributes] == [
            ("External analysis", "zhcat.exe"),
            ("Network activity", "1.224.181.13"),
            ("Payload installation", CLEAVER_SHA1),
            ("Artifacts dropped", CLEAVER_PDB),
            ("Other", CLEAVER_TITLE),
        ]

    def test_absent_record(self):
        event = build_malware_event("f" * 40, None, "o.pdf", CLEAVER_DATE)
        assert [(a.type, a.value) for a in event.attributes] == [
            ("sha1", "f" * 40),
            ("comment", "o.pdf"),
        ]
        assert event.date == CLEAVER_DATE

    def test_compile_timestamp_wins(self):
        record = AnalysisRecord(
            md5="a" * 32,
            compile_timestamp=dt.datetime(2013, 5, 1, 10, 0, tzinfo=dt.timezone.utc),
        )
        event = build_malware_event("a" * 32, record, "o.pdf", CLEAVER_DATE)
        assert event.date == dt.date(2013, 5, 1)

    def test_invalid_hash_rejected(self):
        with pytest.raises(ValueError):
            build_malware_event("nothex", None, "o.pdf", CLEAVER_DATE)

    def test_info_lowercased(self):
        event = build_malware_event("A" * 32, None, "o.pdf", CLEAVER_DATE)
        assert event.info == "a" * 32


class TestDocuments:
    def figure_report_event(self):
        return Event(
            2852,
            CLEAVER_DATE,
            CLEAVER_TITLE,
            REPORT,
            [
                Attribute("External analysis", "", "zhcat.exe", "filename", 30996),
                Attribute("External analysis", "", "CVE-2010-0232", "vulnerability", 31056),
                Attribute("Network activity", "", "64.120.128.154", "ip-src", 30988),
            ],
        )

    def test_field_names_and_order(self):
        document = event_to_document(self.figure_report_event())
        assert list(document) == ["id", "date", "info", "Attribute"]
        assert document["info"] == CLEAVER_TITLE
        assert document["date"] == "2014-12-03"
        assert list(document["Attribute"][0]) == ["category", "comment", "value", "type", "id"]

    def test_zero_attribute_event(self):
        document = event_to_document(Event(1, CLEAVER_DATE, "t.pdf", REPORT, []))
        assert document["Attribute"] == []

    def test_export_import_round_trip_hand_event(self):
        event = self.figure_report_event()
        assert document_to_event(event_to_document(event)) == event

    def test_export_import_round_trip_random(self):
        rng = random.Random(20260808)
        for event_id in range(1, 60):
            event = random_event(rng, event_id)
            assert document_to_event(event_to_document(event)) == event

    @pytest.mark.parametrize("info", ["d41d8cd98f00b204e9800998ecf8427e", "a" * 40, "report.pdf"])
    def test_kind_follows_back_link_not_info(self, info):
        attributes = [Attribute("Payload installation", "", "a" * 32, "md5")]
        report = Event(1, CLEAVER_DATE, info, REPORT, attributes)
        assert document_to_event(event_to_document(report)).kind == REPORT
        malware = Event(2, CLEAVER_DATE, info, MALWARE, [*attributes, Attribute("Other", "", "r.pdf", "comment")])
        assert document_to_event(event_to_document(malware)).kind == MALWARE

    def test_two_back_links_malformed(self):
        links = [Attribute("Other", "", title, "comment") for title in ("a.pdf", "b.pdf")]
        with pytest.raises(ValueError, match="2 back-links"):
            document_to_event(event_to_document(Event(3, CLEAVER_DATE, "a" * 32, MALWARE, links)))

    def test_malformed_document(self):
        with pytest.raises(ValueError, match="malformed event"):
            document_to_event({"id": 1, "info": "x"})

    def test_malformed_attribute(self):
        document = {"id": 1, "date": "2014-12-03", "info": "t.pdf", "Attribute": [{"value": "x"}]}
        with pytest.raises(ValueError, match="malformed attribute"):
            document_to_event(document)

    @given(st.dates().flatmap(lambda d: st.sampled_from([
        d.isoformat(), f"{d.year:04d}{d.month:02d}{d.day:02d}",
        "{:04d}-W{:02d}-{}".format(*d.isocalendar()), "{:04d}W{:02d}{}".format(*d.isocalendar()),
        "{:04d}-W{:02d}".format(*d.isocalendar()[:2]), "{:04d}W{:02d}".format(*d.isocalendar()[:2]),
    ])))
    @example("20141203")  # fromisoformat reads these as 2014-12-03; a commit would rewrite them
    @example("2014-W49-3")
    def test_date_accepted_exactly_when_written_back_unchanged(self, date):
        document = event_to_document(Event(1, CLEAVER_DATE, "t.pdf", REPORT, []))
        document["date"] = date
        if dt.date.fromisoformat(date).isoformat() == date:
            assert document_to_event(document).date.isoformat() == date
        else:
            with pytest.raises(ValueError, match="is not YYYY-MM-DD"):
                document_to_event(document)

    # A field set to a value of another JSON type; type(), not isinstance():
    # a JSON true is no id, and neither is 1.0 or "1".
    @pytest.mark.parametrize("keys,value", [
        (("id",), True), (("id",), "1"), (("id",), 1.0), (("info",), 5), (("info",), None),
        (("Attribute",), {}), (("Attribute",), "x"), (("Attribute", 0), "x"),
        (("Attribute", 0, "id"), True), (("Attribute", 0, "id"), "1"), (("Attribute", 0, "value"), 5),
        (("Attribute", 0, "category"), None), (("Attribute", 0, "comment"), 1),
        (("Attribute", 0, "type"), ["md5"]),
    ])
    def test_wrongly_typed_field_malformed(self, keys, value):
        document = event_to_document(Event(1, CLEAVER_DATE, "t.pdf", REPORT, [
            Attribute("Payload installation", "", "a" * 32, "md5", 1),
        ]))
        target = document
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ValueError, match="malformed"):
            document_to_event(document)


# Text with what JSON escapes: quotes, backslashes, control characters,
# non-ASCII (including astral and lone surrogate code points).
_json_text = st.one_of(
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", "€", "\U0001f600", "\ud800", "a"])),
)
_json_events = st.builds(
    Event,
    st.integers(-(2**70), 2**70),
    st.dates(),
    _json_text,
    st.sampled_from([REPORT, MALWARE]),
    st.lists(st.builds(Attribute, _json_text, _json_text, _json_text, _json_text, st.integers(-(2**70), 2**70))),
)


def dumped_event(event):
    """The export document as the standard encoder writes it."""
    return json.dumps(event_to_document(event), indent=2) + "\n"


class TestEventJson:
    @given(_json_events)
    def test_matches_standard_encoder(self, event):
        assert event_to_json(event) == dumped_event(event)

    def test_zero_attribute_event(self):
        text = event_to_json(Event(1, CLEAVER_DATE, "t.pdf", REPORT, []))
        assert '\n  "Attribute": []\n}\n' in text
        assert text == dumped_event(Event(1, CLEAVER_DATE, "t.pdf", REPORT, []))

    def test_matches_standard_encoder_on_random_events(self):
        rng = random.Random(20261018)
        for event_id in range(1, 60):
            event = random_event(rng, event_id)
            assert event_to_json(event) == dumped_event(event)


def dumped_line(event):
    """The store line as the standard encoder writes it."""
    return json.dumps(event_to_document(event)) + "\n"


class TestEventLine:
    @given(_json_events)
    @example(Event(0, dt.date(1, 1, 1), "", REPORT, []))
    @example(Event(-(2**70), dt.date(9999, 12, 31), "\ud800\U0001f600\"\\", MALWARE,
                   [Attribute("\udfff", "\x00\n", "é€", "\x7f", 2**70)]))
    def test_matches_standard_encoder(self, event):
        assert event_to_line(event) == dumped_line(event)

    def test_zero_attribute_event(self):
        event = Event(1, CLEAVER_DATE, "t.pdf", REPORT, [])
        assert event_to_line(event) == dumped_line(event) == (
            '{"id": 1, "date": "2014-12-03", "info": "t.pdf", "Attribute": []}\n'
        )

    def test_matches_standard_encoder_on_random_events(self):
        rng = random.Random(20261020)
        for event_id in range(1, 60):
            event = random_event(rng, event_id)
            assert event_to_line(event) == dumped_line(event)


class TestReportHashes:
    def test_report_hashes_lowercased_hash_types_only(self):
        event = Event(1, CLEAVER_DATE, CLEAVER_TITLE, REPORT, [
            Attribute("Payload installation", "", CLEAVER_MD5.upper(), "md5"),
            Attribute("Payload installation", "", CLEAVER_SHA1, "sha1"),
            Attribute("Payload installation", "", CLEAVER_MD5, "md5"),
            Attribute("Network activity", "", "aa" * 16, "hostname"),
        ])
        assert report_hashes(event) == {CLEAVER_MD5, CLEAVER_SHA1}


# Few types and values, so values repeat within an event, across events and
# under two types; "comment" under "Other" is a back-link, under another
# category a plain value. A group may hold no event or an event without
# attributes, and two groups may share a key.
_holder_attributes = st.lists(st.builds(
    Attribute,
    st.sampled_from(["Other", "Artifacts dropped"]),
    st.just(""),
    st.sampled_from(["a", "b", "r.pdf"]),
    st.sampled_from(["comment", "other", "filename"]),
    st.just(0),  # the id, which value_holders does not read
), max_size=5)
_holder_groups = st.lists(st.tuples(
    st.integers(0, 6),
    st.lists(st.builds(Event, st.just(0), st.just(dt.date(2020, 1, 1)), st.just("e"), st.just(REPORT),
                       _holder_attributes), max_size=3),
), max_size=6)


_HOLDER_EXAMPLE = [
    (3, [Event(0, dt.date(2020, 1, 1), "e", MALWARE, [
        Attribute("Other", "", "a", "other"), Attribute("Other", "", "a", "other"),
        Attribute("Other", "", "a", "filename"), Attribute("Other", "", "r.pdf", "comment"),
    ])]),
    (1, []),
    (2, [Event(0, dt.date(2020, 1, 1), "e", REPORT, [])]),
    (1, [Event(0, dt.date(2020, 1, 1), "e", REPORT, [Attribute("Other", "", "a", "other")])]),
]


def brute_force_holders(groups, count_back_links):
    held = [(key, (a.type, a.value)) for key, events in groups for event in events for a in event.attributes
            if count_back_links or not is_back_link(a)]
    return {pair: sorted({key for key, other in held if other == pair}) for _, pair in held}


class TestValueHolders:
    @given(_holder_groups, st.booleans())
    @example(_HOLDER_EXAMPLE, True)
    @example(_HOLDER_EXAMPLE, False)
    def test_matches_brute_force(self, groups, count_back_links):
        assert value_holders(groups, count_back_links) == brute_force_holders(groups, count_back_links)


class TestGrouping:
    def make_set(self, title, event_id, malware_ids):
        report = Event(event_id, CLEAVER_DATE, title, REPORT, [])
        malware = [
            Event(
                m_id,
                CLEAVER_DATE,
                f"{m_id:032x}",
                MALWARE,
                [
                    Attribute("Payload installation", "", f"{m_id:032x}", "md5"),
                    Attribute("Other", "", title, "comment"),
                ],
            )
            for m_id in malware_ids
        ]
        return [report, *malware]

    def test_round_trip_grouping(self):
        events = self.make_set("one.pdf", 1, [2, 3]) + self.make_set("two.pdf", 4, [5])
        sets = group_event_sets(events)
        assert [(s.report_title, [m.id for m in s.malware_events]) for s in sets] == [
            ("one.pdf", [2, 3]),
            ("two.pdf", [5]),
        ]

    def test_orphan_back_link_rejected(self):
        events = self.make_set("one.pdf", 1, [2])
        events[1].attributes[1] = events[1].attributes[1]._replace(value="missing.pdf")
        with pytest.raises(ValueError, match="unknown report"):
            group_event_sets(events)

    def test_malware_without_back_link_rejected(self):
        events = self.make_set("one.pdf", 1, [2])
        events[1] = events[1]._replace(attributes=[a for a in events[1].attributes if not is_back_link(a)])
        with pytest.raises(ValueError, match="back-link"):
            group_event_sets(events)

    def test_report_with_back_link_rejected(self):
        events = self.make_set("one.pdf", 1, [])
        events[0] = events[0]._replace(attributes=[Attribute("Other", "", "one.pdf", "comment")])
        with pytest.raises(ValueError, match="report event 1 has a back-link"):
            group_event_sets(events)

    def test_duplicate_report_rejected(self):
        events = self.make_set("one.pdf", 1, []) + self.make_set("one.pdf", 2, [])
        with pytest.raises(ValueError, match="duplicate report"):
            group_event_sets(events)

    def test_event_set_invariant_holds(self, cleaver_record):
        report = Event(1, CLEAVER_DATE, CLEAVER_TITLE, REPORT, [])
        malware = build_malware_event(CLEAVER_MD5, cleaver_record, CLEAVER_TITLE, CLEAVER_DATE)
        malware = malware._replace(id=2)
        grouped = group_event_sets([report, malware])
        assert isinstance(grouped[0], EventSet)
        for event in grouped[0].malware_events:
            back_link = [a for a in event.attributes if is_back_link(a)][0]
            assert back_link.value == grouped[0].report_title
