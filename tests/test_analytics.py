import datetime as dt
import random

import pytest

from ctipipe.analytics import (
    CategoryLabel,
    PipelineSummary,
    category_counts,
    category_percentages,
    classify_category,
    compute_stat_tables,
    pipeline_summary,
    type_year_counts,
)
from ctipipe.enrichment import EnrichmentResult
from ctipipe.events import Attribute, Event, EventSet, MALWARE, REPORT
from ctipipe.store import load_all

from conftest import CLEAVER_SHA1, DATA_DIR


def naive_classify(value, parser_values, malware_values, report_text):
    """Independent set-algebra reimplementation used as the oracle."""
    in_p = any(v == value for v in parser_values)
    in_m = any(v == value for v in malware_values)
    if in_p and in_m:
        return CategoryLabel.BOTH
    if in_p:
        return CategoryLabel.PARSER_ONLY
    if not in_m:
        raise ValueError(value)

    def caseless(candidate):
        if all(c in "0123456789abcdefABCDEF" for c in candidate) and len(candidate) in (32, 40, 64):
            return True
        labels = candidate.split(".")
        if len(labels) < 2 or not labels[-1].isalpha() or len(labels[-1]) < 2:
            return False
        return all(
            label and label[0].isalnum() and label[-1].isalnum()
            and all(ch.isalnum() or ch == "-" for ch in label)
            for label in labels
        )

    if caseless(value):
        found = value.lower() in report_text.lower()
    else:
        found = value in report_text
    return CategoryLabel.MALWARE_IN_REPORT if found else CategoryLabel.MALWARE_NEW


class TestClassifyCategory:
    def test_parser_only(self):
        assert classify_category("x", {"x"}, set(), "") == CategoryLabel.PARSER_ONLY

    def test_both(self):
        assert classify_category("x", {"x"}, {"x"}, "") == CategoryLabel.BOTH

    def test_malware_new_sha1(self):
        # The analysis-side sha1 never shows up in the report body.
        text = "the report never mentions that digest"
        got = classify_category(CLEAVER_SHA1, {"other"}, {CLEAVER_SHA1}, text)
        assert got == CategoryLabel.MALWARE_NEW

    def test_malware_in_report_substring(self):
        text = "the dropper contacted panel.example.net over 443"
        got = classify_category("panel.example.net", set(), {"panel.example.net"}, text)
        assert got == CategoryLabel.MALWARE_IN_REPORT

    def test_hash_lookup_is_case_insensitive(self):
        text = f"hash {CLEAVER_SHA1.upper()} was listed"
        got = classify_category(CLEAVER_SHA1, set(), {CLEAVER_SHA1}, text)
        assert got == CategoryLabel.MALWARE_IN_REPORT

    def test_hostname_lookup_is_case_insensitive(self):
        got = classify_category("c2.evil.net", set(), {"c2.evil.net"}, "saw C2.EVIL.NET beaconing")
        assert got == CategoryLabel.MALWARE_IN_REPORT

    def test_other_values_case_sensitive(self):
        got = classify_category("MarkerString", set(), {"MarkerString"}, "markerstring appears lowercased")
        assert got == CategoryLabel.MALWARE_NEW

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError):
            classify_category("ghost", {"a"}, {"b"}, "")

    def test_randomized_against_oracle(self):
        rng = random.Random(515)
        hostnames = [f"host{i}.zone{i}.com" for i in range(8)]
        hashes = [f"{i:032x}" for i in range(8)]
        words = [f"Token{i}" for i in range(8)]
        vocabulary = hostnames + hashes + words
        for _ in range(100):
            parser_values = set(rng.sample(vocabulary, rng.randint(1, 8)))
            malware_values = set(rng.sample(vocabulary, rng.randint(1, 8)))
            mentioned = rng.sample(vocabulary, rng.randint(0, 10))
            text = " filler ".join(
                token.upper() if rng.random() < 0.5 else token for token in mentioned
            )
            for value in sorted(parser_values | malware_values):
                expected = naive_classify(value, parser_values, malware_values, text)
                assert classify_category(value, parser_values, malware_values, text) == expected


def make_event_set(title, parser_values, malware_values, set_id=1):
    report = Event(
        set_id,
        dt.date(2014, 12, 3),
        title,
        REPORT,
        [Attribute("Other", "", v, "other") for v in parser_values],
    )
    malware = Event(
        set_id + 1000,
        dt.date(2014, 12, 3),
        "a" * 32,
        MALWARE,
        [Attribute("Artifacts dropped", "", v, "other") for v in malware_values]
        + [Attribute("Other", "", title, "comment")],
    )
    return EventSet(title, report, [malware])


class TestCategoryPercentages:
    def test_uniform_four_values(self):
        event_set = make_event_set("r.pdf", ["p_only", "shared"], ["shared", "missed", "fresh"])
        texts = {"r.pdf": "the report mentions missed explicitly"}
        counts = category_counts([event_set], texts)
        assert counts == {
            CategoryLabel.PARSER_ONLY: 1,
            CategoryLabel.MALWARE_IN_REPORT: 1,
            CategoryLabel.BOTH: 1,
            CategoryLabel.MALWARE_NEW: 1,
        }
        assert category_percentages([event_set], texts) == {
            CategoryLabel.PARSER_ONLY: 25,
            CategoryLabel.MALWARE_IN_REPORT: 25,
            CategoryLabel.BOTH: 25,
            CategoryLabel.MALWARE_NEW: 25,
        }

    def test_percentages_always_total_100(self):
        rng = random.Random(77)
        for _ in range(40):
            parser_values = [f"p{i}" for i in range(rng.randint(1, 6))]
            malware_values = [f"m{i}" for i in range(rng.randint(1, 6))]
            event_set = make_event_set("r.pdf", parser_values, malware_values)
            texts = {"r.pdf": " ".join(rng.sample(malware_values, rng.randint(0, len(malware_values))))}
            percentages = category_percentages([event_set], texts)
            assert sum(percentages.values()) == 100

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            category_percentages([], {})

    def test_report_text_lowercased_once_per_set(self):
        lowered = []

        class CountingText(str):
            def lower(self):
                lowered.append(self)
                return str.lower(self)

        malware_values = ["c2.evil.net", "b.example.com", "a" * 32, "b" * 40, "Marker"]
        event_set = make_event_set("r.pdf", ["p"], malware_values)
        text = CountingText("saw C2.EVIL.NET, a Marker and " + "A" * 32)
        counts = category_counts([event_set], {"r.pdf": text})
        assert len(lowered) == 1
        expected = {label: 0 for label in CategoryLabel}
        for value in ["p", *malware_values]:
            expected[classify_category(value, {"p"}, set(malware_values), str(text))] += 1
        assert counts == expected
        assert counts[CategoryLabel.MALWARE_IN_REPORT] == 3

    def test_missing_report_text_rejected(self):
        event_set = make_event_set("r.pdf", ["a"], ["b"])
        with pytest.raises(ValueError, match="no report text"):
            category_counts([event_set], {})


class TestTypeYearCounts:
    def test_reference_pair_hand_count(self):
        events = load_all(DATA_DIR / "golden_store.jsonl")
        counts = type_year_counts(events)
        assert counts.attribute_counts[2014] == {
            "filename": 2,
            "vulnerability": 1,
            "ip-src": 2,
            "sha1": 1,
            "pdb": 1,
            "comment": 1,
        }
        assert counts.year_total(2014) == 8
        assert counts.report_events == {2014: 1}
        assert counts.malware_events == {2014: 1}

    def test_additivity(self):
        one = Event(1, dt.date(2014, 2, 2), "a.pdf", REPORT, [Attribute("Other", "", v, "other") for v in "abc"])
        two = Event(2, dt.date(2014, 3, 3), "b.pdf", REPORT, [Attribute("Other", "", v, "other") for v in "de"])
        assert type_year_counts([one, two]).year_total(2014) == 5

    def test_empty_dataset(self):
        counts = type_year_counts([])
        assert counts.years() == []
        assert counts.rows() == []

    def test_concatenation_is_additive(self):
        rng = random.Random(5)
        from conftest import random_event

        left = [random_event(rng, i) for i in range(1, 8)]
        right = [random_event(rng, i) for i in range(8, 15)]
        combined = type_year_counts(left + right)
        for year in combined.years():
            assert combined.year_total(year) == (
                type_year_counts(left).year_total(year) + type_year_counts(right).year_total(year)
            )

    def test_csv_shape(self):
        events = load_all(DATA_DIR / "golden_store.jsonl")
        csv = type_year_counts(events).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == (
            "year,hash,ip,url,email,date_time,cve,filename,pdb,code_sign,others,"
            "total,report_events,malware_events"
        )
        assert lines[1] == "2014,1,2,0,0,0,1,2,1,0,1,8,1,1"
        assert lines[2] == "total,1,2,0,0,0,1,2,1,0,1,8,1,1"

    def test_text_table_renders(self):
        events = load_all(DATA_DIR / "golden_store.jsonl")
        text = type_year_counts(events).to_text()
        assert "2014" in text and "report_events" in text


class TestPipelineSummary:
    def test_small_fixture_percentages(self):
        events = [
            Event(1, dt.date(2016, 1, 1), "r.pdf", REPORT, [
                Attribute("Payload installation", "", "a" * 32, "md5"),
                Attribute("Payload installation", "", "b" * 32, "md5"),
                Attribute("Payload installation", "", "c" * 40, "sha1"),
            ]),
        ]
        from ctipipe.enrichment import AnalysisRecord

        enrichment = EnrichmentResult(
            records={h: AnalysisRecord(md5=h) for h in ("a" * 32, "b" * 32, "d" * 32)},
            missing={"c" * 40},
            discovered={"d" * 32},
            query_count=4,
        )
        summary = pipeline_summary(events, enrichment)
        assert summary.extracted_hashes == 3
        assert summary.analyzed == 2
        assert summary.analyzed_pct == 66.7
        assert summary.discovered == 1
        assert summary.discovered_pct == 50.0

    def test_reference_scale_arithmetic(self):
        summary = PipelineSummary(
            reports=612,
            total_data=642810,
            extracted_hashes=14313,
            analyzed=9753,
            discovered=450,
        )
        assert summary.analyzed_pct == 68.1
        assert summary.discovered_pct == 4.6

    def test_zero_extracted_not_applicable(self):
        summary = PipelineSummary(1, 10, 0, 0, 0)
        assert summary.analyzed_pct is None
        assert summary.discovered_pct is None
        assert ",-" in summary.to_csv()

    def test_text_render_has_one_decimal(self):
        summary = PipelineSummary(2, 29, 3, 2, 1)
        text = summary.to_text()
        assert "66.7%" in text and "50.0%" in text


def test_compute_stat_tables_bundles_views():
    events = load_all(DATA_DIR / "golden_store.jsonl")
    text_path = DATA_DIR / "golden" / "reports" / "Cylance_Operation_Cleaver_Report.txt"
    texts = {"Cylance_Operation_Cleaver_Report.pdf": text_path.read_text()}
    enrichment = EnrichmentResult(query_count=1)
    tables = compute_stat_tables(events, enrichment, texts)
    assert tables.summary.reports == 1
    assert tables.by_type_year.year_total(2014) == 8
    assert sum(tables.category_pct.values()) == 100
