import datetime as dt
import hashlib
import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctipipe.analytics import (
    CategoryLabel,
    _in_report,
    PipelineSummary,
    ReportRuns,
    category_counts,
    category_percentages,
    classify_category,
    compute_stat_tables,
    pipeline_summary,
    type_year_counts,
)
from ctipipe.enrichment import EnrichmentResult
from ctipipe.events import Attribute, Event, EventSet, MALWARE, REPORT, group_event_sets, is_back_link
from ctipipe.store import load_all

from conftest import CLEAVER_SHA1, DATA_DIR, write_config
from test_extraction import _RUN_ENTRIES, _RUN_HEX


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
        texts = {"r.pdf": ReportRuns("the report mentions missed explicitly")}
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
            texts = {"r.pdf": ReportRuns(" ".join(rng.sample(malware_values, rng.randint(0, len(malware_values)))))}
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

        malware_values = ["c2.evil.net", "b.example.com", "a" * 32, "b" * 40, "Marker", "C" * 64]
        event_set = make_event_set("r.pdf", ["p"], malware_values)
        text = CountingText("saw C2.EVIL.NET, a Marker and " + "A" * 32 + " and " + "c" * 70)
        counts = category_counts([event_set], {"r.pdf": ReportRuns(text)})
        assert len(lowered) == 1
        expected = {label: 0 for label in CategoryLabel}
        for value in ["p", *malware_values]:
            expected[classify_category(value, {"p"}, set(malware_values), str(text))] += 1
        assert counts == expected
        assert counts[CategoryLabel.MALWARE_IN_REPORT] == 4

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
    texts = {"Cylance_Operation_Cleaver_Report.pdf": ReportRuns(text_path.read_text())}
    enrichment = EnrichmentResult(query_count=1)
    tables = compute_stat_tables(events, enrichment, texts)
    assert tables.summary.reports == 1
    assert tables.by_type_year.year_total(2014) == 8
    assert sum(tables.category_pct.values()) == 100


def _md5(text):
    return hashlib.md5(text.encode()).hexdigest()


SEED, DROPPED_EDGE, DROPPED_RUN, DROPPED_END, DROPPED_NEW, OTHER_SEED = map(
    _md5, ["seed", "edge", "run", "end", "new", "other"])
# Values that analysis alone yields, but that the report texts mention
# where the parser does not take them: hashes in upper case inside longer
# hex runs, one at each edge of a text; a filename and hostnames inside
# defanged URLs and an e-mail address, behind "hxxp", "HxXp", "[.]" and
# "[at]" (with the defanging left, the parser would take the hostnames
# themselves); and a string the text holds in the same case.
_IN_REPORT_TEXTS = {
    "seeded": (
        f"{DROPPED_EDGE.upper()}0 opens the dump. Sample {SEED} fetched HxXp://cdn[.]evil[.]example/dropper.bin"
        f" and hxxp://Update[.]Evil[.]example/ before mailing ops[at]mail[.]evil[.]example; its memory held"
        f" fff{DROPPED_RUN.upper()}ffff and it ended with 1{DROPPED_END}"
    ),
    "other": f"Sample {OTHER_SEED} wrote a log. hxxps://quiet[.]example/ {DROPPED_NEW[:31]}",
}
_IN_REPORT_ANALYSES = {
    SEED: {"md5": SEED, "filenames": ["dropper.bin", "unseen.bin"],
           "strings": ["cdn.evil.example", "update.evil.example", "mail.evil.example", "Evil"],
           "dropped_hashes": [DROPPED_EDGE, DROPPED_RUN, DROPPED_END, DROPPED_NEW]},
    DROPPED_RUN: {"md5": DROPPED_RUN, "dropped_hashes": [SEED]},
    OTHER_SEED: {"md5": OTHER_SEED, "mutexes": ["Global\\quiet"]},
}


def test_stats_counts_analysis_values_the_reports_mention(tmp_path, capsys):
    from ctipipe.cli import _normalized_report_texts, run_command
    from ctipipe.config import load_config
    from test_extraction import casefold_normalize_defanged

    reports, provider = tmp_path / "reports", tmp_path / "analyses"
    reports.mkdir()
    provider.mkdir()
    for day, (name, text) in enumerate(_IN_REPORT_TEXTS.items(), start=1):
        (reports / f"{name}.txt").write_text(text, encoding="utf-8")
        (reports / f"{name}.meta").write_text(f"title: {name}.pdf\ndate: 2020-01-0{day}\n", encoding="utf-8")
    for hash_value, document in _IN_REPORT_ANALYSES.items():
        (provider / f"{hash_value}.json").write_text(json.dumps(document), encoding="utf-8")
    config = write_config(tmp_path, reports, provider=provider, retry_backoff=0)
    for command in ("ingest", "enrich", "stats"):
        assert run_command(["-c", str(config), command]) == 0
    assert "malware_in_report 0%" not in capsys.readouterr().out

    event_sets = group_event_sets(load_all(tmp_path / "events.jsonl"))
    counts = category_counts(event_sets, _normalized_report_texts(load_config(config)))
    texts = {f"{name}.pdf": casefold_normalize_defanged(text) for name, text in _IN_REPORT_TEXTS.items()}
    expected = 0
    for event_set in event_sets:
        parser_values = {a.value for a in event_set.report_event.attributes}
        malware_values = {a.value for e in event_set.malware_events for a in e.attributes if not is_back_link(a)}
        expected += sum(
            classify_category(value, parser_values, malware_values, texts[event_set.report_title])
            is CategoryLabel.MALWARE_IN_REPORT
            for value in malware_values - parser_values
        )
    # The three dropped hashes, dropper.bin, the three hostnames and "Evil".
    assert counts[CategoryLabel.MALWARE_IN_REPORT] == expected == 8


DEFANGED_SEED, MIXED_CASE = map(_md5, ["defanged", "mixed"])
# Analysis-only values that the report mentions defanged ("1[.]2[.]3[.]4"
# inside a five-part number, "evil[dot]com" and "HXXP://" inside URLs the
# parser takes whole), a hash in mixed case inside a 35-digit hex run, and
# values that do not fit in the report's runs: two holding a space, one of
# them with a trigger, and one with no trigger at all.
_FALLBACK_TEXT = (
    f"Sample {DEFANGED_SEED} beaconed to 1[.]2[.]3[.]4[.]5 and fetched hxxp://evil[dot]com/path/x, then "
    f"HXXP://Cdn[.]Example[.]org/a/b/c. Memory held 0{MIXED_CASE[:16].upper()}{MIXED_CASE[16:]}ff. It printed "
    f"the evil corp banner for x.y evil and a Marker."
)
_FALLBACK_ANALYSIS = {
    "md5": DEFANGED_SEED,
    "contacted_ips": ["1.2.3.4"],
    "contacted_urls": ["http://Cdn.Example.org/a/b", "http://cdn.example.org/a/b"],
    "strings": ["evil.com", "evil corp", "x.y evil", "Marker", "absent value", "Gone.com"],
    "dropped_hashes": [MIXED_CASE],
}


def test_stats_counts_defanged_and_unfitting_values_as_the_whole_text_does(tmp_path):
    from ctipipe.cli import _normalized_report_texts, run_command
    from ctipipe.config import load_config
    from test_extraction import casefold_normalize_defanged

    reports, provider = tmp_path / "reports", tmp_path / "analyses"
    reports.mkdir()
    provider.mkdir()
    (reports / "r.txt").write_text(_FALLBACK_TEXT, encoding="utf-8")
    (reports / "r.meta").write_text("title: r.pdf\ndate: 2020-01-01\n", encoding="utf-8")
    (provider / f"{DEFANGED_SEED}.json").write_text(json.dumps(_FALLBACK_ANALYSIS), encoding="utf-8")
    config = write_config(tmp_path, reports, provider=provider, retry_backoff=0)
    for command in ("ingest", "enrich"):
        assert run_command(["-c", str(config), command]) == 0

    event_sets = group_event_sets(load_all(tmp_path / "events.jsonl"))
    counts = category_counts(event_sets, _normalized_report_texts(load_config(config)))
    whole = casefold_normalize_defanged(_FALLBACK_TEXT)
    expected = {label: 0 for label in CategoryLabel}
    (event_set,) = event_sets
    parser_values = {a.value for a in event_set.report_event.attributes}
    malware_values = {a.value for e in event_set.malware_events for a in e.attributes if not is_back_link(a)}
    for value in parser_values | malware_values:
        expected[classify_category(value, parser_values, malware_values, whole)] += 1
    assert counts == expected
    # 1.2.3.4, evil.com, the capitalized URL, the hash, "evil corp",
    # "x.y evil" and "Marker"; not the lowercase URL, "absent value" or
    # "Gone.com".
    assert counts[CategoryLabel.MALWARE_IN_REPORT] == 7
    assert counts[CategoryLabel.MALWARE_NEW] == 3


_COUNT_PIECES = st.sampled_from([
    " ", "\n", "\u00a0", "\u3000", "a", "b", "Ev", "[.]", "[dot]", "hXxP://", ".", "-", "@", ":", "\u00e9",
    "(dot)", "[ dot ]", "x y",
])


@given(st.lists(st.one_of(_COUNT_PIECES, _RUN_HEX), max_size=25).map("".join), st.lists(_RUN_ENTRIES, max_size=2),
       st.lists(st.tuples(st.integers(0, 150), st.one_of(st.integers(1, 45), st.sampled_from([32, 40, 64]))),
                max_size=8), st.lists(st.booleans(), max_size=8))
@settings(max_examples=300, deadline=None)
@example("X" + "aB" * 20 + " q", [], [(1, 32)], [True])
@example("evil(dot)com " + "F" * 32, [("(dot)", ".")], [(0, 8), (9, 32)], [False, True])
def test_report_runs_count_as_the_whole_text(raw, extra, slices, swaps):
    # Analysis values cut from the normalized text, some with their case
    # swapped, counted through ReportRuns and through the whole text, under
    # added defang entries too. Mixed-case hex runs of 31 to 65 digits and
    # slices of exactly 32, 40 and 64 characters make hashes that occur in
    # the text in another case, inside longer hex runs, or only in part.
    from ctipipe.extraction import indicator_runs, normalize_defanged

    whole = normalize_defanged(raw, extra)
    values = set()
    for (start, length), swap in zip(slices, swaps + [False] * len(slices)):
        value = whole[start:start + length]
        values.add(value.swapcase() if swap else value)
    malware_values = sorted(values - {""})
    event_set = make_event_set("r.pdf", ["p"], malware_values)
    expected = {label: 0 for label in CategoryLabel}
    for value in {"p", *malware_values}:
        # A hash is in the text caselessly, by its definition here rather
        # than through _in_report, which classify_category shares.
        if len(value) in (32, 40, 64) and all(c in string.hexdigits for c in value):
            found = value.lower() in whole.lower()
            expected[CategoryLabel.MALWARE_IN_REPORT if found else CategoryLabel.MALWARE_NEW] += 1
        else:
            expected[classify_category(value, {"p"}, set(malware_values), whole)] += 1
    runs = ReportRuns(indicator_runs(raw, extra), lambda: normalize_defanged(raw, extra))
    assert category_counts([event_set], {"r.pdf": runs}) == expected
