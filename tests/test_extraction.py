import concurrent.futures

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctipipe.extraction import (
    DEFAULT_FILENAME_EXTENSIONS,
    Indicator,
    IndicatorKind,
    _PRIORITY,
    _gather_candidates,
    classify_hash,
    extract_indicators,
    is_valid_ip,
    normalize_defanged,
)

from conftest import CLEAVER_MD5, CLEAVER_PDB, CLEAVER_SHA1, GOLDEN_DIR


class TestNormalizeDefanged:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("hxxp://a[.]b/c", "http://a.b/c"),
            ("user[at]mail[.]com", "user@mail.com"),
            ("plain text, no indicators", "plain text, no indicators"),
            ("hxxps://evil[dot]example", "https://evil.example"),
            ("HXXP://UP[.]example", "http://UP.example"),
            ("10(.)0(.)0{.}1", "10.0.0.1"),
            ("a[@]b.com", "a@b.com"),
        ],
    )
    def test_table(self, raw, expected):
        assert normalize_defanged(raw) == expected

    @given(st.text(alphabet=st.sampled_from("ab.[]{}()dothxps@:/ "), max_size=60))
    @example("[[dot]]")
    @example("[[at]]")
    @example("hxxhxxpp://x")
    def test_idempotent(self, text):
        once = normalize_defanged(text)
        assert normalize_defanged(once) == once

    @given(st.text(max_size=200))
    def test_never_grows(self, text):
        assert len(normalize_defanged(text)) <= len(text)

    def test_extra_table_entries(self):
        extra = [("[:]", ":")]
        assert normalize_defanged("http[:]//a[.]b", extra) == "http://a.b"


class TestClassifyHash:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (CLEAVER_MD5, IndicatorKind.MD5),
            (CLEAVER_SHA1, IndicatorKind.SHA1),
            ("a" * 64, IndicatorKind.SHA256),
        ],
    )
    def test_lengths(self, value, expected):
        assert classify_hash(value) == expected

    def test_unsupported_length(self):
        with pytest.raises(ValueError, match="not a supported hash length"):
            classify_hash("a" * 41)

    def test_non_hex(self):
        with pytest.raises(ValueError, match="hexadecimal"):
            classify_hash("z" * 32)


class TestExtractIndicators:
    def test_figure_values(self):
        text = normalize_defanged(
            (GOLDEN_DIR / "reports" / "Cylance_Operation_Cleaver_Report.txt").read_text()
        )
        indicators = extract_indicators(text, "cleaver")
        assert [(i.kind, i.value) for i in indicators] == [
            (IndicatorKind.FILENAME, "zhcat.exe"),
            (IndicatorKind.CVE, "CVE-2010-0232"),
            (IndicatorKind.IP, "64.120.128.154"),
            (IndicatorKind.IP, "64.120.128.154"),
            (IndicatorKind.URL, "http://update-cleaver-ops.net/tools/zhcat.exe"),
            (IndicatorKind.MD5, CLEAVER_MD5),
            (IndicatorKind.SHA1, CLEAVER_SHA1),
            (IndicatorKind.PDB, CLEAVER_PDB),
        ]

    def test_filename_and_cve_and_ip(self):
        got = extract_indicators("uses CVE-2010-0232 and C2 at 64.120.128.154", "r")
        assert [(i.kind, i.value) for i in got] == [
            (IndicatorKind.CVE, "CVE-2010-0232"),
            (IndicatorKind.IP, "64.120.128.154"),
        ]

    def test_single_filename(self):
        got = extract_indicators("dropped zhcat.exe via exploit", "r")
        assert [(i.kind, i.value) for i in got] == [(IndicatorKind.FILENAME, "zhcat.exe")]

    def test_octet_out_of_range(self):
        assert extract_indicators("version 999.1.1.1 of the tool", "r") == []

    def test_md5_line(self):
        got = extract_indicators(f"md5 {CLEAVER_MD5}", "r")
        assert [(i.kind, i.value) for i in got] == [(IndicatorKind.MD5, CLEAVER_MD5)]

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("stop at 1.2.3.4.", ["1.2.3.4"]),       # sentence period is not a dotted tail
            ("range 1.2.3.4.5 seen", []),             # five octets: embedded, rejected
            ("v1.2.3.40", ["1.2.3.40"]),
            ("x256.1.1.1", []),
            ("0.0.0.0 null route", ["0.0.0.0"]),
        ],
    )
    def test_ip_embedding_rules(self, text, expected):
        got = [i.value for i in extract_indicators(text, "r") if i.kind == IndicatorKind.IP]
        assert got == expected

    def test_url_suppresses_hostname_and_filename(self):
        got = extract_indicators("fetch http://files.evil.net/a/dropper.exe now", "r")
        assert [(i.kind, i.value) for i in got] == [
            (IndicatorKind.URL, "http://files.evil.net/a/dropper.exe"),
        ]

    def test_email_suppresses_domain_hostname(self):
        got = extract_indicators("contact ops@left-hand.org today", "r")
        assert [(i.kind, i.value) for i in got] == [(IndicatorKind.EMAIL, "ops@left-hand.org")]

    def test_filename_beats_hostname_on_same_span(self):
        got = extract_indicators("saved as archive.zip locally", "r")
        assert [(i.kind, i.value) for i in got] == [(IndicatorKind.FILENAME, "archive.zip")]

    def test_bare_hostname(self):
        got = extract_indicators("beacons to cdn.example-delivery.com hourly", "r")
        assert [(i.kind, i.value) for i in got] == [
            (IndicatorKind.HOSTNAME, "cdn.example-delivery.com"),
        ]

    def test_sha256_not_reported_as_embedded_md5(self):
        digest = "ab" * 32
        got = extract_indicators(f"sum {digest} end", "r")
        assert [(i.kind, i.value) for i in got] == [(IndicatorKind.SHA256, digest)]

    def test_odd_length_hex_run_ignored(self):
        assert extract_indicators("blob " + "a" * 48 + " end", "r") == []

    def test_uppercase_hash_lowercased(self):
        got = extract_indicators(f"MD5: {CLEAVER_MD5.upper()}", "r")
        assert got[0].value == CLEAVER_MD5

    def test_registry_path(self):
        text = r"persists via HKLM\Software\Microsoft\Windows\CurrentVersion\Run entries"
        got = extract_indicators(text, "r")
        assert [(i.kind, i.value) for i in got] == [
            (IndicatorKind.REGISTRY, r"HKLM\Software\Microsoft\Windows\CurrentVersion\Run"),
        ]

    def test_pdb_swallows_inner_names(self):
        text = r"symbols at c:\build\agent\Release\agent.pdb were left in"
        got = extract_indicators(text, "r")
        assert [(i.kind, i.value) for i in got] == [
            (IndicatorKind.PDB, r"c:\build\agent\Release\agent.pdb"),
        ]

    def test_extension_set_override(self):
        text = "ran payload.xyz and helper.exe"
        default = extract_indicators(text, "r")
        assert [i.value for i in default if i.kind == IndicatorKind.FILENAME] == ["helper.exe"]
        custom = extract_indicators(text, "r", extensions={"xyz"})
        assert [i.value for i in custom if i.kind == IndicatorKind.FILENAME] == ["payload.xyz"]

    def test_empty_document(self):
        assert extract_indicators("", "r") == []

    def test_source_id_carried(self):
        got = extract_indicators("at 8.8.8.8", "report-7")
        assert got[0].source_id == "report-7"


SAMPLE_DOC = normalize_defanged(
    "See hxxp://one[.]example-site.com/x.exe, mail boss[at]crew[.]net, "
    f"hash {CLEAVER_SHA1} and host c2.fallback-node.org plus 10.20.30.40 "
    r"and HKCU\Software\Run\agent plus d:\sym\a.pdb and CVE-2017-0144."
)


class TestInvariants:
    def test_sorted_and_non_overlapping(self):
        got = extract_indicators(SAMPLE_DOC, "r")
        offsets = [i.offset for i in got]
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)
        spans = [(i.offset, i.offset + len(i.value)) for i in got]
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_containment(self):
        got = extract_indicators(SAMPLE_DOC, "r")
        assert got
        for indicator in got:
            snippet = SAMPLE_DOC[indicator.offset:indicator.offset + len(indicator.value)]
            if indicator.kind in (IndicatorKind.MD5, IndicatorKind.SHA1, IndicatorKind.SHA256):
                assert snippet.lower() == indicator.value
            else:
                assert snippet == indicator.value

    def test_values_revalidate(self):
        for indicator in extract_indicators(SAMPLE_DOC, "r"):
            if indicator.kind == IndicatorKind.IP:
                assert is_valid_ip(indicator.value)
            if indicator.kind in (IndicatorKind.MD5, IndicatorKind.SHA1, IndicatorKind.SHA256):
                assert classify_hash(indicator.value).value == indicator.kind.value

    def test_deterministic_across_threads(self):
        expected = extract_indicators(SAMPLE_DOC, "r")
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: extract_indicators(SAMPLE_DOC, "r"), range(16)))
        assert all(result == expected for result in results)

    @given(st.text(alphabet=st.sampled_from("abc.x123:/@\\ \n"), max_size=120))
    @settings(max_examples=60)
    def test_random_text_invariants(self, text):
        doc = normalize_defanged(text)
        got = extract_indicators(doc, "r")
        last_end = 0
        for indicator in got:
            assert indicator.offset >= last_end
            last_end = indicator.offset + len(indicator.value)
            assert doc[indicator.offset:last_end].lower() == indicator.value.lower()

    @given(st.text(alphabet=st.sampled_from("abCVE-0123.pdbx:/@\\ \n"), max_size=120))
    @settings(max_examples=100)
    @example(SAMPLE_DOC)
    def test_candidate_order_is_total(self, text):
        # No two candidates share extract_indicators' sort key, so the order
        # in which _gather_candidates collects them cannot change the output.
        candidates = _gather_candidates(text, DEFAULT_FILENAME_EXTENSIONS)
        keys = {(c.start, c.start - c.end, _PRIORITY[c.kind]) for c in candidates}
        assert len(keys) == len(candidates)


def test_default_extension_list_matches_contract():
    for ext in ("exe", "dll", "sys", "doc", "docx", "xls", "xlsx", "ppt", "pptx",
                "pdf", "zip", "rar", "js", "vbs", "bat", "ps1", "jar", "apk",
                "scr", "tmp", "dat"):
        assert ext in DEFAULT_FILENAME_EXTENSIONS


def test_indicator_is_hashable():
    indicator = Indicator(IndicatorKind.IP, "1.2.3.4", "r", 0)
    assert len({indicator, indicator}) == 1
