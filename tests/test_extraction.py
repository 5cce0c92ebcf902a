import concurrent.futures
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctipipe import extraction
from ctipipe.defang import SCHEME_DEFANGS
from ctipipe.extraction import (
    DEFANG_TABLE,
    DEFAULT_FILENAME_EXTENSIONS,
    Indicator,
    IndicatorKind,
    _PRIORITY,
    _Candidate,
    _gather_candidates,
    classify_hash,
    extract_indicators,
    is_valid_hash,
    is_valid_ip,
    normalize_defanged,
)

from conftest import CLEAVER_MD5, CLEAVER_PDB, CLEAVER_SHA1, GOLDEN_DIR, LAZARUS_DIR


# The whole-text bodies that the trigger-window scan and the casefold check
# replaced: the oracles for _gather_candidates and normalize_defanged.
def old_normalize_defanged(raw, extra_table=None):
    table = list(DEFANG_TABLE) + [tuple(entry) for entry in (extra_table or ())]
    text = raw
    for _ in range(100):
        previous = text
        for pattern, replacement in table:
            if pattern.lower() in {"hxxp", "hxxps"}:
                text = re.sub(re.escape(pattern), replacement, text, flags=re.IGNORECASE)
            else:
                text = text.replace(pattern, replacement)
        if text == previous:
            break
    return text


def casefold_normalize_defanged(raw, extra_table=None):
    """normalize_defanged before the ASCII splice: every scheme token goes
    through re.sub, skipped where the casefolded text lacks it."""
    table = list(DEFANG_TABLE) + [tuple(entry) for entry in (extra_table or ())]
    text = raw
    for _ in range(100):
        previous = text
        for pattern, replacement in table:
            if pattern.lower() in {"hxxp", "hxxps"}:
                if pattern.lower() in text.casefold():
                    text = re.sub(re.escape(pattern), replacement, text, flags=re.IGNORECASE)
            else:
                text = text.replace(pattern, replacement)
        if text == previous:
            break
    return text


def old_gather_candidates(doc, extensions):
    ex = extraction
    candidates = []

    for match in ex._URL_RE.finditer(doc):
        value = match.group(0).rstrip(ex._TRAILING_PUNCT)
        host = value.split("://", 1)[-1]
        if host:
            candidates.append(_Candidate(match.start(), match.start() + len(value), IndicatorKind.URL, value))

    for match in ex._REGISTRY_RE.finditer(doc):
        value = match.group(0).rstrip(ex._TRAILING_PUNCT)
        candidates.append(_Candidate(match.start(), match.start() + len(value), IndicatorKind.REGISTRY, value))

    for match in ex._HEX_RUN_RE.finditer(doc):
        run = match.group(0)
        if len(run) in ex._HASH_LENGTHS:
            candidates.append(
                _Candidate(match.start(), match.end(), ex._HASH_LENGTHS[len(run)], run.lower())
            )

    for match in ex._IP_RE.finditer(doc):
        if is_valid_ip(match.group(0)):
            candidates.append(_Candidate(match.start(), match.end(), IndicatorKind.IP, match.group(0)))

    plain = (
        (IndicatorKind.EMAIL, ex._EMAIL_RE),
        (IndicatorKind.PDB, ex._PDB_RE),
        (IndicatorKind.CVE, ex._CVE_RE),
        (IndicatorKind.FILENAME, ex._filename_pattern(extensions)),
        (IndicatorKind.HOSTNAME, ex._HOSTNAME_RE),
    )
    for kind, pattern in plain:
        for match in pattern.finditer(doc):
            candidates.append(_Candidate(match.start(), match.end(), kind, match.group(0)))

    return candidates


def old_extract_indicators(doc, source_id, extensions=None):
    with mock.patch.object(extraction, "_gather_candidates", old_gather_candidates):
        return extract_indicators(doc, source_id, extensions)


_OLD_TRIGGER_RE = re.compile(r"[.@\\:\-](?=\S)|[0-9A-Fa-f]{32}")


def old_windows(doc):
    """``_windows`` before the hex triggers were found in a byte mask: one
    pattern search for both kinds of trigger. The oracle for the mask."""
    end = 0
    while (trigger := _OLD_TRIGGER_RE.search(doc, end)) is not None:
        start = trigger.start()
        while start > end and not doc[start - 1].isspace():
            start -= 1
        end = re.compile(r"\S*").match(doc, trigger.end()).end()
        yield start, end


def candidate_key(candidate):
    return (candidate.start, candidate.end, candidate.kind.value, candidate.value)


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


# The overlap priorities as a hand-written table gave them before
# IndicatorKind's declaration order did: the oracle for _PRIORITY.
OLD_PRIORITY = {
    IndicatorKind.URL: 0,
    IndicatorKind.EMAIL: 1,
    IndicatorKind.REGISTRY: 2,
    IndicatorKind.PDB: 3,
    IndicatorKind.SHA256: 4,
    IndicatorKind.SHA1: 5,
    IndicatorKind.MD5: 6,
    IndicatorKind.CVE: 7,
    IndicatorKind.IP: 8,
    IndicatorKind.FILENAME: 9,
    IndicatorKind.HOSTNAME: 10,
}


def test_priority_follows_declaration_order():
    assert _PRIORITY == OLD_PRIORITY


def old_is_valid_hash(value):
    """is_valid_hash before it tested the length and the pattern itself:
    classify_hash's ValueError, caught."""
    try:
        classify_hash(value)
    except ValueError:
        return False
    return True


def _strings_of(alphabet):
    return st.integers(0, 70).flatmap(lambda n: st.text(alphabet, min_size=n, max_size=n))


class TestClassifyHash:
    @given(st.one_of(
        _strings_of("0123456789abcdefABCDEF"),
        _strings_of("0123456789abcdefABCDEFgxZ \n\u0660\u0661\u00b2\uff41"),
        st.text(max_size=70),
    ))
    @example("\u0661" * 32)
    @example("a" * 32 + "\n")
    def test_is_valid_hash_matches_classify_hash(self, value):
        assert is_valid_hash(value) is old_is_valid_hash(value)

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

    def test_ip_check_takes_the_patterns_digits(self):
        # "\u00b2" (superscript two) is a digit to str.isdigit() but not to int().
        assert not is_valid_ip("\u00b2.1.1.1")
        # ASCII isdecimal() accepts exactly the characters that [0-9] matches.
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"[0-9]", every) == [c for c in every if c.isascii() and c.isdecimal()]

    def test_ip_and_cve_take_ascii_digits_only(self):
        # Arabic-Indic digits are decimal to str.isdecimal() and to \d.
        got = extract_indicators("C2 at \u0661\u0662.\u0661.\u0661.\u0661 and 10.0.0.1 and "
                                 "CVE-\u0662\u0660\u0661\u0664-\u0661\u0662\u0663\u0664 x", "r")
        assert [(i.kind, i.value) for i in got] == [(IndicatorKind.IP, "10.0.0.1")]
        assert not is_valid_ip("\u0661\u0662.\u0661.\u0661.\u0661")
        assert not is_valid_ip("1.1.1.\u0661")

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


def test_extension_with_whitespace_rejected():
    # "backup.tar gz" would otherwise be one filename spanning a space.
    with pytest.raises(ValueError, match="whitespace"):
        extract_indicators("kept backup.tar gz here", "r", extensions={"exe", "tar gz"})
    # Raised again on every call: an error is not remembered as a pattern.
    with pytest.raises(ValueError, match="'tar gz' contains whitespace"):
        extract_indicators("kept", "r", extensions=["TAR GZ", ".exe"])


def test_filename_pattern_is_compiled_once_per_extension_set(monkeypatch):
    # Extensions no other test uses, so no compiled pattern of them exists yet.
    compiled = []

    def compile_recorded(pattern, flags=0):
        compiled.append(pattern)
        return compile_pattern(pattern, flags)

    compile_pattern = re.compile
    monkeypatch.setattr(re, "compile", compile_recorded)
    spellings = [["qz7", "QZ8", "qz9"], ("qz9", ".qz8", "QZ7"), {".QZ9", "Qz7", "qz8"},
                 frozenset({"qz8", "qz9", "qz7"}), iter(["QZ8", "qz7", ".Qz9", "qz9"])]
    patterns = [extraction._filename_pattern(spelling) for spelling in spellings]
    assert all(pattern is patterns[0] for pattern in patterns)
    assert len(compiled) == 1
    assert patterns[0].fullmatch("Dropper.QZ8")
    assert extraction._filename_pattern(["qz7", "qz8"]) is not patterns[0]
    assert len(compiled) == 2


EVERY_CHARACTER = "".join(map(chr, range(0x110000)))


def test_window_whitespace_is_the_patterns_whitespace():
    # _windows walks back over str.isspace(); the patterns exclude \s.
    assert [m.start() for m in re.finditer(r"\s", EVERY_CHARACTER)] == [
        i for i, ch in enumerate(EVERY_CHARACTER) if ch.isspace()
    ]


def test_scheme_letters_match_only_their_casefold():
    # normalize_defanged skips the case-insensitive hxxp/hxxps substitution
    # when the casefolded text lacks the pattern, which is exact only if no
    # character matches h, x, p or s under re.IGNORECASE without folding to it.
    matched = {
        letter: {m.group() for m in re.finditer(letter, EVERY_CHARACTER, re.IGNORECASE)}
        for letter in "hxps"
    }
    assert "\u017f" in matched["s"]  # long s: lowercase, yet it folds to "s"
    for letter, characters in matched.items():
        assert {ch.casefold() for ch in characters} == {letter}


_PIECES = st.sampled_from([
    "hxxp", "hXXps", "HxXp", "\u017f", "\u212a", "[.]", "(.)", "{.}", "[dot]", "[at]", "[@]", "[[dot]]",
    "://", "\\", "HKLM\\", "HKEY_CURRENT_USER\\", "CVE-2017-0144", "CVE-", "1.2.3.4", "999.1.1.1",
    "10.0.0", "\u0663", ".pdb", ".exe", ".zip", ".tar", ".gz", ".com", ".net", "@", "-", ":", ".", ",",
    ";", ")", "(", '"', "'", "<", ">", "|", "/", " ", "\n", "\t", "\u00a0", "\u2028", "\x1c", "\u3000",
    "example", "a-b", "mail", "http", "https", "ftp", "_", "x",
])
_HEX_RUNS = st.integers(1, 70).flatmap(
    lambda n: st.text(alphabet="0123456789abcdefABCDEF", min_size=n, max_size=n)
)
_SHORT = st.text(alphabet="abcdefxyzHKS019._-@:\\/ ", max_size=8)
_TEXTS = st.lists(st.one_of(_PIECES, _HEX_RUNS, _SHORT), max_size=40).map("".join)
_EXTENSIONS = st.one_of(
    st.none(),
    st.frozensets(
        st.sampled_from(["exe", "tar", "gz", "com", "pdb", "x", "1", "a-b", ".zip", "\u212a", "\u017f", "dll", "."]),
        min_size=1,
    ),
)
_DEFANG_ENTRIES = st.tuples(
    st.sampled_from(["HXXP", "hxxps", "[:]", "[x]", "(dot)", "[[.]]", "xx", "\u017f", "\u212a", "[-]"]),
    st.sampled_from(["", ".", ":", "x", "-", "http", "https"]),
).filter(lambda entry: len(entry[1]) <= len(entry[0]))


class TestAgainstOracles:
    @given(_TEXTS, _EXTENSIONS, st.booleans())
    @settings(max_examples=600)
    @example(SAMPLE_DOC, None, False)
    @example("f" * 31 + "x" + "0" * 32 + " \u00a0" + "A" * 64 + ".", None, False)
    @example("a.b hxxp://\u017f.com\u2028\u212a.exe x.\u00a0y", frozenset({"."}), True)
    def test_extract_matches_whole_text_scan(self, text, extensions, normalize):
        doc = normalize_defanged(text) if normalize else text
        gather_with = extensions or DEFAULT_FILENAME_EXTENSIONS
        assert sorted(_gather_candidates(doc, gather_with), key=candidate_key) == sorted(
            old_gather_candidates(doc, gather_with), key=candidate_key
        )
        assert extract_indicators(doc, "r", extensions) == old_extract_indicators(doc, "r", extensions)

    @pytest.mark.parametrize("path", sorted((GOLDEN_DIR / "reports").glob("*.txt")) + sorted(
        (LAZARUS_DIR / "reports").glob("*.txt")), ids=lambda path: path.name)
    def test_corpus_reports(self, path):
        raw = path.read_text(encoding="utf-8")
        assert normalize_defanged(raw) == old_normalize_defanged(raw)
        doc = normalize_defanged(raw)
        assert extract_indicators(doc, path.name) == old_extract_indicators(doc, path.name)
        assert list(extraction._windows(doc)) == list(old_windows(doc))

    @given(_TEXTS, st.lists(_DEFANG_ENTRIES, max_size=4))
    @settings(max_examples=600)
    @example("HXXPS://a[.]b", [])
    @example("hxxhxxpp://x \u017f hxx\u017f", [("[x]", "x")])
    @example("h[x]xp://\u212a", [("[x]", "x"), ("HXXP", "http")])
    def test_normalize_matches_oracle(self, text, extra):
        assert normalize_defanged(text, extra) == old_normalize_defanged(text, extra)


# Mostly ASCII, in mixed case, with nested tokens, the two non-ASCII
# letters re.IGNORECASE matches to an ASCII one and "İ", whose lowercase
# form is two characters long. The extra entries' replacements include
# ones re.sub reads as templates; a scheme entry matches only a token that
# an earlier entry of the same pass made, as "[x]" makes one of "h[x]xp".
_SCHEME_TEXTS = st.lists(st.sampled_from([
    "hxxp", "HXXP", "hXxPs", "HxXpS", "hxxhxxpp", "hxx", "Hx", "p", "s", "S", "[[dot]]", "[.]", "[[at]]",
    "h[x]xp", "H[x]Xps", "[x]", "://", " ", "a", "\u017f", "\u212a", "\u00e9", "\u0130",
]), max_size=12).map("".join)
_SCHEME_ENTRIES = st.lists(st.tuples(
    st.sampled_from(["HXXP", "hXxPs", "hxxps", "[x]", "[[.]]", "[dot"]),
    st.sampled_from(["", "http", "HTTPS", ".", "h\\g<0>", "\\n", "a\\\\b", "x"]),
), max_size=3)


@given(_SCHEME_TEXTS, _SCHEME_ENTRIES)
@settings(max_examples=600)
@example("HxXpS://a[[dot]]b hXXp://\u212a", [])
@example("h[x]xp://a", [("[x]", "x"), ("HXXP", "h\\g<0>")])
@example("\u0130 h[x]xps://a", [("[x]", "x"), ("hXxPs", "")])
@example("hXxPs://a", [("hXxPs", "\\n"), ("[dot", "")])
def test_normalize_matches_the_casefold_checked_body(text, extra):
    assert normalize_defanged(text, extra) == casefold_normalize_defanged(text, extra)


_WINDOW_HEX_RUNS = st.sampled_from([31, 32, 33, 64]).flatmap(
    lambda n: st.text(alphabet="0123456789abcdefABCDEF", min_size=n, max_size=n)
)
_WINDOW_PIECES = st.sampled_from([" ", "\n", "\u00a0", "\u3000", ".", "-", "@", ":", "\\", "x", "g", "é", "\u0663",
                                  "\uff10", "\U0001f600", "\ud800", "?"])
_WINDOW_TEXTS = st.lists(st.one_of(_WINDOW_HEX_RUNS, _WINDOW_PIECES, st.text(max_size=3)), max_size=12).map("".join)


class TestWindows:
    @given(_WINDOW_TEXTS)
    @settings(max_examples=800)
    @example("")
    @example("a" * 32)
    @example("a" * 31)
    @example("x " + "F" * 33)
    @example("0" * 64 + " x.y")
    @example("é" * 3 + "a" * 32 + "é")
    @example("a" * 31 + "é" + "b" * 32 + ".")
    @example("a" * 16 + ".x" + "b" * 32)
    @example("." + "c" * 32 + " d.")
    def test_matches_single_pattern_search(self, text):
        assert list(extraction._windows(text)) == list(old_windows(text))


class _RecordedPattern:
    """A compiled pattern that adds the length of every span it scans."""

    def __init__(self, pattern, scanned, name):
        self.pattern, self.scanned, self.name = pattern, scanned, name

    def finditer(self, string, pos=0, endpos=None):
        end = len(string) if endpos is None else min(endpos, len(string))
        self.scanned[self.name] = self.scanned.get(self.name, 0) + max(0, end - pos)
        return self.pattern.finditer(string, pos, end)


def _record_scans(monkeypatch):
    """Make the nine patterns add the length of each span they scan, by
    name, into the returned dict."""
    scanned = {}
    for name in ("_URL_RE", "_REGISTRY_RE", "_HEX_RUN_RE", "_IP_RE", "_EMAIL_RE", "_PDB_RE",
                 "_CVE_RE", "_HOSTNAME_RE"):
        monkeypatch.setattr(extraction, name, _RecordedPattern(getattr(extraction, name), scanned, name))
    filename_pattern = extraction._filename_pattern
    monkeypatch.setattr(
        extraction, "_filename_pattern",
        lambda extensions: _RecordedPattern(filename_pattern(extensions), scanned, "filename"),
    )
    return scanned


def test_patterns_scan_only_trigger_windows(monkeypatch):
    doc = normalize_defanged(
        (GOLDEN_DIR / "reports" / "Cylance_Operation_Cleaver_Report.txt").read_text()
    ) + "\n" + SAMPLE_DOC
    expected = extract_indicators(doc, "r")
    # The windows by their definition: whitespace-delimited runs that hold a
    # trigger character followed by a non-space, or 32 hex digits.
    budget = sum(
        len(run) for run in re.findall(r"\S+", doc) if re.search(r"[.@\\:\-]\S|[0-9A-Fa-f]{32}", run)
    )
    assert budget < len(doc) // 2
    scanned = _record_scans(monkeypatch)
    assert extract_indicators(doc, "r") == expected
    assert len(scanned) == 9
    for name, total in scanned.items():
        assert total <= budget, name


# Pieces for the run path: ASCII runs among non-ASCII text and non-ASCII
# whitespace, nested and split defang tokens, scheme tokens in mixed case,
# and hex runs of lengths on both sides of each hash length.
_RUN_PIECES = st.sampled_from([
    " ", "\n", "\t", "\u00a0", "\u2028", "\u3000", "\x1c", "\u00e9t\u00e9", "\u65e5\u672c", "\u0130", "\u017f",
    "\u212a", "\u0663", "[", "]", "[.]", "[[.]]", "[dot]", "[[dot]]", "[at]", "[@]", "(.)", "{.}", "dot", "at",
    "hxxp", "HXXP", "hXxPs", "HxXpS", "h[x]xp", "hxx", "x", "p", "://", "/", ".", "@", "-", ":", "\\", ",",
    "evil", "com", "mail", "a-b", "1.2.3.4", "10", "CVE-2017-0144", ".pdb", ".exe", "HKLM\\", "zz", "tp",
])
_RUN_HEX = st.sampled_from([31, 32, 33, 40, 64, 65]).flatmap(
    lambda n: st.text(alphabet="0123456789abcdefABCDEF", min_size=n, max_size=n)
)
_RUN_TEXTS = st.lists(st.one_of(_RUN_PIECES, _RUN_PIECES, _RUN_HEX), max_size=30).map("".join)
# Extra entries with empty replacements, backslash templates and
# whitespace; any of them sends indicator_runs down the whole-text path.
_RUN_ENTRIES = st.tuples(
    st.sampled_from(["[x]", "(dot)", "[:]", "xx", "[-]", "tpzz", "zz", "x", "\u2022", "[ dot ]", "x y", "HXXP",
                     "[\\]"]),
    st.sampled_from(["", ".", ":", "a", "-", " ", "tp.c", "\\n", "a\\\\b", "h\\g<0>"]),
).filter(lambda entry: len(entry[1]) <= len(entry[0]))


def _kinds_and_values(indicators):
    return [(indicator.kind, indicator.value) for indicator in indicators]


class TestIndicatorRuns:
    @given(_RUN_TEXTS, st.lists(_RUN_ENTRIES, max_size=3), st.sampled_from([None, frozenset({"exe", "x"})]))
    @settings(max_examples=500, deadline=None)
    @example("evil[dot]com", [], None)
    @example("a.com b.net", [], None)
    @example("x[ dot ]com", [("[ dot ]", ".")], None)
    @example("a" * 31 + "x", [("x", "a")], None)
    @example("evilhxxpzzom", [("tpzz", "tp.c")], None)
    @example("HxXpS://Evil[.]com\u3000" + "F" * 32 + "[.]x \u00a0ab[[dot]]cd", [], None)
    def test_extracts_what_the_whole_text_gives(self, text, extra, extensions):
        runs = extraction.indicator_runs(text, extra)
        whole = normalize_defanged(text, extra)
        assert _kinds_and_values(extract_indicators(runs, "r", extensions)) == _kinds_and_values(
            extract_indicators(whole, "r", extensions))

    @given(_RUN_TEXTS, st.lists(_RUN_ENTRIES, max_size=2), st.lists(st.tuples(
        st.booleans(), st.integers(0, 200), st.integers(1, 12)), max_size=6))
    @settings(max_examples=300, deadline=None)
    @example("x.y evil a.com b", [], [(True, 0, 8), (False, 0, 8), (False, 6, 9)])
    def test_holds_what_the_whole_text_holds(self, text, extra, slices):
        # Values cut from either text, so that ones spanning two runs occur.
        runs = extraction.indicator_runs(text, extra)
        whole = normalize_defanged(text, extra)
        for from_runs, start, length in slices:
            value = (runs if from_runs else whole)[start:start + length]
            if extraction.fits_in_runs(value):
                assert (value in runs) == (value in whole), value
                assert (value.lower() in runs.lower()) == (value.lower() in whole.lower()), value

    @pytest.mark.parametrize("path", sorted((GOLDEN_DIR / "reports").glob("*.txt")) + sorted(
        (LAZARUS_DIR / "reports").glob("*.txt")), ids=lambda path: path.name)
    def test_corpus_reports(self, path):
        raw = path.read_text(encoding="utf-8")
        assert _kinds_and_values(extract_indicators(extraction.indicator_runs(raw), path.name)) == _kinds_and_values(
            extract_indicators(normalize_defanged(raw), path.name))

    def test_raw_triggers_cover_the_builtin_table(self):
        # Each built-in pattern but the scheme tokens holds a trigger or
        # starts with one of the raw runs: "[dot]" and "[at]" with "[".
        for pattern, replacement in DEFANG_TABLE:
            assert not any(map(str.isspace, pattern + replacement)), pattern
            if pattern not in SCHEME_DEFANGS:
                assert extraction._RAW_TRIGGER_RE.match(pattern) or extraction._TRIGGER_RE.search(pattern), pattern

    @given(_RUN_TEXTS, st.lists(_RUN_ENTRIES, min_size=1, max_size=2))
    @settings(max_examples=100, deadline=None)
    @example("evil(dot)com", [("(dot)", ".")])
    def test_added_entries_keep_the_runs_of_the_normalized_text(self, text, extra):
        # Added patterns may hold whitespace, so the whole text is
        # normalized first; its runs are then picked by their definition.
        runs = re.findall(r"\S+", normalize_defanged(text, extra))
        expected = " ".join(run for run in runs if re.search(r"[.@\\:\-\[]\S|[0-9A-Fa-f]{32}", run))
        assert extraction.indicator_runs(text, extra) == expected

    def test_patterns_scan_the_runs_once(self, monkeypatch):
        # The trigger runs fill what indicator_runs returns, so each
        # pattern scans it whole rather than run by run.
        raw = (GOLDEN_DIR / "reports" / "Cylance_Operation_Cleaver_Report.txt").read_text() + "\n" + SAMPLE_DOC
        runs = extraction.indicator_runs(raw)
        expected = extract_indicators(runs, "r")
        scanned = _record_scans(monkeypatch)
        assert extract_indicators(runs, "r") == expected
        assert scanned == dict.fromkeys(scanned, len(runs)) and len(scanned) == 9

    def test_values_that_fit(self):
        assert extraction.fits_in_runs("evil.com")
        assert extraction.fits_in_runs("A" * 32)
        assert not extraction.fits_in_runs("a.b c")
        assert not extraction.fits_in_runs("Marker")
        assert not extraction.fits_in_runs("end.")
        assert not extraction.fits_in_runs("")


# The pdb pattern before its start was anchored at a segment's start.
_OLD_PDB_RE = re.compile(r"[^\s\"'<>|]+\.pdb\b", re.IGNORECASE)


@given(st.lists(st.sampled_from([*"ab.pdbPDB\\:/ \n\"'<>|_-\u00e9\u00a0", ".pdb", ".PDB"]), max_size=40).map("".join))
@settings(max_examples=400, deadline=None)
@example("a.pdb.pdb x.pdbq.pdb")
@example("a|b.pdb c\"d.pdb-e.pdb")
def test_anchored_pdb_pattern_matches_the_unanchored_one(text):
    assert [m.span() for m in extraction._PDB_RE.finditer(text)] == [m.span() for m in _OLD_PDB_RE.finditer(text)]
    # A match starts only where a segment does; there, it is the old one.
    for at in range(len(text) + 1):
        match, old = extraction._PDB_RE.match(text, at), _OLD_PDB_RE.match(text, at)
        if at and re.match(r"[^\s\"'<>|]", text[at - 1]):
            assert match is None
        else:
            assert (match and match.span()) == (old and old.span())
