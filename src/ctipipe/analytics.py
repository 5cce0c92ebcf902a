"""Dataset statistics: where each value came from (parser, analysis, or both),
counts per data type and year, and the collection run summary."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .enrichment import EnrichmentResult
from .events import (
    Event,
    EventSet,
    MALWARE,
    REPORT,
    group_event_sets,
    report_hashes,
    value_holders,
)
from .extraction import is_valid_hash, looks_like_hostname


class CategoryLabel(Enum):
    """Provenance classes of a collected value."""

    PARSER_ONLY = "parser_only"
    MALWARE_IN_REPORT = "malware_in_report"
    BOTH = "both"
    MALWARE_NEW = "malware_new"


def classify_category(
    value: str,
    parser_values: set[str],
    malware_values: set[str],
    report_text: str,
) -> CategoryLabel:
    """Assign a provenance label to one value.

    Parser-only and both are pure set algebra; a value seen only in analysis
    results is split on whether the report text actually contained it (the
    parser simply missed it) or not (genuinely new data).
    """
    in_parser = value in parser_values
    in_malware = value in malware_values
    if not in_parser and not in_malware:
        raise ValueError(f"{value!r} is in neither value set")
    if in_parser:
        return CategoryLabel.BOTH if in_malware else CategoryLabel.PARSER_ONLY
    in_report = _in_report(value, report_text, report_text.lower())
    return CategoryLabel.MALWARE_IN_REPORT if in_report else CategoryLabel.MALWARE_NEW


def _in_report(value: str, report_text: str, lowered_text: str) -> bool:
    """Whether the report text contains ``value``, caselessly for hashes and
    hostnames; the caller lowercases the text once per report."""
    if is_valid_hash(value) or looks_like_hostname(value):
        return value.lower() in lowered_text
    return value in report_text


def category_counts(
    event_sets: list[EventSet],
    report_texts: dict[str, str],
) -> dict[CategoryLabel, int]:
    """Label every value of every event set, as :func:`classify_category`
    does; counts are per (set, value)."""
    counts = {label: 0 for label in CategoryLabel}
    for event_set in event_sets:
        text = report_texts.get(event_set.report_title)
        if text is None:
            raise ValueError(f"no report text for {event_set.report_title!r}")
        lowered = text.lower()
        # Side 0 is the report event, side 1 the malware events.
        holders = value_holders(((0, [event_set.report_event]), (1, event_set.malware_events))).items()
        parser_values = {value for (_, value), sides in holders if sides[0] == 0}
        malware_values = {value for (_, value), sides in holders if sides[-1] == 1}
        both = len(parser_values & malware_values)
        counts[CategoryLabel.BOTH] += both
        counts[CategoryLabel.PARSER_ONLY] += len(parser_values) - both
        analysis_only = malware_values - parser_values
        in_report = sum(_in_report(value, text, lowered) for value in analysis_only)
        counts[CategoryLabel.MALWARE_IN_REPORT] += in_report
        counts[CategoryLabel.MALWARE_NEW] += len(analysis_only) - in_report
    return counts


def _largest_remainder_percentages(counts: dict[CategoryLabel, int]) -> dict[CategoryLabel, int]:
    # Integer percentages that always total exactly 100.
    total = sum(counts.values())
    quotas = {label: 100.0 * counts[label] / total for label in CategoryLabel}
    result = {label: int(quotas[label]) for label in CategoryLabel}
    leftover = 100 - sum(result.values())
    by_remainder = sorted(
        CategoryLabel,
        key=lambda label: (-(quotas[label] - result[label]), list(CategoryLabel).index(label)),
    )
    for label in by_remainder[:leftover]:
        result[label] += 1
    return result


def category_percentages(
    event_sets: list[EventSet],
    report_texts: dict[str, str],
) -> dict[CategoryLabel, int]:
    if not event_sets:
        raise ValueError("dataset is empty")
    counts = category_counts(event_sets, report_texts)
    if sum(counts.values()) == 0:
        raise ValueError("dataset holds no classifiable values")
    return _largest_remainder_percentages(counts)


# Exchange-table column layout: which attribute type tokens feed each column.
TYPE_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("hash", ("md5", "sha1", "sha256")),
    ("ip", ("ip-src",)),
    ("url", ("url", "hostname")),
    ("email", ("email",)),
    ("date_time", ()),  # timestamps live on events, never as attributes
    ("cve", ("vulnerability",)),
    ("filename", ("filename",)),
    ("pdb", ("pdb",)),
    ("code_sign", ("code-sign",)),
    ("others", ("other", "registry", "comment")),
)


@dataclass
class TypeYearCounts:
    """Attribute counts per (year, attribute type) plus event counts per year."""

    attribute_counts: dict[int, dict[str, int]]
    report_events: dict[int, int]
    malware_events: dict[int, int]

    def years(self) -> list[int]:
        seen = set(self.attribute_counts) | set(self.report_events) | set(self.malware_events)
        return sorted(seen)

    def token_count(self, year: int, token: str) -> int:
        return self.attribute_counts.get(year, {}).get(token, 0)

    def year_total(self, year: int) -> int:
        return sum(self.attribute_counts.get(year, {}).values())

    def _column_value(self, year: int, tokens: tuple[str, ...]) -> int:
        return sum(self.token_count(year, token) for token in tokens)

    def rows(self) -> list[list[int | str]]:
        rows: list[list[int | str]] = []
        for year in self.years():
            row: list[int | str] = [year]
            row.extend(self._column_value(year, tokens) for _, tokens in TYPE_COLUMNS)
            row.append(self.year_total(year))
            row.append(self.report_events.get(year, 0))
            row.append(self.malware_events.get(year, 0))
            rows.append(row)
        if rows:
            totals: list[int | str] = ["total"]
            for index in range(1, len(rows[0])):
                totals.append(sum(int(row[index]) for row in rows))
            rows.append(totals)
        return rows

    def header(self) -> list[str]:
        return ["year", *(name for name, _ in TYPE_COLUMNS), "total", "report_events", "malware_events"]

    def to_csv(self) -> str:
        lines = [",".join(self.header())]
        for row in self.rows():
            lines.append(",".join(str(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = self.header()
        rows = [[str(cell) for cell in row] for row in self.rows()]
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
        out = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(header))]
        for row in rows:
            out.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(out) + "\n"


def type_year_counts(events: list[Event]) -> TypeYearCounts:
    attribute_counts: dict[int, dict[str, int]] = {}
    report_events: dict[int, int] = {}
    malware_events: dict[int, int] = {}
    for event in events:
        year = event.date.year
        if event.kind == REPORT:
            report_events[year] = report_events.get(year, 0) + 1
        elif event.kind == MALWARE:
            malware_events[year] = malware_events.get(year, 0) + 1
        per_year = attribute_counts.setdefault(year, {})
        for attribute in event.attributes:
            per_year[attribute.type] = per_year.get(attribute.type, 0) + 1
    return TypeYearCounts(attribute_counts, report_events, malware_events)


@dataclass
class PipelineSummary:
    """Collection-run totals in the processing-results shape."""

    reports: int
    total_data: int
    extracted_hashes: int
    analyzed: int
    discovered: int

    @property
    def analyzed_pct(self) -> float | None:
        if self.extracted_hashes == 0:
            return None
        return round(100.0 * self.analyzed / self.extracted_hashes, 1)

    @property
    def discovered_pct(self) -> float | None:
        if self.analyzed == 0:
            return None
        return round(100.0 * self.discovered / self.analyzed, 1)

    def _rows(self) -> list[tuple[str, int, float | None]]:
        return [
            ("reports", self.reports, None),
            ("data stored", self.total_data, None),
            ("extracted malware hashes", self.extracted_hashes, None),
            ("analyzed malware", self.analyzed, self.analyzed_pct),
            ("additionally extracted malware", self.discovered, self.discovered_pct),
        ]

    def to_text(self) -> str:
        lines = []
        for name, count, pct in self._rows():
            suffix = f"  {pct:.1f}%" if pct is not None else ""
            lines.append(f"{name:<32}{count:>10}{suffix}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["metric,count,percent"]
        for name, count, pct in self._rows():
            lines.append(f"{name},{count},{pct:.1f}" if pct is not None else f"{name},{count},-")
        return "\n".join(lines) + "\n"


def pipeline_summary(events: list[Event], enrichment: EnrichmentResult) -> PipelineSummary:
    """Totals for one collection run: how many hashes the reports yielded,
    how many had analysis, and how many new ones the analyses surfaced."""
    reports = sum(1 for e in events if e.kind == REPORT)
    total_data = sum(len(e.attributes) for e in events)
    extracted = set().union(*(report_hashes(e) for e in events if e.kind == REPORT))
    analyzed = sum(1 for h in enrichment.records if h not in enrichment.discovered)
    return PipelineSummary(
        reports=reports,
        total_data=total_data,
        extracted_hashes=len(extracted),
        analyzed=analyzed,
        discovered=len(enrichment.discovered),
    )


def categories_to_csv(percentages: dict[CategoryLabel, int]) -> str:
    header = ",".join(label.value for label in CategoryLabel)
    row = ",".join(str(percentages[label]) for label in CategoryLabel)
    return f"{header}\n{row}\n"


def categories_to_text(percentages: dict[CategoryLabel, int]) -> str:
    lines = [f"{label.value:<20}{percentages[label]:>4}%" for label in CategoryLabel]
    return "\n".join(lines) + "\n"


@dataclass
class StatTables:
    """The three statistics views over one dataset."""

    summary: PipelineSummary
    by_type_year: TypeYearCounts
    category_pct: dict[CategoryLabel, int]


def compute_stat_tables(
    events: list[Event],
    enrichment: EnrichmentResult,
    report_texts: dict[str, str],
) -> StatTables:
    event_sets = group_event_sets(events)
    return StatTables(
        summary=pipeline_summary(events, enrichment),
        by_type_year=type_year_counts(events),
        category_pct=category_percentages(event_sets, report_texts),
    )
