"""ctipipe: turn security reports and malware analyses into a structured,
correlatable threat-event dataset.

The names below resolve on first access (PEP 562), so ``import ctipipe``
loads none of its modules and ``from ctipipe import X`` loads only the one
that defines X.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each exported name.
_EXPORTS = {
    "analytics": (
        "CategoryLabel", "PipelineSummary", "StatTables", "TypeYearCounts", "category_percentages",
        "classify_category", "pipeline_summary", "type_year_counts",
    ),
    "config": ("ConfigError", "PipelineConfig", "load_config"),
    "correlation": (
        "CorrelationGraph", "Edge", "GraphOptions", "Link", "build_graph", "exact_edges", "find_path",
        "fuzzy_edges", "temporal_timeline",
    ),
    "enrichment": (
        "AnalysisRecord", "EnrichmentResult", "build_malware_event", "enrich_transitively", "fetch_analysis",
        "record_to_attributes",
    ),
    "events": (
        "Attribute", "Event", "EventSet", "build_report_event", "document_to_event", "event_to_document",
        "group_event_sets",
    ),
    "extraction": ("Indicator", "IndicatorKind", "classify_hash", "extract_indicators", "normalize_defanged"),
    "filtering": (
        "DenyRule", "NoiseReport", "apply_denylist", "contextual_noise_scores", "dedup_attributes",
        "load_denylist",
    ),
    "providers": ("AnalysisDataError", "FixtureProvider", "HttpProvider", "ProviderError"),
    "store": ("EventStore", "StoreError", "load_all"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
