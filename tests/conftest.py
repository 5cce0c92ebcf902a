"""Shared fixtures: golden corpus paths, the reference analysis record, and
seeded random generators for property-style tests."""

import datetime as dt
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import pytest

from ctipipe.enrichment import AnalysisRecord, fetch_analysis
from ctipipe.events import Attribute, Event, MALWARE, REPORT, is_back_link
from ctipipe.providers import FixtureProvider

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
LAZARUS_DIR = DATA_DIR / "lazarus"

CLEAVER_MD5 = "836ef6b06c5fd52ecc910a3e3408004a"
CLEAVER_SHA1 = "723cdf97284e58a1672e031013620fe8d74e27f1"
CLEAVER_PDB = "e:\\Projects\\Cleaver\\trunk\\MainModule\\obj\\Release\\MainModule.pdb"
CLEAVER_TITLE = "Cylance_Operation_Cleaver_Report.pdf"
CLEAVER_DATE = dt.date(2014, 12, 3)


@pytest.fixture
def golden_provider() -> FixtureProvider:
    return FixtureProvider(GOLDEN_DIR / "provider")


@pytest.fixture
def cleaver_record(golden_provider) -> AnalysisRecord:
    record = fetch_analysis(CLEAVER_MD5, golden_provider)
    assert record is not None
    return record


@pytest.fixture
def cleaver_report_text() -> str:
    return (GOLDEN_DIR / "reports" / "Cylance_Operation_Cleaver_Report.txt").read_text()


def write_config(tmp_path: Path, reports_dir: Path, provider: Path | None = None, **extra) -> Path:
    """Write a key=value pipeline config into tmp_path and return its path."""
    lines = [
        f"reports_dir = {reports_dir}",
        f"store_path = {tmp_path / 'events.jsonl'}",
    ]
    if provider is not None:
        lines.append(f"provider = {provider}")
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "pipeline.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_python(*arguments):
    """A fresh interpreter with this checkout's ``src`` first on the path."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *arguments], env=env, capture_output=True, text=True, timeout=60)


_VALUE_CHARS = string.ascii_letters + string.digits + "._-"
_CATEGORIES = [
    "External analysis",
    "Network activity",
    "Payload installation",
    "Artifacts dropped",
    "Other",
]
_TYPES = [
    "md5", "sha1", "sha256", "ip-src", "url", "hostname", "email",
    "vulnerability", "registry", "filename", "pdb", "code-sign", "other",
    "comment",
]


def random_value(rng: random.Random, length: int = 16) -> str:
    return "".join(rng.choice(_VALUE_CHARS) for _ in range(rng.randint(1, length)))


def random_attribute(rng: random.Random) -> Attribute:
    return Attribute(
        category=rng.choice(_CATEGORIES),
        comment=rng.choice(["", "", "seen in sandbox", "original_filename"]),
        value=random_value(rng),
        type=rng.choice(_TYPES),
    )


def random_event(rng: random.Random, event_id: int = 0) -> Event:
    kind = rng.choice([REPORT, MALWARE])
    if kind == REPORT:
        info = random_value(rng, 12) + "_report.pdf"
    else:
        info = "".join(rng.choice("0123456789abcdef") for _ in range(rng.choice([32, 40, 64])))
    date = dt.date(2008, 1, 1) + dt.timedelta(days=rng.randrange(0, 4200))
    # The kind follows the back-links: one for a malware event, none for a report.
    attributes = [a for a in (random_attribute(rng) for _ in range(rng.randint(0, 6))) if not is_back_link(a)]
    if kind == MALWARE:
        back_link = Attribute("Other", "", random_value(rng, 12) + "_report.pdf", "comment")
        attributes.insert(rng.randint(0, len(attributes)), back_link)
    return Event(event_id, date, info, kind, attributes)
