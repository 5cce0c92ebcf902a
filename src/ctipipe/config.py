"""Pipeline configuration.

Two accepted file shapes: flat ``key = value`` lines (dotted keys for nesting,
"#" comments) or a single JSON object with the same keys. Relative paths are
resolved against the config file's directory. The API key for a live provider
is only ever named here, never stored: the value comes from the environment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .providers import AnalysisProvider, FixtureProvider, HttpProvider


class ConfigError(Exception):
    pass


@dataclass
class LiveProviderConfig:
    base_url: str
    api_key_env: str
    rate_limit: float = 4.0


@dataclass
class PipelineConfig:
    reports_dir: Path
    store_path: Path
    provider_fixture: Path | None = None
    provider_live: LiveProviderConfig | None = None
    depth_limit: int = 2
    denylist_path: Path | None = None
    fuzzy_threshold: float = 0.8
    noise_threshold: float = 0.7
    extensions: frozenset[str] | None = None
    defang_extra: tuple[tuple[str, str], ...] = ()
    retry_count: int = 3
    retry_backoff: float = 0.5
    max_workers: int = 4

    def validate(self) -> None:
        if not 0.0 < self.fuzzy_threshold <= 1.0:
            raise ConfigError(f"fuzzy_threshold must be within (0, 1], got {self.fuzzy_threshold}")
        if not 0.0 < self.noise_threshold <= 1.0:
            raise ConfigError(f"noise_threshold must be within (0, 1], got {self.noise_threshold}")
        if self.depth_limit < 1:
            raise ConfigError(f"depth_limit must be >= 1, got {self.depth_limit}")
        if self.retry_count < 0:
            raise ConfigError(f"retry_count must be >= 0, got {self.retry_count}")
        if self.max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {self.max_workers}")
        live = self.provider_live
        if live is not None:
            if not 0.0 < live.rate_limit < math.inf:
                raise ConfigError(f"provider.rate_limit must be finite and > 0, got {live.rate_limit}")
            url = urlsplit(live.base_url)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ConfigError(f"provider.base_url must be an http(s) URL with a host, got {live.base_url!r}")

    def make_provider(self) -> AnalysisProvider:
        if self.provider_fixture is not None:
            return FixtureProvider(self.provider_fixture)
        if self.provider_live is not None:
            live = self.provider_live
            return HttpProvider(live.base_url, live.api_key_env, live.rate_limit)
        raise ConfigError("no analysis provider configured (set provider or provider.base_url)")


def _parse_key_values(text: str) -> dict:
    data: dict = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {number}: empty key")
        if key.startswith("defang."):
            data.setdefault("defang", {})[key[len("defang."):]] = value
        elif key.startswith("provider."):
            data.setdefault("provider", {})[key[len("provider."):]] = value
        else:
            data[key] = value
    return data


def _as_number(data: dict, key: str, default: float, kind: type = float):
    if key not in data:
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError) as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {data[key]!r}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    else:
        data = _parse_key_values(text)

    base = path.parent

    def resolve(key: str, required: bool = False) -> Path | None:
        value = data.get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing required setting {key!r}")
            return None
        return (base / str(value)).resolve() if not Path(str(value)).is_absolute() else Path(str(value))

    provider_fixture = None
    provider_live = None
    provider = data.get("provider")
    if isinstance(provider, str):
        provider_fixture = (base / provider).resolve() if not Path(provider).is_absolute() else Path(provider)
    elif isinstance(provider, dict):
        try:
            provider_live = LiveProviderConfig(
                base_url=str(provider["base_url"]),
                api_key_env=provider["api_key_env"],
                rate_limit=_as_number(provider, "rate_limit", 4.0),
            )
        except KeyError as exc:
            raise ConfigError(f"provider: missing {exc.args[0]!r}") from exc
    elif provider is not None:
        raise ConfigError("provider must be a fixture directory or a base_url/api_key_env table")

    extensions = None
    raw_extensions = data.get("extensions")
    if raw_extensions is not None:
        items = raw_extensions if isinstance(raw_extensions, list) else str(raw_extensions).split(",")
        extensions = frozenset(ext.strip().lower().lstrip(".") for ext in items if ext.strip())
        if not extensions:
            raise ConfigError("extensions: expected at least one file extension")

    defang_extra: tuple[tuple[str, str], ...] = ()
    raw_defang = data.get("defang")
    if raw_defang is not None:
        if not isinstance(raw_defang, dict):
            raise ConfigError("defang: expected a mapping of defanged -> plain text")
        for pattern, replacement in raw_defang.items():
            if not pattern or len(str(replacement)) > len(str(pattern)):
                raise ConfigError(f"defang.{pattern}: replacement must not be longer than the pattern")
        defang_extra = tuple((str(k), str(v)) for k, v in raw_defang.items())

    config = PipelineConfig(
        reports_dir=resolve("reports_dir", required=True),
        store_path=resolve("store_path", required=True),
        provider_fixture=provider_fixture,
        provider_live=provider_live,
        depth_limit=_as_number(data, "depth_limit", 2, int),
        denylist_path=resolve("denylist"),
        fuzzy_threshold=_as_number(data, "fuzzy_threshold", 0.8),
        noise_threshold=_as_number(data, "noise_threshold", 0.7),
        extensions=extensions,
        defang_extra=defang_extra,
        retry_count=_as_number(data, "retry_count", 3, int),
        retry_backoff=_as_number(data, "retry_backoff", 0.5),
        max_workers=_as_number(data, "max_workers", 4, int),
    )
    config.validate()
    return config
