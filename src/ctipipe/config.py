"""Pipeline configuration.

Two accepted file shapes: flat ``key = value`` lines (dotted keys for nesting,
"#" comments) or a single JSON object with the same keys. Relative paths are
resolved against the config file's directory. The API key for a live provider
is only ever named here, never stored: the value comes from the environment.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple
from urllib.parse import urlsplit

from .providers import AnalysisProvider, FixtureProvider, HttpProvider


class ConfigError(Exception):
    pass


class LiveProviderConfig(NamedTuple):
    base_url: str
    api_key_env: str
    rate_limit: float = 4.0


class PipelineConfig(NamedTuple):
    """The settings of one pipeline. :func:`load_config` returns them
    validated; a copy made with ``_replace`` needs its own :meth:`validate`."""

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
        if not 0.0 <= self.retry_backoff < math.inf:
            raise ConfigError(f"retry_backoff must be finite and >= 0, got {self.retry_backoff}")
        if self.max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.extensions is not None:
            from .extraction import _filename_pattern  # only here: importing it compiles the indicator patterns

            try:
                _filename_pattern(self.extensions)
            except ValueError as exc:
                raise ConfigError(f"extensions: {exc}") from exc
        if self.defang_extra:
            from .defang import DEFANG_TABLE, SCHEME_DEFANGS

            # The built-in entry runs first in every pass, so a repeat of it
            # would fire only on a token nested inside another.
            for pattern, _ in self.defang_extra:
                for builtin, _ in DEFANG_TABLE:
                    if pattern == builtin or (builtin in SCHEME_DEFANGS and pattern.lower() == builtin):
                        raise ConfigError(f"defang.{pattern}: repeats the built-in defang pattern {builtin!r}")
        live = self.provider_live
        if live is not None:
            if not isinstance(live.api_key_env, str) or not live.api_key_env:
                raise ConfigError(f"provider.api_key_env must name an environment variable, got {live.api_key_env!r}")
            if not 0.0 < live.rate_limit < math.inf:
                raise ConfigError(f"provider.rate_limit must be finite and > 0, got {live.rate_limit}")
            try:
                url = urlsplit(live.base_url)
            except ValueError as exc:  # e.g. an unclosed IPv6 bracket
                raise ConfigError(f"provider.base_url is not a valid URL: {exc}, got {live.base_url!r}") from exc
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ConfigError(f"provider.base_url must be an http(s) URL with a host, got {live.base_url!r}")

    def make_provider(self) -> AnalysisProvider:
        if self.provider_fixture is not None:
            # Checked on use, not at load: commands that read no analyses run without it.
            if not self.provider_fixture.is_dir():
                raise ConfigError(f"provider directory not found: {self.provider_fixture}")
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
        table, dot, name = key.partition(".")
        nested = bool(dot) and table in ("defang", "provider")
        if table in data and isinstance(data[table], dict) != nested:
            raise ConfigError(f"line {number}: {key}: {table} is set both as one value and as {table}.* lines")
        if nested:
            data.setdefault(table, {})[name] = value
        else:
            data[key] = value
    return data


# The numeric settings a file may set, with their types. A setting the file
# leaves out keeps its field default.
_NUMBERS = {
    "depth_limit": int,
    "fuzzy_threshold": float,
    "noise_threshold": float,
    "retry_count": int,
    "retry_backoff": float,
    "max_workers": int,
}


def _numbers(data: dict, kinds: dict[str, type]) -> dict:
    """The settings of ``kinds`` that ``data`` sets, popped, each parsed as its kind.
    A JSON boolean is no number, and an integer setting takes no fraction:
    ``int()`` and ``float()`` would read ``true`` as 1 and cut 2.7 to 2."""
    numbers = {}
    for key, kind in kinds.items():
        if key not in data:
            continue
        value = data.pop(key)
        expected = "an integer" if kind is int else "a number"
        if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
            raise ConfigError(f"{key}: expected {expected}, got {value!r}")
        try:
            numbers[key] = kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from exc
    return numbers


def _string(key: str, value) -> str:
    """``value`` if it is a string. A JSON file may give a setting any type,
    and ``str()`` would load the list ``["r"]`` as the path "['r']"."""
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    else:
        data = _parse_key_values(text)

    def resolve(key: str, value) -> Path:
        # An empty value would resolve to the config file's own directory.
        if not _string(key, value).strip():
            raise ConfigError(f"{key}: expected a path, got {value!r}")
        value = Path(value)
        return value if value.is_absolute() else (path.parent / value).resolve()

    # Each setting read is popped from ``data``, so a key left names none.
    settings = _numbers(data, _NUMBERS)
    provider = data.pop("provider", None)
    if isinstance(provider, str):
        settings["provider_fixture"] = resolve("provider", provider)
    elif isinstance(provider, dict):
        try:
            settings["provider_live"] = LiveProviderConfig(
                base_url=_string("provider.base_url", provider.pop("base_url")),
                api_key_env=provider.pop("api_key_env"),
                **_numbers(provider, {"rate_limit": float}),
            )
        except KeyError as exc:
            raise ConfigError(f"provider: missing {exc.args[0]!r}") from exc
        if provider:
            raise ConfigError(f"unknown setting {', '.join('provider.' + key for key in provider)}")
    elif provider is not None:
        raise ConfigError("provider must be a fixture directory or a base_url/api_key_env table")

    raw_extensions = data.pop("extensions", None)
    if raw_extensions is not None:
        items = raw_extensions.split(",") if isinstance(raw_extensions, str) else raw_extensions
        if not isinstance(items, list) or not all(isinstance(ext, str) for ext in items):
            raise ConfigError(f"extensions: expected a string or a list of strings, got {raw_extensions!r}")
        settings["extensions"] = frozenset(ext.strip().lower().lstrip(".") for ext in items if ext.strip())
        if not settings["extensions"]:
            raise ConfigError("extensions: expected at least one file extension")

    raw_defang = data.pop("defang", None)
    if raw_defang is not None:
        if not isinstance(raw_defang, dict):
            raise ConfigError("defang: expected a mapping of defanged -> plain text")
        for pattern, replacement in raw_defang.items():
            if not pattern or len(_string(f"defang.{pattern}", replacement)) > len(pattern):
                raise ConfigError(f"defang.{pattern}: replacement must not be longer than the pattern")
        settings["defang_extra"] = tuple(raw_defang.items())

    for key in ("reports_dir", "store_path"):
        if data.get(key) is None:
            raise ConfigError(f"missing required setting {key!r}")
        settings[key] = resolve(key, data.pop(key))
    if (denylist := data.pop("denylist", None)) is not None:
        settings["denylist_path"] = resolve("denylist", denylist)
    if data:
        raise ConfigError(f"unknown setting {', '.join(data)}")
    config = PipelineConfig(**settings)
    config.validate()
    return config
