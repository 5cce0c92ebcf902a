"""Malware-analysis providers.

The directory-of-fixtures provider is the reference implementation (one JSON
document per hash, named "<hash>.json") so the pipeline runs offline; the HTTP
provider targets a live repository with the same document schema.
"""

from __future__ import annotations

import http.client
import json
import logging
import math
import os
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Protocol

log = logging.getLogger(__name__)

# Seconds to wait for a live provider's response.
REQUEST_TIMEOUT = 30.0


class ProviderError(Exception):
    """Transient transport or provider failure; the fetch may be retried,
    after at least ``retry_after`` seconds when the provider asked for it."""

    def __init__(self, message: str, retry_after: float | None = None):
        self.retry_after = retry_after
        super().__init__(message)


def _retry_after_seconds(header: str | None) -> float | None:
    """A ``Retry-After`` header given in seconds; None when absent or not a
    finite, non-negative number (the HTTP-date form is not read)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


class AnalysisDataError(Exception):
    """The provider returned a document violating the analysis schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class AnalysisProvider(Protocol):
    def fetch(self, hash_value: str) -> dict | None:
        """Raw analysis document for the hash, or None when unknown."""
        ...


class FixtureProvider:
    def __init__(self, root: str | Path):
        self.root = Path(root)

    def fetch(self, hash_value: str) -> dict | None:
        path = self.root / f"{hash_value.lower()}.json"
        if not path.is_file():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise AnalysisDataError("document", f"invalid JSON in {path.name}: {exc}") from exc


class HttpProvider:
    """Hash lookup against a live repository; the API key is only ever read
    from the named environment variable and never follows a redirect."""

    def __init__(self, base_url: str, api_key_env: str, rate_limit: float = 4.0):
        api_key = os.environ.get(api_key_env, "")
        if not api_key:
            raise ProviderError(f"API key environment variable {api_key_env!r} is not set")
        self.base_url = base_url.rstrip("/")
        self._min_interval = 1.0 / rate_limit if rate_limit > 0 else 0.0
        self._last_request = 0.0
        self._lock = threading.Lock()
        self._authorization = f"Bearer {api_key}"

    def _throttle(self) -> None:
        with self._lock:
            wait = self._last_request + self._min_interval - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            self._last_request = time.monotonic()

    def fetch(self, hash_value: str) -> dict | None:
        self._throttle()
        url = f"{self.base_url}/{hash_value.lower()}"
        request = urllib.request.Request(url)
        request.add_unredirected_header("Authorization", self._authorization)
        try:
            with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT) as response:
                status, headers, body = response.status, response.headers, response.read()
        except urllib.error.HTTPError as exc:
            status, headers, body = exc.code, exc.headers, b""
        except (OSError, http.client.HTTPException) as exc:
            raise ProviderError(f"request to {url} failed: {exc}") from exc
        if status == 404:
            return None
        if status != 200:
            header = headers.get("Retry-After") if status in (429, 503) else None
            raise ProviderError(f"{url} returned HTTP {status}", _retry_after_seconds(header))
        try:
            return json.loads(body)
        except ValueError as exc:
            raise AnalysisDataError("document", f"response is not JSON: {exc}") from exc

