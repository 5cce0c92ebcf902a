"""What a fresh interpreter loads: the package and each command import only
the modules they use, so a read-only query pays for no HTTP client, thread
pool or statistics code. Each check runs a new interpreter and is judged
against a bare one in the same environment, because ``site`` may already
have loaded modules of its own."""

import ast
import importlib
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import ctipipe
from ctipipe.cli import run_command

from conftest import LAZARUS_DIR, run_python, write_config

# The HTTP client and what it pulls in; the fetch workers' thread pool.
HTTP_AND_THREADS = {"http.client", "ssl", "urllib.request", "concurrent.futures.thread"}

# Printed on the last line of standard output, after whatever the code printed.
_REPORT = "print(); print(*sorted(sys.modules))"


def loaded_modules(code: str, *arguments: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` that a
    bare one does not."""
    bare = run_python("-c", "import sys; " + _REPORT)
    assert bare.returncode == 0, bare.stderr
    result = run_python("-c", f"import sys\n{code}\n{_REPORT}", *arguments)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split()) - set(bare.stdout.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    loaded = loaded_modules("import ctipipe")
    assert "ctipipe" in loaded
    assert sorted(name for name in loaded if name.startswith("ctipipe.")) == []


def test_live_provider_config_loads_no_http_client(tmp_path):
    config = write_config(tmp_path, LAZARUS_DIR / "reports", **{
        "provider.base_url": "https://analysis.invalid/api", "provider.api_key_env": "CTIPIPE_TEST_KEY",
    })
    loaded = loaded_modules(
        "import ctipipe; from ctipipe.config import load_config; load_config(sys.argv[1])", str(config)
    )
    assert sorted(loaded & HTTP_AND_THREADS) == []


def test_path_query_loads_only_what_it_runs(tmp_path, capsys):
    config = write_config(tmp_path, LAZARUS_DIR / "reports")
    assert run_command(["-c", str(config), "ingest"]) == 0
    capsys.readouterr()
    code = "from ctipipe.cli import run_command; assert run_command(sys.argv[1:]) == 0"
    loaded = loaded_modules(code, "-c", str(config), "correlate", "--path", "1", "3")
    unused = {"ctipipe.analytics", "ctipipe.enrichment", "ctipipe.filtering"} | HTTP_AND_THREADS
    assert sorted(loaded & unused) == []
    assert {"ctipipe.config", "ctipipe.events", "ctipipe.store", "ctipipe.correlation"} <= loaded


def test_http_provider_loads_its_modules_on_first_fetch():
    # A refused connection, fetched from a worker thread of a fresh
    # interpreter that holds no HTTP module until that fetch.
    code = """
import os, socket, threading
from ctipipe.providers import HttpProvider, ProviderError
with socket.socket() as sock:
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
os.environ["CTIPIPE_TEST_KEY"] = "sekrit"
provider = HttpProvider(f"http://127.0.0.1:{port}/api", "CTIPIPE_TEST_KEY")
assert "http.client" not in sys.modules and "urllib.request" not in sys.modules
caught = []
def fetch():
    try:
        provider.fetch("a" * 32)
    except ProviderError as exc:
        caught.append(exc)
worker = threading.Thread(target=fetch)
worker.start()
worker.join()
print(type(caught[0].__cause__).__name__)
"""
    result = run_python("-c", "import sys\n" + code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["URLError"]


@pytest.mark.parametrize("name", ctipipe.__all__)
def test_every_export_is_its_module_object(name):
    namespace = {}
    exec(f"from ctipipe import {name}", namespace)
    exported = namespace[name]
    assert exported.__module__.startswith("ctipipe.")
    assert getattr(importlib.import_module(exported.__module__), name) is exported
    assert getattr(ctipipe, name) is exported
    assert name in dir(ctipipe)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ctipipe.no_such_name
    with pytest.raises(ImportError):
        exec("from ctipipe import no_such_name", {})
    assert not hasattr(ctipipe, "no_such_name")
    assert ctipipe.__version__ == "0.1.0"
    assert "ctipipe.no_such_name" not in sys.modules


def imported_modules(source: str) -> set[str]:
    """The ``ctipipe`` modules a module's source imports anywhere: at the
    top, inside functions and under ``if TYPE_CHECKING:``. The package
    itself is ``__init__``."""
    dotted = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative, so inside the package
                module = f"ctipipe.{module}".rstrip(".")
            dotted.update(f"{module}.{alias.name}" for alias in node.names)
    parts = [name.split(".") for name in dotted]
    return {(part + ["__init__"])[1] for part in parts if part[0] == "ctipipe"}


def import_cycle(sources: dict[str, str]) -> list[str] | None:
    graph = {module: imported_modules(source) & set(sources) for module, source in sources.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def test_imports_form_no_cycle():
    package = Path(ctipipe.__file__).parent
    sources = {path.stem: path.read_text(encoding="utf-8") for path in package.glob("*.py")}
    assert "enrichment" in imported_modules(sources["cli"])  # imported inside a function
    assert import_cycle(sources) is None


def test_import_cycle_check_sees_every_import():
    guarded = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .b import x\n"
    local = "def f():\n    from ctipipe.a import y\n"
    assert import_cycle({"a": guarded, "b": local}) in (["a", "b", "a"], ["b", "a", "b"])
    assert import_cycle({"a": guarded, "b": "from . import c\n", "c": "import ctipipe.a\n"})
    assert import_cycle({"a": guarded, "b": "import ctipipe\n"}) is None
