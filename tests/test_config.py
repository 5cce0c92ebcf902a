import importlib.util
import json
import re
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from ctipipe.cli import run_command
from ctipipe.config import ConfigError, LiveProviderConfig, PipelineConfig, load_config
from ctipipe.providers import FixtureProvider, HttpProvider


def write(tmp_path, text, name="pipeline.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASE = "reports_dir = reports\nstore_path = events.jsonl\n"


def live(url):
    return f"provider.base_url = {url}\nprovider.api_key_env = ANALYSIS_KEY\n"


LIVE = live("https://analysis.example.com/api")


class TestKeyValueFormat:
    def test_minimal(self, tmp_path):
        config = load_config(write(tmp_path, BASE))
        assert config.reports_dir == tmp_path / "reports"
        assert config.store_path == tmp_path / "events.jsonl"
        assert config.depth_limit == 2
        assert config.fuzzy_threshold == 0.8
        assert config.noise_threshold == 0.7

    @pytest.mark.parametrize("text", [
        BASE + LIVE,
        json.dumps({"reports_dir": "reports", "store_path": "events.jsonl",
                    "provider": {"base_url": "https://analysis.example.com/api", "api_key_env": "ANALYSIS_KEY"}}),
    ], ids=["key-value", "json"])
    def test_minimal_file_keeps_field_defaults(self, tmp_path, text):
        # Every setting the file leaves out is the dataclass field's default.
        config = load_config(write(tmp_path, text))
        for source, cls in ((config, PipelineConfig), (config.provider_live, LiveProviderConfig)):
            defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
            assert defaults
            for name, default in defaults.items():
                if name != "provider_live":
                    assert getattr(source, name) == default, name

    def test_comments_and_blanks(self, tmp_path):
        config = load_config(write(tmp_path, "# top\n\n" + BASE))
        assert config.reports_dir.name == "reports"

    def test_absolute_paths_untouched(self, tmp_path):
        config = load_config(write(tmp_path, "reports_dir = /srv/reports\nstore_path = /srv/events.jsonl\n"))
        assert str(config.reports_dir) == "/srv/reports"

    def test_fixture_provider(self, tmp_path):
        (tmp_path / "analyses").mkdir()
        config = load_config(write(tmp_path, BASE + "provider = analyses\n"))
        assert config.provider_fixture == tmp_path / "analyses"
        assert isinstance(config.make_provider(), FixtureProvider)

    def test_live_provider(self, tmp_path, monkeypatch):
        text = BASE + (
            "provider.base_url = https://analysis.example.com/api\n"
            "provider.api_key_env = ANALYSIS_KEY\n"
            "provider.rate_limit = 2\n"
        )
        config = load_config(write(tmp_path, text))
        assert config.provider_live.api_key_env == "ANALYSIS_KEY"
        monkeypatch.setenv("ANALYSIS_KEY", "sekrit")
        assert isinstance(config.make_provider(), HttpProvider)

    def test_no_provider_configured(self, tmp_path):
        config = load_config(write(tmp_path, BASE))
        with pytest.raises(ConfigError, match="provider"):
            config.make_provider()

    def test_extensions_comma_list(self, tmp_path):
        config = load_config(write(tmp_path, BASE + "extensions = exe, DLL, .ps1\n"))
        assert config.extensions == frozenset({"exe", "dll", "ps1"})

    def test_defang_entries(self, tmp_path):
        config = load_config(write(tmp_path, BASE + "defang.[:] = :\ndefang.(at) = @\n"))
        assert ("[:]", ":") in config.defang_extra
        assert ("(at)", "@") in config.defang_extra

    def test_growing_defang_replacement_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="defang"):
            load_config(write(tmp_path, BASE + "defang.x = longer\n"))

    def test_line_without_equals_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            load_config(write(tmp_path, BASE + "just words\n"))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="store_path"):
            load_config(write(tmp_path, "reports_dir = reports\n"))

    @pytest.mark.parametrize("line", [
        "fuzzy_threshold = 0",
        "noise_threshold = 1.2",
        "depth_limit = 0",
        "noise_threshold = 0",
        "max_workers = 0",
        "retry_backoff = -0.5",
        "retry_backoff = nan",
        "retry_backoff = inf",
        pytest.param(LIVE + "provider.rate_limit = 0", id="provider.rate_limit = 0"),
        pytest.param(LIVE + "provider.rate_limit = -2", id="provider.rate_limit = -2"),
        pytest.param(LIVE + "provider.rate_limit = fast", id="provider.rate_limit = fast"),
        pytest.param(LIVE + "provider.rate_limit = nan", id="provider.rate_limit = nan"),
        pytest.param(LIVE + "provider.rate_limit = inf", id="provider.rate_limit = inf"),
        pytest.param(live("file:///tmp/analyses"), id="provider.base_url = file:"),
        pytest.param(live("ftp://analysis.example.com/api"), id="provider.base_url = ftp:"),
        pytest.param(live("analysis.example/api"), id="provider.base_url without scheme"),
        pytest.param(live("https:///api"), id="provider.base_url without host"),
        pytest.param(live("http://[::1/api"), id="provider.base_url with an unclosed IPv6 bracket"),
        pytest.param("extensions = exe, tar gz", id="extensions with a space"),
        pytest.param("extensions = exe, tar\u00a0gz", id="extensions with a no-break space"),
        pytest.param("depth_limit = 2.7", id="depth_limit = 2.7"),
        pytest.param(live("https://analysis.example.com/api").replace("ANALYSIS_KEY", ""),
                     id="provider.api_key_env empty"),
    ])
    def test_invariants_enforced(self, tmp_path, line):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, BASE + line + "\n"))

    def test_non_numeric_setting(self, tmp_path):
        with pytest.raises(ConfigError, match="depth_limit"):
            load_config(write(tmp_path, BASE + "depth_limit = soon\n"))


class TestJsonFormat:
    def test_structured_document(self, tmp_path):
        document = {
            "reports_dir": "reports",
            "store_path": "events.jsonl",
            "provider": {"base_url": "https://a.example/api", "api_key_env": "K"},
            "extensions": ["exe", "dll"],
            "defang": {"[:]": ":"},
            "depth_limit": 3,
        }
        config = load_config(write(tmp_path, json.dumps(document)))
        assert config.provider_live.base_url == "https://a.example/api"
        assert config.extensions == frozenset({"exe", "dll"})
        assert config.defang_extra == (("[:]", ":"),)
        assert config.depth_limit == 3

    def test_extension_with_whitespace_rejected(self, tmp_path):
        document = {"reports_dir": "r", "store_path": "s.jsonl", "extensions": ["exe", "tar\tgz"]}
        with pytest.raises(ConfigError, match="whitespace"):
            load_config(write(tmp_path, json.dumps(document)))

    def test_overflowing_retry_backoff_rejected(self, tmp_path):
        # json.loads reads 1e999 as inf, which time.sleep cannot take.
        text = '{"reports_dir": "r", "store_path": "s.jsonl", "retry_backoff": 1e999}'
        with pytest.raises(ConfigError, match="retry_backoff"):
            load_config(write(tmp_path, text))

    @pytest.mark.parametrize("key, value", [
        ("depth_limit", 2.7),
        ("depth_limit", True),
        ("max_workers", True),
        ("max_workers", 1e999),
        ("retry_count", False),
        ("retry_count", -0.5),
        ("fuzzy_threshold", True),
        ("noise_threshold", True),
        ("retry_backoff", False),
    ])
    def test_booleans_and_fractions_rejected(self, tmp_path, key, value):
        # json.loads reads true as True, which int() and float() take as 1.
        document = {"reports_dir": "r", "store_path": "s.jsonl", key: value}
        with pytest.raises(ConfigError, match=key):
            load_config(write(tmp_path, json.dumps(document)))

    def test_rate_limit_boolean_rejected(self, tmp_path):
        provider = {"base_url": "https://a.example/api", "api_key_env": "K", "rate_limit": True}
        document = {"reports_dir": "r", "store_path": "s.jsonl", "provider": provider}
        with pytest.raises(ConfigError, match="rate_limit"):
            load_config(write(tmp_path, json.dumps(document)))

    def test_integral_numbers_accepted(self, tmp_path):
        document = {"reports_dir": "r", "store_path": "s.jsonl", "depth_limit": 3.0, "max_workers": "2"}
        config = load_config(write(tmp_path, json.dumps(document)))
        assert (config.depth_limit, config.max_workers) == (3, 2)
        assert type(config.depth_limit) is int

    @pytest.mark.parametrize("name", [5, "", None, ["K"]])
    def test_api_key_env_must_be_a_name(self, tmp_path, name):
        # A non-string name used to load and then crash enrich with a TypeError.
        provider = {"base_url": "https://a.example/api", "api_key_env": name}
        document = {"reports_dir": "r", "store_path": "s.jsonl", "provider": provider}
        with pytest.raises(ConfigError, match="api_key_env"):
            load_config(write(tmp_path, json.dumps(document)))

    @pytest.mark.parametrize("setting, label", [
        pytest.param({"extensions": [5]}, "extensions", id="extensions [5]"),
        pytest.param({"extensions": ["exe", None]}, "extensions", id="extensions [exe, null]"),
        pytest.param({"extensions": 5}, "extensions", id="extensions 5"),
        pytest.param({"extensions": {"exe": "dll"}}, "extensions", id="extensions object"),
        pytest.param({"reports_dir": ["r"]}, "reports_dir", id="reports_dir [r]"),
        pytest.param({"store_path": True}, "store_path", id="store_path true"),
        pytest.param({"denylist": 3}, "denylist", id="denylist 3"),
        pytest.param({"provider": {"base_url": ["https://a.example/api"], "api_key_env": "K"}},
                     "provider.base_url", id="provider.base_url [url]"),
        pytest.param({"defang": {"[x]": 5}}, "defang.[x]", id="defang 5"),
        pytest.param({"defang": {"[x]": None}}, "defang.[x]", id="defang null"),
    ])
    def test_wrongly_typed_values_rejected(self, tmp_path, setting, label):
        # Each used to crash with an AttributeError or load as its str().
        document = {"reports_dir": "r", "store_path": "s.jsonl", **setting}
        with pytest.raises(ConfigError, match=f"^{re.escape(label)}: expected"):
            load_config(write(tmp_path, json.dumps(document)))

    def test_extensions_as_one_string(self, tmp_path):
        document = {"reports_dir": "r", "store_path": "s.jsonl", "extensions": "exe, .DLL"}
        config = load_config(write(tmp_path, json.dumps(document)))
        assert config.extensions == frozenset({"exe", "dll"})

    def test_provider_as_string(self, tmp_path):
        document = {"reports_dir": "r", "store_path": "s.jsonl", "provider": "analyses"}
        config = load_config(write(tmp_path, json.dumps(document)))
        assert config.provider_fixture == tmp_path / "analyses"

    def test_provider_missing_key(self, tmp_path):
        document = {"reports_dir": "r", "store_path": "s.jsonl", "provider": {"base_url": "x"}}
        with pytest.raises(ConfigError, match="api_key_env"):
            load_config(write(tmp_path, json.dumps(document)))

    def test_provider_wrong_shape(self, tmp_path):
        document = {"reports_dir": "r", "store_path": "s.jsonl", "provider": 7}
        with pytest.raises(ConfigError, match="provider"):
            load_config(write(tmp_path, json.dumps(document)))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, "{broken"))


class TestUnknownKeys:
    """Every key a file sets is read: a misspelt or misplaced one is refused,
    naming it, instead of leaving its setting at the default."""

    @pytest.mark.parametrize("lines, key", [
        ("noise_treshold = 0.01", "noise_treshold"),
        ("max_worker = 0", "max_worker"),
        ("provider = analyses\nprovider.rate_limt = 2", "provider.rate_limt"),
        (LIVE + "provider.rate_limt = 2", "provider.rate_limt"),
        (LIVE + "provider.ratelimit = 2", "provider.ratelimit"),
        # A fixture directory and a live table are two values of one setting.
        ("provider = analyses\nprovider.rate_limit = 2", "provider.rate_limit"),
        (LIVE + "provider = analyses", "provider"),
        ("store_path.x = 1", "store_path.x"),
    ])
    def test_key_value_file(self, tmp_path, lines, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(write(tmp_path, BASE + lines + "\n"))

    @pytest.mark.parametrize("setting, key", [
        ({"noise_treshold": 0.01}, "noise_treshold"),
        ({"max_worker": 0}, "max_worker"),
        ({"provider": {"base_url": "https://a.example/api", "api_key_env": "K", "rate_limt": 2}},
         "provider.rate_limt"),
    ])
    def test_json_file(self, tmp_path, setting, key):
        document = {"reports_dir": "r", "store_path": "s.jsonl", **setting}
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(write(tmp_path, json.dumps(document)))

    def test_cli_refuses_before_running(self, tmp_path, capsys):
        config = write(tmp_path, BASE + "noise_treshold = 0.01\n")
        assert run_command(["-c", str(config), "filter"]) == 1
        assert "noise_treshold" in capsys.readouterr().err

    @pytest.mark.parametrize("provider_url", [None, "http://127.0.0.1:9/api"])
    def test_benchmark_configs_load(self, tmp_path, monkeypatch, provider_url):
        path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
        spec = importlib.util.spec_from_file_location("bench_corpus", path)
        corpus = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, corpus)  # its dataclasses look their module up
        spec.loader.exec_module(corpus)
        workload = SimpleNamespace(config_path=tmp_path / "pipeline.conf", depth=2, threshold=0.8, noise_threshold=0.7)
        corpus.write_config(workload, provider_url)
        config = load_config(workload.config_path)
        assert config.max_workers == 2
        assert (config.provider_fixture is None) == (provider_url is not None)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.conf")
