import json

import pytest

from ctipipe.config import ConfigError, load_config
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
        pytest.param(LIVE + "provider.rate_limit = 0", id="provider.rate_limit = 0"),
        pytest.param(LIVE + "provider.rate_limit = -2", id="provider.rate_limit = -2"),
        pytest.param(LIVE + "provider.rate_limit = fast", id="provider.rate_limit = fast"),
        pytest.param(LIVE + "provider.rate_limit = nan", id="provider.rate_limit = nan"),
        pytest.param(LIVE + "provider.rate_limit = inf", id="provider.rate_limit = inf"),
        pytest.param(live("file:///tmp/analyses"), id="provider.base_url = file:"),
        pytest.param(live("ftp://analysis.example.com/api"), id="provider.base_url = ftp:"),
        pytest.param(live("analysis.example/api"), id="provider.base_url without scheme"),
        pytest.param(live("https:///api"), id="provider.base_url without host"),
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


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.conf")
