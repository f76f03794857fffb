"""Tests for the strict ``REPRO_*`` environment parser."""

import pytest

from repro import env
from repro.env import read_env

#: Every variable the package reads, with the function that parses it.
READERS = {
    "REPRO_REFERENCE": env.reference_mode,
}


class TestReadEnv:
    def test_unset_or_empty_gives_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_VAR", raising=False)
        assert read_env("REPRO_TEST_VAR", 7) == 7
        monkeypatch.setenv("REPRO_TEST_VAR", "")
        assert read_env("REPRO_TEST_VAR", True) is True

    @pytest.mark.parametrize(
        "raw,expected",
        [("1", True), ("on", True), ("TRUE", True),
         ("0", False), ("off", False), ("False", False)],
    )
    def test_switch_spellings(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_TEST_VAR", raw)
        assert read_env("REPRO_TEST_VAR", not expected) is expected

    @pytest.mark.parametrize("raw,expected", [("0", 0), ("1", 1), ("4096", 4096), (" 4 ", 4)])
    def test_integers(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_TEST_VAR", raw)
        assert read_env("REPRO_TEST_VAR", 3) == expected

    @pytest.mark.parametrize("raw,default", [("nope", True), ("2", False), ("abc", 1), ("1.5", 1)])
    def test_bad_value_names_the_variable(self, monkeypatch, raw, default):
        monkeypatch.setenv("REPRO_TEST_VAR", raw)
        with pytest.raises(ValueError, match=f"REPRO_TEST_VAR={raw!r}"):
            read_env("REPRO_TEST_VAR", default)


class TestPackageVariables:
    @pytest.mark.parametrize(
        "name,garbage",
        [pytest.param(name, "abc", id=name) for name in sorted(READERS)]
        + [
            pytest.param("REPRO_REFERENCE", "2", id="REPRO_REFERENCE-2"),
            pytest.param("REPRO_REFERENCE", "yes", id="REPRO_REFERENCE-yes"),
        ],
    )
    def test_rejects_garbage(self, monkeypatch, name, garbage):
        monkeypatch.setenv(name, garbage)
        with pytest.raises(ValueError, match=name):
            READERS[name]()

    @pytest.mark.parametrize(
        "name,raw,expected",
        [
            ("REPRO_REFERENCE", "0", False),
            ("REPRO_REFERENCE", "off", False),
            ("REPRO_REFERENCE", "false", False),
            ("REPRO_REFERENCE", "1", True),
            ("REPRO_REFERENCE", "on", True),
            ("REPRO_REFERENCE", "true", True),
        ],
    )
    def test_accepts_the_values_in_use(self, monkeypatch, name, raw, expected):
        monkeypatch.setenv(name, raw)
        assert READERS[name]() == expected

    def test_unset_reference_switch_is_off(self, monkeypatch):
        monkeypatch.delenv(env.REFERENCE_ENV_VAR, raising=False)
        assert env.reference_mode() is False

    def test_memo_enabled_reads_the_switch(self, timing_memo, monkeypatch):
        monkeypatch.setenv(env.REFERENCE_ENV_VAR, "maybe")
        with pytest.raises(ValueError, match=env.REFERENCE_ENV_VAR):
            timing_memo.enabled
        monkeypatch.setenv(env.REFERENCE_ENV_VAR, "1")
        assert not timing_memo.enabled
