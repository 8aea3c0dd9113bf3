"""An explicit beta split must list one number per agent, and the loader
says so; its sum must be beta, and certify, zeta, validate and run-all say
so before they write anything."""

import pytest

from coalisure.cli import load_config
from coalisure.errors import CoalisureError, ConfigError
from coalisure.risk import BetaSplit

from test_pipeline import run, write_config

MALFORMED = {
    "too-short": [0.1, 0.1],
    "string-entry": ["x", 0.1, 0.1],
    "nested-entry": [[0.1], 0.05, 0.05],
    "bool-entry": [True, 0.05, 0.05],
}


@pytest.mark.parametrize("split", MALFORMED.values(), ids=MALFORMED.keys())
def test_loader_rejects_malformed_split(tmp_path, split):
    with pytest.raises(ConfigError, match="beta_split"):
        load_config(write_config(tmp_path, beta_split=split))


@pytest.mark.parametrize("command", ["generate", "run-all"])
@pytest.mark.parametrize("name", ["too-short", "string-entry", "nested-entry"])
def test_malformed_split_is_a_config_error(tmp_path, command, name):
    out = tmp_path / "out"
    r = run(command, "--config", write_config(tmp_path, beta_split=MALFORMED[name]), "--out", out)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "beta_split" in r.output
    assert not (out / "samples.csv").exists()


def test_well_formed_split_still_loads(tmp_path):
    config = load_config(write_config(tmp_path, beta_split=[0.05, 0.05, 0.1]))
    assert config.beta_split == (0.05, 0.05, 0.1)


def test_split_that_misses_beta_fails_certify(tmp_path):
    """An explicit split is the budget itself: one summing to 0.03 under
    beta 0.2 would certify at 0.03 while coverage reports 0.2."""
    cfg = write_config(tmp_path, beta=0.2, beta_split=[0.01, 0.01, 0.01])
    r = run("certify", "--config", cfg, "--out", tmp_path / "out", "--method", "core-apriori")
    assert r.exit_code == 1, r.output
    assert "beta_split sums to 0.03, but beta is 0.2" in r.output
    assert not (tmp_path / "out" / "certificates.json").exists()


@pytest.mark.parametrize("command", ["certify", "zeta", "validate", "run-all"])
def test_split_that_misses_beta_fails_before_any_write(tmp_path, command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, beta=0.2, beta_split=[0.01, 0.01, 0.01])
    if command == "zeta":  # zeta reads a sample set; the split is refused before its artifact is written
        assert run("generate", "--config", cfg, "--out", out).exit_code == 0
        (out / "samples.csv").rename(tmp_path / "samples.csv")
        r = run(command, "--config", cfg, "--out", out, "--samples", tmp_path / "samples.csv")
    else:
        r = run(command, "--config", cfg, "--out", out)
    assert r.exit_code == 1, r.output
    assert "error: beta_split sums to 0.03, but beta is 0.2" in r.output
    assert not list(out.iterdir())


def test_split_within_the_sum_tolerance_is_kept():
    split = BetaSplit.make(0.2, 3, (0.05, 0.05, 0.1 + 5e-13))
    assert split.per_agent == (0.05, 0.05, 0.1 + 5e-13)
    with pytest.raises(CoalisureError, match="beta_split sums to 0.2, but beta is 0.21"):
        BetaSplit.make(0.21, 3, (0.05, 0.05, 0.1))
