"""An explicit beta split must list one number per agent; the loader says so."""

import pytest

from coalisure.cli import load_config
from coalisure.errors import ConfigError

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
