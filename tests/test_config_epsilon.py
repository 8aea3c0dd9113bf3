"""A total epsilon in the config must be a number in (0,1); the loader says so."""

import pytest

from coalisure.cli import load_config
from coalisure.errors import ConfigError

from test_pipeline import run, write_config

MALFORMED = {
    "word": "x",
    "numeric-string": "0.1",
    "list": [0.1],
    "bool": True,
    "object": {"value": 0.1},
}


@pytest.mark.parametrize("epsilon", MALFORMED.values(), ids=MALFORMED.keys())
def test_loader_rejects_a_non_number(tmp_path, epsilon):
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(write_config(tmp_path, epsilon=epsilon))


@pytest.mark.parametrize("command", ["generate", "run-all"])
@pytest.mark.parametrize("name", ["word", "numeric-string", "list", "bool"])
def test_non_number_is_a_config_error(tmp_path, command, name):
    out = tmp_path / "out"
    r = run(command, "--config", write_config(tmp_path, epsilon=MALFORMED[name]), "--out", out)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "epsilon" in r.output
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1])
def test_out_of_range_is_a_config_error(tmp_path, epsilon):
    with pytest.raises(ConfigError, match=r"epsilon must lie in \(0,1\)"):
        load_config(write_config(tmp_path, epsilon=epsilon))


def test_a_number_still_loads(tmp_path):
    assert load_config(write_config(tmp_path, epsilon=0.15)).epsilon == 0.15
    assert load_config(write_config(tmp_path, epsilon=None)).epsilon is None
