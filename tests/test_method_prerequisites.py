"""``allocation-apriori`` needs a total epsilon and every agent in some
coalition.  ``run-all`` asked for the method, by the config or by
``--method``, without them exits 2 with a config error naming what is
missing, before any artifact is written.  The loader rejects a listed
method with an agent in no coalition; a config without epsilon still loads,
since only the commands that run the method need it."""

import json

import pytest

from coalisure import risk
from coalisure.cli import load_config
from coalisure.errors import ConfigError

from test_pipeline import run, write_config

BOTH = [risk.METHOD_CORE_APOSTERIORI, risk.METHOD_ALLOCATION_APRIORI]
# agent 3 joins none of the coalitions
PAIR_GAME = {
    "n_agents": 3,
    "grand_value": 6.0,
    "uncertainty_dim": 2,
    "coalitions": ["1", "2", "1,2"],
    "values": {
        "1": [{"a": 0.0, "b": [1.0, 0.4]}],
        "2": [{"a": 0.2, "b": [0.9, 0.5]}],
        "1,2": [{"a": 0.5, "b": [0.6, 0.2]}],
    },
}
NO_COALITION = "agent 3 joins none"


def without_epsilon(tmp_path, methods):
    path = write_config(tmp_path, methods=methods)
    doc = json.loads(path.read_text())
    del doc["epsilon"]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "methods, flag",
    [(BOTH, []), (BOTH[:1], ["--method", risk.METHOD_ALLOCATION_APRIORI])],
    ids=["config-methods", "method-flag"],
)
def test_run_all_without_epsilon_writes_nothing(tmp_path, methods, flag):
    out = tmp_path / "out"
    r = run("run-all", "--config", without_epsilon(tmp_path, methods), "--out", out, *flag)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and "epsilon" in r.output
    assert not list(out.glob("*"))


def test_loader_names_the_agent_without_a_coalition(tmp_path):
    with pytest.raises(ConfigError, match=NO_COALITION):
        load_config(write_config(tmp_path, game=PAIR_GAME, methods=BOTH))
    assert load_config(write_config(tmp_path, game=PAIR_GAME, methods=BOTH[:1])).methods == tuple(BOTH[:1])


@pytest.mark.parametrize("command", ["run-all", "certify"])
def test_agent_without_a_coalition_is_a_config_error(tmp_path, command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, game=PAIR_GAME, methods=BOTH[:1])
    r = run(command, "--config", cfg, "--out", out, "--method", risk.METHOD_ALLOCATION_APRIORI)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and NO_COALITION in r.output
    assert not list(out.glob("*"))
