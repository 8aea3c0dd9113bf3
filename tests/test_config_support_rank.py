"""``allocation-apriori`` needs K_i at least the support rank of every
agent.  A config that lists the method with fewer samples is a config error
(exit 2) naming the agent, its count and its rank, before any trial runs;
so is a ``--method allocation-apriori`` coverage run.  ``certify`` asked
for the method on such a config still writes its error entry."""

import json

import pytest

from coalisure import risk, validation
from coalisure.cli import load_config
from coalisure.errors import ConfigError
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec

from test_pipeline import README_GAME, run, write_config

# every agent of the README game joins three coalitions of full rank 3
BELOW_RANK = {"counts": [2, 2, 2], "methods": [risk.METHOD_CORE_APOSTERIORI, risk.METHOD_ALLOCATION_APRIORI]}
MESSAGE = "agent 1 has 2 samples, support rank 3"


def test_loader_names_agent_count_and_rank(tmp_path):
    with pytest.raises(ConfigError, match=MESSAGE):
        load_config(write_config(tmp_path, **BELOW_RANK))


@pytest.mark.parametrize("command", ["validate", "run-all"])
def test_command_exits_2_before_any_trial(tmp_path, command):
    out = tmp_path / "out"
    r = run(command, "--config", write_config(tmp_path, **BELOW_RANK), "--out", out)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and MESSAGE in r.output
    assert not list(out.glob("*"))


def test_method_flag_is_checked_by_the_coverage_config(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, counts=[2, 2, 2], methods=[risk.METHOD_CORE_APOSTERIORI])
    r = run("validate", "--config", cfg, "--out", out, "--method", risk.METHOD_ALLOCATION_APRIORI)
    assert r.exit_code == 2, r.output
    assert MESSAGE in r.output
    assert not list(out.glob("coverage_*"))


def test_coverage_config_rejects_counts_below_rank():
    kwargs = dict(
        spec=GameSpec.from_json_dict(README_GAME), dist=DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]),
        beta=0.2, n_trials=1, n_fresh=10, seed=1, epsilon=0.15,
    )
    with pytest.raises(ConfigError, match="agent 2 has 2 samples, support rank 3"):
        validation.CoverageConfig(counts=(3, 2, 3), method=risk.METHOD_ALLOCATION_APRIORI, **kwargs)
    validation.CoverageConfig(counts=(3, 3, 3), method=risk.METHOD_ALLOCATION_APRIORI, **kwargs)
    validation.CoverageConfig(counts=(2, 2, 2), method=risk.METHOD_CORE_APOSTERIORI, **kwargs)


def test_certify_still_writes_the_error_entry(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, counts=[2, 2, 2], methods=[risk.METHOD_CORE_APOSTERIORI])
    r = run("certify", "--config", cfg, "--out", out, "--method", risk.METHOD_ALLOCATION_APRIORI)
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "certificates.json").read_text())
    assert "support rank 3 outside 1..2" in doc["certificates"][risk.METHOD_ALLOCATION_APRIORI]["error"]


def test_counts_at_the_rank_still_load(tmp_path):
    config = load_config(write_config(tmp_path, **{**BELOW_RANK, "counts": [3, 3, 3]}))
    assert config.counts == (3, 3, 3)
