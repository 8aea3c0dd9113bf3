"""Malformed seeds, counts, compression toggles and method lists are config
errors that name their field (exit 2), not crashes or silent defaults."""

import pytest

from coalisure.cli import load_config
from coalisure.errors import ConfigError

from test_pipeline import run, write_config

VALIDATION = {"trials": 2, "n_fresh": 500, "seed": 3}

MALFORMED = {
    "negative-seed": ({"master_seed": -5}, "master_seed"),
    "bool-seed": ({"master_seed": True}, "master_seed"),
    "bool-count": ({"counts": [12, True, 12]}, "counts"),
    "bool-trials": ({"validation": {**VALIDATION, "trials": True}}, "validation.trials"),
    "bool-n-fresh": ({"validation": {**VALIDATION, "n_fresh": True}}, "validation.n_fresh"),
    "bool-validation-seed": ({"validation": {**VALIDATION, "seed": True}}, "validation.seed"),
    "string-efficiency": ({"compression": {"efficiency": "false"}}, "compression.efficiency"),
    "int-nonnegative": ({"compression": {"nonnegative": 1}}, "compression.nonnegative"),
    "string-methods": ({"methods": "core-apriori"}, "methods"),
    "object-methods": ({"methods": {"core-apriori": True}}, "methods"),
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_loader_names_the_field(tmp_path, case):
    overrides, field = case
    with pytest.raises(ConfigError, match=field):
        load_config(write_config(tmp_path, **overrides))


@pytest.mark.parametrize("command", ["generate", "run-all"])
@pytest.mark.parametrize("name", MALFORMED.keys())
def test_malformed_field_exits_2(tmp_path, command, name):
    overrides, field = MALFORMED[name]
    out = tmp_path / "out"
    r = run(command, "--config", write_config(tmp_path, **overrides), "--out", out)
    assert r.exit_code == 2, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "config error" in r.output and field in r.output
    assert not (out / "samples.csv").exists()


def test_negative_seed_flag_exits_2(tmp_path):
    out = tmp_path / "out"
    r = run("generate", "--config", write_config(tmp_path), "--out", out, "--seed", -5)
    assert r.exit_code == 2, r.output
    assert not (out / "samples.csv").exists()


def test_well_formed_values_still_load(tmp_path):
    config = load_config(
        write_config(
            tmp_path,
            master_seed=0,
            methods=["core-apriori"],
            compression={"efficiency": False, "nonnegative": True},
        )
    )
    assert config.master_seed == 0
    assert config.methods == ("core-apriori",)
    assert (config.compression_mode.efficiency, config.compression_mode.nonnegative) == (False, True)
    r = run("generate", "--config", write_config(tmp_path, master_seed=0), "--out", tmp_path / "out")
    assert r.exit_code == 0, r.output
