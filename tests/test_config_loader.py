"""Malformed seeds, counts, compression toggles, method lists, game and
distribution documents, unknown keys and other schema versions are config
errors that name their field (exit 2), not crashes, silent coercions or
silent defaults."""

import json
import re

import pytest

from coalisure.cli import load_config
from coalisure.errors import ConfigError
from coalisure.risk import ALL_METHODS

from test_pipeline import README_GAME, run, write_config

VALIDATION = {"trials": 2, "n_fresh": 500, "seed": 3}
UNIT2 = {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def game(**changes):
    return {"game": {**README_GAME, **changes}}


def forms(label, value):
    return game(values={**README_GAME["values"], label: value})

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
    "label-not-ids": (forms("1,x", [{"a": 0.5, "b": [0.6, 0.2]}]), "game.values"),
    "two-labels-one-coalition": (forms("2,1", [{"a": 9.0, "b": [0.6, 0.2]}]), "game.values"),
    "coalitions-label-not-ids": (game(coalitions=["1", "2", "1,x"]), "game.coalitions"),
    "coalitions-not-a-list": (game(coalitions="1,2"), "game.coalitions"),
    "form-without-b": (forms("1", [{"a": 0.0}]), "game.values"),
    "form-string-a": (forms("1", [{"a": "zz", "b": [1.0, 0.4]}]), "game.values"),
    "form-string-b": (forms("1", [{"a": 0.0, "b": ["1.0", 0.4]}]), "game.values"),
    "values-list": (game(values=[README_GAME["values"]]), "game.values"),
    "form-object": (forms("1", {"a": 0.0, "b": [1.0, 0.4]}), "game.values"),
    "fractional-n-agents": (game(n_agents=3.9), "game.n_agents"),
    "string-n-agents": (game(n_agents="3"), "game.n_agents"),
    "string-grand-value": (game(grand_value="6"), "game.grand_value"),
    "bool-uncertainty-dim": (game(uncertainty_dim=True), "game.uncertainty_dim"),
    "missing-values": ({"game": {k: v for k, v in README_GAME.items() if k != "values"}}, "values"),
    "string-lo": ({"distribution": {**UNIT2, "lo": ["x", 0]}}, "distribution.lo"),
    "missing-hi": ({"distribution": {"kind": "uniform", "lo": [0.0, 0.0]}}, "hi"),
    "string-weights": ({"distribution": {"kind": "mixture", "weights": ["a"], "components": [UNIT2]}}, "distribution.weights"),
    "component-string-lo": (
        {"distribution": {"kind": "mixture", "weights": [1.0], "components": [{**UNIT2, "lo": ["x", 0]}]}},
        "distribution.components",
    ),
    "component-not-an-object": ({"distribution": {"kind": "mixture", "weights": [1.0], "components": [[0, 1]]}}, "distribution.components"),
    "string-cov": ({"distribution": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": "x"}}, "distribution.cov"),
    "ragged-cov": ({"distribution": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0]]}}, "distribution.cov"),
    "missing-kind": ({"distribution": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}}, "distribution.kind"),
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


def test_master_seed_zero_without_validation_seed(tmp_path):
    """The validation seed defaults to the master seed, so 0 must pass for both."""
    config = load_config(write_config(tmp_path, master_seed=0, validation={"trials": 1, "n_fresh": 200}))
    assert (config.master_seed, config.validation_seed) == (0, 0)
    r = run("run-all", "--config", write_config(tmp_path, master_seed=0, validation={"trials": 1, "n_fresh": 200}),
            "--out", tmp_path / "out", "--method", "core-apriori")
    assert r.exit_code == 0, r.output


def test_negative_validation_seed_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="validation.seed"):
        load_config(write_config(tmp_path, validation={**VALIDATION, "seed": -1}))


def test_integer_and_float_numbers_still_load(tmp_path):
    doc = {**README_GAME, "grand_value": 6, "values": {**README_GAME["values"], "1": [{"a": 0, "b": [1, 0]}]}}
    mixture = {"kind": "mixture", "weights": [0.25, 0.75], "components": [UNIT2, {**UNIT2, "hi": [2, 2]}]}
    config = load_config(write_config(tmp_path, game=doc, distribution=mixture))
    assert config.spec.grand_value == 6.0 and config.spec.n_agents == 3
    assert config.dist.components[1].hi.tolist() == [2.0, 2.0]


@pytest.mark.parametrize("methods", [[5], [["core-apriori"]], ["bogus"]], ids=["number", "list", "name"])
def test_unknown_method_names_the_valid_list(tmp_path, methods):
    """Method names are checked once, by ``check_prerequisites``: an
    unhashable entry is an unknown name, not a ``TypeError``."""
    with pytest.raises(ConfigError, match=f"unknown certificate method .*; valid: {', '.join(ALL_METHODS)}$"):
        load_config(write_config(tmp_path, methods=methods))


UNKNOWN_KEYS = {
    "top-level": ({"beta_splt": [0.05, 0.05, 0.1]}, "'beta_splt'"),
    "validation": ({"validation": {**VALIDATION, "trails": 3}}, "'validation.trails'"),
    "compression": ({"compression": {"efficency": False}}, "'compression.efficency'"),
    "game": (game(coalitons=["1", "2", "1,2"]), "'game.coalitons'"),
}


@pytest.mark.parametrize("case", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS.keys())
def test_unknown_key_is_named(tmp_path, case):
    overrides, key = case
    with pytest.raises(ConfigError, match=f"unknown key {key}"):
        load_config(write_config(tmp_path, **overrides))
    r = run("generate", "--config", write_config(tmp_path, **overrides), "--out", tmp_path / "out")
    assert r.exit_code == 2 and key in r.output, r.output
    assert not (tmp_path / "out" / "samples.csv").exists()


GAUSS2 = {"kind": "gaussian", "mean": [0.5, 0.5], "cov": [[0.04, 0.0], [0.0, 0.09]]}
UNKNOWN_DISTRIBUTION_KEYS = {
    "uniform": ({**UNIT2, "mean": [0.0, 0.0]}, "'distribution.mean'; known: kind, lo, hi"),
    "gaussian": ({**GAUSS2, "lo": [0.0, 0.0], "hi": [1.0, 1.0]}, "'distribution.lo'; known: kind, mean, cov"),
    "mixture": (
        {"kind": "mixture", "weights": [1.0], "components": [UNIT2], "weight": [1.0]},
        "'distribution.weight'; known: kind, weights, components",
    ),
    "component": (
        {"kind": "mixture", "weights": [0.5, 0.5], "components": [UNIT2, {**GAUSS2, "wieghts": [1.0]}]},
        "'distribution.components[1].wieghts'; known: kind, mean, cov",
    ),
}


@pytest.mark.parametrize("case", UNKNOWN_DISTRIBUTION_KEYS.values(), ids=UNKNOWN_DISTRIBUTION_KEYS.keys())
def test_unknown_distribution_key_is_named(tmp_path, case):
    dist, message = case
    with pytest.raises(ConfigError, match=re.escape(f"unknown key {message}")):
        load_config(write_config(tmp_path, distribution=dist))


def test_unknown_distribution_key_exits_2_before_any_write(tmp_path):
    dist, message = UNKNOWN_DISTRIBUTION_KEYS["component"]
    out = tmp_path / "out"
    r = run("generate", "--config", write_config(tmp_path, distribution=dist), "--out", out)
    assert r.exit_code == 2, r.output
    assert "config error" in r.output and message in r.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("version", [99, 0, "1", True, 1.0])
def test_schema_version_other_than_one_is_refused(tmp_path, version):
    with pytest.raises(ConfigError, match="schema_version must be 1"):
        load_config(write_config(tmp_path, schema_version=version))


def test_schema_version_may_be_absent_and_the_game_may_carry_one(tmp_path):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    del doc["schema_version"]
    path.write_text(json.dumps(doc))
    spec = load_config(path).spec
    assert load_config(write_config(tmp_path, game=spec.to_json_dict())).spec.to_json_dict() == spec.to_json_dict()
