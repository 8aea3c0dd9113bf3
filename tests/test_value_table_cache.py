"""One value table per sample set: ``scenario_core.value_table`` evaluates
it once per (game, samples) pair and keeps it on the samples, so bounds,
compression and the zeta program read the same matrices."""

import json

import numpy as np
import pytest

from coalisure import compression, scenario_core, validation, zeta_core
from coalisure.game import GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, draw_private, samples_from_csv, samples_to_csv

from test_pipeline import README_GAME, run
from test_run_all_guard import affine_config

UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def game_and_samples():
    return GameSpec.from_json_dict(README_GAME), draw_private(UNIT2, (6, 4, 5), 23)


@pytest.fixture
def value_batch_calls(monkeypatch):
    calls = []
    batch = ValueModel.value_batch

    def counted(self, coalition, xis):
        calls.append(coalition)
        return batch(self, coalition, xis)

    monkeypatch.setattr(ValueModel, "value_batch", counted)
    return calls


def test_same_pair_returns_the_same_table(game_and_samples):
    spec, samples = game_and_samples
    table = scenario_core.value_table(spec, samples)
    assert scenario_core.value_table(spec, samples) is table
    assert all(a is b for a, b in zip(table, scenario_core.value_table(spec, samples)))


def test_table_is_evaluated_once_per_pair(game_and_samples, value_batch_calls):
    spec, samples = game_and_samples
    for _ in range(3):
        scenario_core.value_table(spec, samples)
    assert len(value_batch_calls) == sum(len(spec.allowed(i)) for i in range(spec.n_agents))


def test_another_value_model_gets_its_own_table(game_and_samples):
    spec, samples = game_and_samples
    doubled = {
        label: [{"a": 2 * f["a"], "b": [2 * v for v in f["b"]]} for f in forms]
        for label, forms in README_GAME["values"].items()
    }
    other = GameSpec.from_json_dict({**README_GAME, "values": doubled})
    mine, theirs = scenario_core.value_table(spec, samples), scenario_core.value_table(other, samples)
    assert theirs is not mine
    for a, b in zip(mine, theirs):
        assert np.array_equal(b, 2 * a)
    assert scenario_core.value_table(spec, samples) is mine


def test_cached_matrices_stay_read_only(game_and_samples):
    spec, samples = game_and_samples
    scenario_core.value_table(spec, samples)
    table = scenario_core.value_table(spec, samples)
    for matrix in table:
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
    with pytest.raises(TypeError):
        table[0] = None


def test_cache_is_not_part_of_equality_or_construction(game_and_samples):
    spec, samples = game_and_samples
    scenario_core.value_table(spec, samples)
    fresh = draw_private(UNIT2, (6, 4, 5), 23)
    assert "_value_tables" not in repr(samples)
    assert not fresh._value_tables and samples._value_tables
    assert all(np.array_equal(a, b) for a, b in zip(fresh.per_agent, samples.per_agent))


def test_consumers_read_the_one_table(game_and_samples, value_batch_calls):
    spec, samples = game_and_samples
    sampled = validation.SampleSet(spec, samples, compression.CompressionMode.default())
    sampled.core, sampled.compression, sampled.zeta
    selection = sampled.compression.per_agent
    assert compression.compression_reproduces_bounds(spec, samples, selection)
    zeta_core.solve_zeta_program(spec, samples)
    assert len(value_batch_calls) == sum(len(spec.allowed(i)) for i in range(spec.n_agents))


@pytest.mark.parametrize("trials", [1, 3])
def test_run_all_evaluates_one_table_per_sample_set(tmp_path, value_batch_calls, trials):
    doc = affine_config(7)
    doc["counts"] = [12] * 5
    doc["validation"] = {"trials": trials, "n_fresh": 500, "seed": 9}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    r = run("run-all", "--config", config, "--out", tmp_path / "out")
    assert r.exit_code == 0, r.output
    spec = GameSpec.from_json_dict(doc["game"])
    per_table = sum(len(spec.allowed(i)) for i in range(spec.n_agents))
    assert (per_table, len(spec.coalitions)) == (75, 30)
    # one table for the pipeline's sample set and one per trial, plus one
    # pass over every coalition per trial's fresh draw
    assert len(value_batch_calls) == (trials + 1) * per_table + trials * len(spec.coalitions)


def test_csv_round_trip_gets_its_own_table(game_and_samples):
    spec, samples = game_and_samples
    back = samples_from_csv(samples_to_csv(samples))
    table, again = scenario_core.value_table(spec, samples), scenario_core.value_table(spec, back)
    assert again is not table
    assert all(np.array_equal(a, b) for a, b in zip(table, again))
