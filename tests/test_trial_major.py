"""Coverage runs are trial-major: one sample set and one fresh draw per
trial serve every method, with the same reports as one method at a time."""

import dataclasses

import pytest
from oracles import per_method_trial

from coalisure import cli, compression, risk, scenario_core, validation
from coalisure.errors import ConfigError
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec

from test_pipeline import README_GAME, run, write_config

UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])

# The grand value sits a full unit below the sum of the singleton suprema,
# so at these sample counts every core is empty.
EMPTY_CORE_GAME = {
    "n_agents": 3,
    "grand_value": 3.8,
    "uncertainty_dim": 2,
    "values": {
        "1": [{"a": 0.0, "b": [1.0, 0.5]}],
        "2": [{"a": 0.1, "b": [1.1, 0.4]}],
        "3": [{"a": 0.2, "b": [0.9, 0.6]}],
        "1,2": [{"a": 0.3, "b": [0.0, 0.0]}],
        "1,3": [{"a": 0.3, "b": [0.0, 0.0]}],
        "2,3": [{"a": 0.3, "b": [0.0, 0.0]}],
    },
}


def configs(game=README_GAME, counts=(15, 15, 15), **kw):
    base = validation.CoverageConfig(
        spec=GameSpec.from_json_dict(game), dist=UNIT2, counts=counts,
        method=risk.METHOD_CORE_APRIORI, beta=0.2, n_trials=3, n_fresh=2000, seed=9,
        epsilon=0.15, **kw,
    )
    return [dataclasses.replace(base, method=m) for m in risk.ALL_METHODS]


CASES = {
    "readme": configs(),
    "empty-core": configs(EMPTY_CORE_GAME, counts=(30, 30, 30)),
    "explicit-split": configs(beta_split=(0.05, 0.05, 0.1)),
}


@pytest.mark.parametrize("cfgs", CASES.values(), ids=CASES.keys())
def test_all_methods_at_once_equal_one_at_a_time(cfgs):
    together = validation.coverage_experiments(cfgs)
    assert [r.method for r in together] == list(risk.ALL_METHODS)
    for report, cfg in zip(together, cfgs):
        assert report.to_json_dict() == validation.coverage_experiment(cfg).to_json_dict()
        for t in report.trials:
            assert t.to_json_dict() == per_method_trial(cfg, t.trial).to_json_dict()


def test_empty_core_error_strings():
    reports = {r.method: r for r in validation.coverage_experiments(CASES["empty-core"])}
    for method, report in reports.items():
        errors = {t.error for t in report.trials}
        if validation.METHODS[method].point == "core":
            assert errors == {"EmptyCoreError: core instability is undefined for an empty core"}
        elif method == risk.METHOD_RELAXED_ALLOCATION:
            assert errors == {None}
        else:
            assert errors == {"EmptyCoreError: cannot select an allocation from an empty core"}


def test_threads_match_serial(monkeypatch):
    serial = [r.to_json_dict() for r in validation.coverage_experiments(CASES["readme"])]
    monkeypatch.setenv("COALISURE_THREADS", "3")
    assert validation.worker_count() == 3
    threaded = [r.to_json_dict() for r in validation.coverage_experiments(CASES["readme"])]
    assert threaded == serial


def test_derived_beta_is_the_support_rank_confidence():
    report = validation.coverage_experiments(CASES["readme"])[2]
    assert report.method == risk.METHOD_ALLOCATION_APRIORI
    cfg = CASES["readme"][2]
    assert report.beta == validation.certify(cfg.method, cfg, None, cfg.seed).beta != cfg.beta


def test_configs_must_differ_only_in_method():
    cfgs = CASES["readme"]
    assert validation.coverage_experiments([]) == []
    with pytest.raises(ConfigError, match="differ only in method"):
        validation.coverage_experiments([cfgs[0], dataclasses.replace(cfgs[1], n_fresh=100)])
    other = dataclasses.replace(cfgs[1], dist=DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ConfigError, match="differ only in method"):
        validation.coverage_experiments([cfgs[0], other])


def test_run_all_does_each_trial_once(tmp_path, monkeypatch):
    calls = {"draw_private": 0, "draw_fresh": 0, "compress_all": 0, "coalition_min": 0}

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(cli, "draw_private", "draw_private")
    counted(validation, "draw_private", "draw_private")
    counted(validation, "draw_fresh", "draw_fresh")
    counted(compression, "compress_all", "compress_all")
    counted(scenario_core, "coalition_min", "coalition_min")
    trials = 3
    r = run("run-all", "--config", write_config(tmp_path), "--out", tmp_path / "out", "--trials", trials)
    assert r.exit_code == 0, r.output
    assert calls == {
        "draw_private": 1 + trials,
        "draw_fresh": trials,
        "compress_all": 1 + trials,
        "coalition_min": trials * len(GameSpec.from_json_dict(README_GAME).coalitions),
    }
