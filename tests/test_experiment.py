"""One experiment, declared once: ``coverage_experiments(experiment, methods)``.

The CLI's config and a one-method coverage config are both a
``validation.Experiment``; certificates that read no samples are built
once per experiment, not once per trial."""

import dataclasses

from coalisure import cli, risk, validation
from coalisure.errors import CoalisureError
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec

from test_pipeline import README_GAME, write_config

A_PRIORI = (risk.METHOD_CORE_APRIORI, risk.METHOD_ALLOCATION_APRIORI, risk.METHOD_ALLOCATION_APRIORI_BUDGET)


def experiment(**kw):
    fields = dict(
        spec=GameSpec.from_json_dict(README_GAME), dist=DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]),
        counts=(12, 12, 12), beta=0.2, n_trials=5, n_fresh=500, seed=3, epsilon=0.15,
    )
    return validation.Experiment(**{**fields, **kw})


def counted(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_two_loads_of_one_config_run_as_one_experiment(tmp_path):
    path = write_config(tmp_path)
    first, second = cli.load_config(path), cli.load_config(path)
    assert first.dist is not second.dist
    reports = validation.coverage_experiments(first, first.methods)
    assert [r.method for r in reports] == list(risk.ALL_METHODS)
    again = validation.coverage_experiments(second, second.methods)
    assert [r.to_json_dict() for r in again] == [r.to_json_dict() for r in reports]


def test_a_priori_certificates_are_built_once_per_experiment(monkeypatch):
    calls = {}
    counted(monkeypatch, risk, "a_priori_core_bound", calls)
    counted(monkeypatch, validation, "_support_rank_bound", calls)
    reports = validation.coverage_experiments(experiment(), risk.ALL_METHODS)
    assert calls == {"a_priori_core_bound": 1, "_support_rank_bound": 1}
    assert all(len(r.trials) == 5 and r.n_failed == 0 for r in reports)


def test_report_beta_is_the_fixed_certificate_beta():
    exp = experiment()
    reports = {r.method: r for r in validation.coverage_experiments(exp, A_PRIORI)}
    fixed = validation.fixed_certificates(exp, A_PRIORI)
    assert set(fixed) == set(A_PRIORI)
    for method in A_PRIORI:
        assert reports[method].beta == fixed[method].beta
        assert {t.epsilon for t in reports[method].trials} == {fixed[method].epsilon}
    assert reports[risk.METHOD_CORE_APRIORI].beta == exp.beta
    assert reports[risk.METHOD_ALLOCATION_APRIORI].beta != exp.beta


def test_failing_fixed_certificate_is_the_error_of_every_trial(monkeypatch):
    def refuse(config):
        raise CoalisureError("no support-rank bound here")

    monkeypatch.setattr(validation, "_support_rank_bound", refuse)
    exp = experiment()
    methods = (risk.METHOD_ALLOCATION_APRIORI, risk.METHOD_CORE_APRIORI)
    failed, other = validation.coverage_experiments(exp, methods)
    assert failed.beta == exp.beta
    assert {t.error for t in failed.trials} == {"CoalisureError: no support-rank bound here"}
    assert failed.n_failed == exp.n_trials
    assert other.n_failed == 0


def test_no_methods_no_reports(monkeypatch):
    calls = {}
    counted(monkeypatch, validation, "draw_private", calls)
    assert validation.coverage_experiments(experiment(), ()) == []
    assert calls == {}


def test_cli_config_fields(tmp_path):
    config = cli.load_config(write_config(tmp_path))
    assert isinstance(config, validation.Experiment)
    assert (config.n_trials, config.n_fresh, config.seed, config.validation_seed) == (2, 500, 3, 3)


def test_distribution_and_config_equality_do_not_raise(tmp_path):
    dist = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    twin = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
    assert dist == dist and dist != twin
    assert len({dist, twin, dist}) == 2
    config = cli.load_config(write_config(tmp_path))
    copy = dataclasses.replace(config, master_seed=config.master_seed)
    assert copy == config and hash(copy) == hash(config)
    cfg = validation.CoverageConfig(**vars(experiment()), method=risk.METHOD_CORE_APRIORI)
    assert dataclasses.replace(cfg, seed=cfg.seed) == cfg
    assert dataclasses.replace(cfg, seed=cfg.seed + 1) != cfg
    assert hash(cfg) == hash(dataclasses.replace(cfg))
