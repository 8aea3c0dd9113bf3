import numpy as np
import pytest

from coalisure import risk, scenario_core as sc, validation as val
from coalisure.errors import ConfigError, EmptyCoreError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, draw_fresh

from oracles import bounds_from_values, random_affine_game

C1, C2, C3 = Coalition.of(0), Coalition.of(1), Coalition.of(2)
UNIT1 = DistributionSpec.uniform([0.0], [1.0])
UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])


def halfline_game():
    """u_{1}(xi) = xi on [0,1]; agent 2's options are worthless."""
    model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (-10.0, [0.0])})
    return GameSpec(2, 10.0, model)


class TestAllocationEstimator:
    def test_analytic_half(self):
        spec = halfline_game()
        est = val.estimate_allocation_instability(spec, [0.5, 9.5], UNIT1, 100_000, 11)
        assert est.lower <= 0.5 <= est.upper
        assert est.p_hat == pytest.approx(0.5, abs=0.01)

    def test_dominating_allocation(self):
        spec = halfline_game()
        est = val.estimate_allocation_instability(spec, [1.5, 8.5], UNIT1, 10_000, 3)
        assert est.p_hat == 0.0 and est.lower == 0.0

    def test_hopeless_allocation(self):
        spec = halfline_game()
        est = val.estimate_allocation_instability(spec, [-11.0, 21.0], UNIT1, 10_000, 3)
        assert est.p_hat == 1.0 and est.upper == 1.0

    def test_deterministic_under_seed(self):
        spec = halfline_game()
        a = val.estimate_allocation_instability(spec, [0.7, 9.3], UNIT1, 5000, 9)
        b = val.estimate_allocation_instability(spec, [0.7, 9.3], UNIT1, 5000, 9)
        assert a == b

    def test_ties_are_stable(self):
        # point mass at 0.5 and allocation paying exactly 0.5: no violation
        dist = DistributionSpec.uniform([0.5], [0.5])
        spec = halfline_game()
        est = val.estimate_allocation_instability(spec, [0.5, 9.5], dist, 1000, 1)
        assert est.p_hat == 0.0


class TestCoreEstimator:
    def test_single_point_core_equals_allocation_estimate(self):
        spec = halfline_game()
        # bounds pin the unique point (1, 9)
        core = sc.build(spec, bounds_from_values({C1: 1.0, C2: 9.0}))
        a = val.estimate_core_instability(spec, core, UNIT1, 20_000, 5)
        b = val.estimate_allocation_instability(spec, [1.0, 9.0], UNIT1, 20_000, 5)
        assert a.p_hat == b.p_hat

    def test_saturated_bounds_never_violated(self):
        spec = halfline_game()
        core = sc.build(spec, bounds_from_values({C1: 1.0, C2: -10.0}))
        est = val.estimate_core_instability(spec, core, UNIT1, 10_000, 7)
        assert est.p_hat == 0.0

    def test_empty_core_rejected(self):
        spec = halfline_game()
        core = sc.build(spec, bounds_from_values({C1: 9.0, C2: 9.0}))
        with pytest.raises(EmptyCoreError):
            val.estimate_core_instability(spec, core, UNIT1, 100, 1)

    def test_matches_pointwise_lp_oracle(self):
        """Per-sample decisions against minima recomputed from enumerated
        vertices, on the same fresh stream."""
        rng = np.random.default_rng(6)
        from coalisure.sampling import draw_private

        for trial in range(8):
            spec = random_affine_game(rng, regime="nonempty")
            samples = draw_private(UNIT2, (5, 5, 5), 70 + trial)
            core = sc.build(spec, sc.tighten(spec, samples))
            n, seed = 10_000, 500 + trial
            est = val.estimate_core_instability(spec, core, UNIT2, n, seed)
            verts = sc.vertices(core)
            fresh = draw_fresh(UNIT2, n, seed)
            hits = 0
            for row in fresh:
                bad = False
                for c in spec.coalitions:
                    m = min(v[list(c.members)].sum() for v in verts)
                    if spec.value_model.value(c, row) > m + 1e-12:
                        bad = True
                        break
                hits += bad
            assert abs(est.p_hat - hits / n) <= 2e-4  # boundary rounding only

    def test_point_event_never_exceeds_set_event(self):
        rng = np.random.default_rng(14)
        from coalisure.sampling import draw_private

        spec = random_affine_game(rng, regime="nonempty")
        samples = draw_private(UNIT2, (6, 6, 6), 2)
        core = sc.build(spec, sc.tighten(spec, samples))
        x = sc.lexicographic_allocation(core)
        n, seed = 20_000, 123
        point = val.estimate_allocation_instability(spec, x, UNIT2, n, seed)
        whole = val.estimate_core_instability(spec, core, UNIT2, n, seed)
        assert whole.p_hat >= point.p_hat


class TestClopperPearson:
    def test_interval_brackets_the_estimate(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(0, n + 1))
            lo, hi = val.clopper_pearson(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_shrinks_when_doubling(self):
        spec = halfline_game()
        for n in (2000, 8000):
            a = val.estimate_allocation_instability(spec, [0.6, 9.4], UNIT1, n, 31)
            b = val.estimate_allocation_instability(spec, [0.6, 9.4], UNIT1, 2 * n, 31)
            assert (b.upper - b.lower) <= (a.upper - a.lower) + 1e-12

    def test_exact_endpoints(self):
        lo, hi = val.clopper_pearson(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.1
        lo, hi = val.clopper_pearson(100, 100)
        assert hi == 1.0 and 0.9 < lo < 1.0


def nonempty_cfg(method, trials=6, **kw):
    rng = np.random.default_rng(100)
    spec = random_affine_game(rng, regime="nonempty")
    defaults = dict(
        spec=spec,
        dist=UNIT2,
        counts=(20, 20, 20),
        method=method,
        beta=0.2,
        n_trials=trials,
        n_fresh=4000,
        seed=42,
    )
    defaults.update(kw)
    return val.CoverageConfig(**defaults)


class TestCoverage:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            nonempty_cfg("not-a-method")

    def test_support_rank_method_needs_epsilon(self):
        with pytest.raises(ConfigError):
            nonempty_cfg(risk.METHOD_ALLOCATION_APRIORI)

    def test_point_mass_never_exceeds(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        dist = DistributionSpec.uniform([0.3], [0.3])
        cfg = val.CoverageConfig(
            spec=spec, dist=dist, counts=(5, 5),
            method=risk.METHOD_CORE_APOSTERIORI,
            beta=0.2, n_trials=5, n_fresh=500, seed=1,
        )
        report = val.coverage_experiment(cfg)
        assert report.n_failed == 0
        assert all(t.p_hat == 0.0 for t in report.trials)
        assert report.exceedance_frequency == 0.0

    def test_relaxed_method_on_empty_cores(self):
        rng = np.random.default_rng(200)
        spec = random_affine_game(rng, regime="empty")
        cfg = val.CoverageConfig(
            spec=spec, dist=UNIT2, counts=(15, 15, 15),
            method=risk.METHOD_RELAXED_ALLOCATION,
            beta=0.2, n_trials=6, n_fresh=3000, seed=7,
        )
        report = val.coverage_experiment(cfg)
        assert report.n_failed == 0
        for t in report.trials:
            assert t.epsilon is not None and np.isfinite(t.epsilon)
            assert 0.0 <= t.epsilon <= 1.0

    @pytest.mark.parametrize(
        "method",
        [
            risk.METHOD_CORE_APOSTERIORI,
            risk.METHOD_CORE_APRIORI,
            risk.METHOD_ALLOCATION_APOSTERIORI,
            risk.METHOD_ALLOCATION_APRIORI_BUDGET,
        ],
    )
    def test_methods_run_clean(self, method):
        report = val.coverage_experiment(nonempty_cfg(method))
        assert report.n_failed == 0
        assert 0.0 <= report.exceedance_frequency <= 1.0

    def test_support_rank_method_runs(self):
        report = val.coverage_experiment(
            nonempty_cfg(risk.METHOD_ALLOCATION_APRIORI, epsilon=0.3)
        )
        assert report.n_failed == 0
        assert 0.0 < report.beta <= 1.0

    def test_reports_are_deterministic(self):
        cfg = nonempty_cfg(risk.METHOD_CORE_APOSTERIORI, trials=4)
        a = val.coverage_experiment(cfg)
        b = val.coverage_experiment(cfg)
        assert a.to_json_dict() == b.to_json_dict()
        assert a.to_csv() == b.to_csv()

    def test_thread_pool_matches_serial(self, monkeypatch):
        cfg = nonempty_cfg(risk.METHOD_CORE_APOSTERIORI, trials=4)
        serial = val.coverage_experiment(cfg)
        monkeypatch.setenv("COALISURE_THREADS", "3")
        threaded = val.coverage_experiment(cfg)
        assert serial.to_json_dict() == threaded.to_json_dict()

    def test_trial_seed_derivation_stable(self):
        assert val.trial_seeds(42, 0) == val.trial_seeds(42, 0)
        assert val.trial_seeds(42, 0) != val.trial_seeds(42, 1)
        assert val.trial_seeds(42, 0) != val.trial_seeds(43, 0)
