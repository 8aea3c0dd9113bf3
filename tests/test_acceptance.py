"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them).

The coverage criteria run 200-trial experiments against Monte Carlo
estimates with 100k fresh draws per trial; the formula criteria sweep the
full parameter grids at their stated tolerances.
"""

import json
from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import linprog

from coalisure import compression as cp
from coalisure import risk
from coalisure import scenario_core as sc
from coalisure import validation as val
from coalisure import zeta_core as zc
from coalisure.cli import main as cli_main
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, draw_private

from oracles import (
    BRUTE_FORCE_GUARD,
    _poly_normalized,
    _poly_signs_fast,
    brute_force_min_compression,
    grid_core_empty,
    mp_closed_form_epsilon,
    mp_poly_normalized,
    random_affine_game,
)
from test_zeta_core import lifted_brute_objective

UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])

BETA = 0.2
TRIALS = 200
FRESH = 100_000
SLACK = 3.0 * np.sqrt(BETA * (1.0 - BETA) / TRIALS)  # ~0.0849


def coverage_game() -> GameSpec:
    """Three agents, uniform uncertainty on [0,1]^2, never-empty core:
    the grand value exceeds every balanced combination of the suprema."""
    values = {
        Coalition.of(0): (0.0, [1.0, 0.4]),
        Coalition.of(1): (0.2, [0.9, 0.5]),
        Coalition.of(2): (0.4, [0.8, 0.6]),
        Coalition.of(0, 1): (0.5, [0.6, 0.2]),
        Coalition.of(0, 2): (0.5, [0.6, 0.2]),
        Coalition.of(1, 2): (0.5, [0.6, 0.2]),
    }
    return GameSpec(3, 6.0, ValueModel.affine(2, values))


def empty_core_game() -> GameSpec:
    """Grand value a full unit below the sum of singleton suprema, so the
    sampled singleton bounds exceed it with overwhelming probability."""
    values = {
        Coalition.of(0): (0.0, [1.0, 0.5]),
        Coalition.of(1): (0.1, [1.1, 0.4]),
        Coalition.of(2): (0.2, [0.9, 0.6]),
        Coalition.of(0, 1): (0.3, [0.0, 0.0]),
        Coalition.of(0, 2): (0.3, [0.0, 0.0]),
        Coalition.of(1, 2): (0.3, [0.0, 0.0]),
    }
    return GameSpec(3, 3.8, ValueModel.affine(2, values))


def run_coverage(spec, method, seed, **kw):
    cfg = val.CoverageConfig(
        spec=spec,
        dist=UNIT2,
        counts=(50, 50, 50),
        method=method,
        beta=BETA,
        n_trials=TRIALS,
        n_fresh=FRESH,
        seed=seed,
        **kw,
    )
    return val.coverage_experiment(cfg)


class TestCriterion1CoreCoverage:
    def test_posterior_core_bound_covers(self):
        report = run_coverage(coverage_game(), risk.METHOD_CORE_APOSTERIORI, seed=20240901)
        assert report.n_failed == 0
        freq = report.exceedance_frequency
        assert freq <= BETA + SLACK
        print(
            f"\nACCEPTANCE 1 PASS: core a posteriori coverage, exceedance "
            f"{freq:.4f} <= {BETA + SLACK:.4f} over {TRIALS} trials"
        )


class TestCriterion2AllocationCoverage:
    def test_posterior_allocation_bound_covers(self):
        report = run_coverage(
            coverage_game(), risk.METHOD_ALLOCATION_APOSTERIORI, seed=20240902
        )
        assert report.n_failed == 0
        freq = report.exceedance_frequency
        assert freq <= BETA + SLACK
        print(
            f"\nACCEPTANCE 2 PASS: allocation a posteriori coverage, exceedance "
            f"{freq:.4f} <= {BETA + SLACK:.4f} over {TRIALS} trials"
        )


class TestCriterion3RelaxedCoverage:
    def test_relaxed_bound_covers_on_empty_cores(self):
        spec = empty_core_game()
        report = run_coverage(spec, risk.METHOD_RELAXED_ALLOCATION, seed=20240903)
        assert report.n_failed == 0
        for t in report.trials:
            assert t.epsilon is not None and np.isfinite(t.epsilon)
            assert 0.0 <= t.epsilon <= 1.0
        freq = report.exceedance_frequency
        assert freq <= BETA + SLACK
        # confirm the instances really exercise the empty-core regime
        empties = 0
        for t in report.trials[:20]:
            samples = draw_private(UNIT2, (50, 50, 50), t.master_seed)
            if sc.is_empty(sc.build(spec, sc.tighten(spec, samples))):
                empties += 1
        assert empties == 20
        print(
            f"\nACCEPTANCE 3 PASS: relaxed-core coverage on empty cores, exceedance "
            f"{freq:.4f} <= {BETA + SLACK:.4f}, all {TRIALS} certificates finite"
        )


class TestCriterion4CompressionValidity:
    def test_rebuild_equality_and_minimality(self):
        rng = np.random.default_rng(404)
        checked = 0
        for trial in range(100):
            n = 2 if trial % 3 == 0 else 3
            spec = random_affine_game(rng, n_agents=n, regime="nonempty")
            counts = tuple(int(k) for k in rng.integers(1, 7, size=n))
            while sum(counts) > BRUTE_FORCE_GUARD:
                counts = tuple(int(k) for k in rng.integers(1, 7, size=n))
            samples = draw_private(UNIT2, counts, 100_000 + trial)
            cset = cp.compress_all(spec, samples)
            assert cp.compression_reproduces_bounds(spec, samples, cset.per_agent)
            brute = brute_force_min_compression(spec, samples)
            assert cset.total >= brute.total
            checked += 1
        assert checked == 100
        print(
            "\nACCEPTANCE 4 PASS: compression rebuilds bounds exactly and is "
            "never smaller than the minimal set on 100 random instances"
        )


class TestCriterion5FormulaFidelity:
    def test_implicit_plugback(self):
        worst = 0.0
        for beta in (0.01, 0.1):
            for k in range(1, 501):
                table = risk.epsilon_implicit(k, beta)
                if k == 1:
                    continue  # the interior sum is empty
                ks = np.arange(1, k)
                terms = np.exp(
                    risk.log_binom(k, ks) + (k - ks) * np.log1p(-table[ks])
                )
                worst = max(worst, abs(float(terms.sum()) - beta))
        assert worst <= 1e-9
        print(f"\nACCEPTANCE 5a PASS: implicit-table plug-back residual {worst:.2e} <= 1e-9")

    def test_closed_form_matches_high_precision(self):
        worst = 0.0
        for beta in (0.01, 0.1):
            for k in range(1, 201):
                for s in range(0, k + 1):
                    mine = risk.epsilon_closed_form(k, beta, 3, s)
                    oracle = mp_closed_form_epsilon(k, beta, 3, s)
                    worst = max(worst, abs(mine - oracle))
        assert worst <= 1e-10
        print(f"ACCEPTANCE 5b PASS: closed-form vs 50-digit oracle, worst {worst:.2e} <= 1e-10")

    def test_polynomial_roots_full_sweep(self):
        beta, n_agents = 0.01, 3
        worst_mp = 0.0
        roots = {}
        for k in range(1, 201):
            for s in range(0, k + 1):
                t, eps_bar = risk.solve_campi_polynomial(k, beta, n_agents, s)
                assert eps_bar == 1.0 - t
                roots[(k, s)] = t
                if s == k:
                    assert t == 0.0
        # independent high-precision residuals on a deterministic subsample
        sampled = [
            (k, s) for (k, s) in roots if s < k and (k <= 25 or (37 * k + s) % 997 == 0)
        ]
        for k, s in sampled:
            worst_mp = max(worst_mp, abs(mp_poly_normalized(roots[(k, s)], k, s, beta, n_agents)))
        assert worst_mp <= 1e-10
        # smallest-root confirmation: no sign change below the root; every
        # root is below 1, so the grid's last point is never checked
        for k in range(1, 201):
            grid = np.arange(1, 64 * k + 1) / (64 * k)
            signs = _poly_signs_fast(grid[:-1], k, beta, n_agents)
            for s in range(k):
                below = grid[:-1] < roots[(k, s)] - 1.0 / (64 * k) * 1e-6
                assert (signs[below, s] < 0).all(), (k, s)
        # and with the log-sum-exp evaluator on the small-K prefix grids
        for k, s in sampled:
            if k > 40:
                continue
            t = roots[(k, s)]
            grid = np.arange(1, 64 * k + 1) / (64 * k)
            below = grid[grid < t - 1e-12]
            if below.size:
                assert (_poly_normalized(below, k, s, beta, n_agents) < 0).all()
        print(
            f"ACCEPTANCE 5c PASS: polynomial roots for all s <= K <= 200, "
            f"{len(sampled)} high-precision residuals, worst {worst_mp:.2e} <= 1e-10"
        )


class TestCriterion6BudgetExactness:
    @pytest.mark.parametrize("n_agents", [1, 2, 3])
    @pytest.mark.parametrize("budget", [0, 1, 3, 5, 7])
    def test_core_and_allocation_budgets(self, n_agents, budget):
        rng = np.random.default_rng(600 + 10 * n_agents + budget)
        counts = [int(k) for k in rng.integers(2, 8, size=n_agents)]
        betas = rng.uniform(0.01, 0.2, size=n_agents)
        betas = betas / betas.sum() * 0.2
        split = risk.BetaSplit.explicit(list(betas))

        cert = risk.a_priori_core_bound(split, counts, budget=budget)
        tables = [risk.epsilon_implicit(k, b) for k, b in zip(counts, split.per_agent)]
        best = max(
            sum(t[s] for t, s in zip(tables, ss))
            for ss in product(*[range(k + 1) for k in counts])
            if sum(ss) <= budget
        )
        assert cert.epsilon == min(1.0, best)

        cert2 = risk.a_priori_allocation_bound_budget(split, counts, budget=budget)
        best2 = max(
            sum(
                risk.epsilon_closed_form(k, b, n_agents, s)
                for k, b, s in zip(counts, split.per_agent, ss)
            )
            for ss in product(*[range(k + 1) for k in counts])
            if sum(ss) <= budget
        )
        assert cert2.epsilon == min(1.0, best2)

    def test_summary(self):
        print("\nACCEPTANCE 6 PASS: budget maximization equals exhaustive enumeration")


class TestCriterion7GeometryOracles:
    def test_coalition_minima_match_vertices(self):
        rng = np.random.default_rng(700)
        worst = 0.0
        for trial in range(100):
            spec = random_affine_game(rng, regime="nonempty")
            samples = draw_private(UNIT2, (5, 5, 5), 700_000 + trial)
            core = sc.build(spec, sc.tighten(spec, samples))
            verts = sc.vertices(core)
            assert verts
            for c in spec.coalitions:
                lp_min = sc.coalition_min(core, c)
                vx_min = min(v[list(c.members)].sum() for v in verts)
                worst = max(worst, abs(lp_min - vx_min))
        assert worst <= 1e-7
        print(f"\nACCEPTANCE 7a PASS: coalition minima vs vertex enumeration, worst gap {worst:.2e}")

    def test_emptiness_matches_grid_search(self):
        rng = np.random.default_rng(701)
        decided = 0
        attempts = 0
        while decided < 60 and attempts < 600:
            attempts += 1
            regime = ("mixed", "nonempty", "empty")[attempts % 3]
            spec = random_affine_game(rng, regime=regime)
            samples = draw_private(UNIT2, (4, 4, 4), 710_000 + attempts)
            tb = sc.tighten(spec, samples)
            verdict = grid_core_empty(
                spec, {c.mask: tb.value(c) for c in spec.coalitions}, h=0.01
            )
            if verdict is None:
                continue
            assert sc.is_empty(sc.build(spec, tb)) == verdict
            decided += 1
        assert decided == 60
        print(f"ACCEPTANCE 7b PASS: emptiness vs grid search on {decided} decided instances")

    def test_slack_objective_matches_lifted_vertices(self):
        rng = np.random.default_rng(702)
        worst = 0.0
        for trial in range(20):
            n = 2 if trial % 2 else 3
            spec = random_affine_game(rng, n_agents=n, regime="mixed")
            counts = (2, 2) if n == 2 else (2, 1, 1)
            samples = draw_private(UNIT2, counts, 720_000 + trial)
            sol = zc.solve_zeta_program(spec, samples)
            brute = lifted_brute_objective(spec, samples)
            worst = max(worst, abs(sol.objective - brute))
        assert worst <= 1e-7
        print(f"ACCEPTANCE 7c PASS: slack objective vs lifted vertices, worst gap {worst:.2e}")

    def test_row_generation_matches_full_slack_program_at_k200(self):
        """Row generation against one solve of the full slack program (all
        600 x 3 sample rows) at K=200 per agent on the empty-core game."""
        spec = empty_core_game()
        samples = draw_private(UNIT2, (200, 200, 200), 20240907)
        sol = zc.solve_zeta_program(spec, samples)
        n, total_k = spec.n_agents, sum(samples.counts)
        offs = np.concatenate([[0], np.cumsum(samples.counts)])[:-1]
        rows, rhs = [], []
        for agent in range(n):
            ks = np.arange(samples.counts[agent])
            for coalition in spec.allowed(agent):
                # -(x(S) + zeta_ik) <= -u_S(xi_i^(k))
                block = np.zeros((ks.size, n + total_k))
                block[:, list(coalition.members)] = -1.0
                block[ks, n + offs[agent] + ks] = -1.0
                rows.append(block)
                rhs.append(-spec.value_model.value_batch(coalition, samples.per_agent[agent]))
        eff = np.concatenate([np.ones(n), np.zeros(total_k)])
        full = linprog(
            np.concatenate([np.zeros(n), np.ones(total_k)]),
            A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
            A_eq=eff.reshape(1, -1), b_eq=[spec.grand_value],
            bounds=[(None, None)] * n + [(0.0, None)] * total_k,
            method="highs",
        )
        assert full.status == 0
        assert full.fun > 0.0  # the sampled core is empty
        assert abs(sol.objective - full.fun) <= 1e-6
        assert sol.x_star.sum() == pytest.approx(spec.grand_value, abs=1e-9)
        print(
            f"ACCEPTANCE 7d PASS: row generation vs full slack program at K=200, "
            f"gap {abs(sol.objective - full.fun):.2e}"
        )


class TestCriterion8Monotonicity:
    def test_core_shrinks_under_sample_addition(self):
        rng = np.random.default_rng(800)
        for trial in range(20):
            spec = random_affine_game(rng, regime="mixed")
            base = draw_private(UNIT2, (4, 4, 4), 800_000 + trial)
            for grown_counts in ((5, 4, 4), (4, 7, 4), (6, 6, 6)):
                grown = draw_private(UNIT2, grown_counts, 800_000 + trial)
                tb0 = sc.tighten(spec, base)
                tb1 = sc.tighten(spec, grown)
                for c in spec.coalitions:
                    assert tb1.value(c) >= tb0.value(c)

    def test_every_epsilon_nondecreasing_in_complexity(self):
        for beta in (0.01, 0.1, 0.5):
            for k in list(range(1, 121)) + [200, 350, 500]:
                table = risk.epsilon_implicit(k, beta)
                assert (np.diff(table) >= -1e-12).all(), ("implicit", k, beta)
        for beta in (0.01, 0.1, 0.5):
            for n in (1, 3, 7):
                for k in list(range(1, 81)) + [150, 200]:
                    vals = [risk.epsilon_closed_form(k, beta, n, s) for s in range(k + 1)]
                    assert (np.diff(vals) >= -1e-12).all(), ("closed", k, beta, n)
        for k in list(range(1, 31)) + [50]:
            vals = [risk.solve_campi_polynomial(k, 0.2 / 3, 3, s)[1] for s in range(k + 1)]
            assert (np.diff(vals) >= -1e-9).all(), ("polynomial", k)

    def test_confidence_mass_nondecreasing_in_rank(self):
        for k in (1, 2, 5, 13, 40, 90):
            for eps in (0.01, 0.1, 0.3, 0.7):
                vals = [risk.beta_from_support_rank(k, eps, r) for r in range(1, k + 1)]
                assert (np.diff(vals) >= -1e-15).all(), (k, eps)

    def test_summary(self):
        print("\nACCEPTANCE 8 PASS: shrinkage and monotonicity hold on all scanned grids")


class TestCriterion9Determinism:
    def test_run_all_twice_bit_identical(self, tmp_path):
        config = {
            "schema_version": 1,
            "game": coverage_game().to_json_dict(),
            "distribution": UNIT2.to_json_dict(),
            "counts": [8, 8, 8],
            "master_seed": 90_001,
            "beta": 0.2,
            "epsilon": 0.2,
            "methods": list(risk.ALL_METHODS),
            "validation": {"trials": 3, "n_fresh": 2000, "seed": 5},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        runner = CliRunner()
        for out in ("first", "second"):
            result = runner.invoke(
                cli_main, ["run-all", "--config", str(cfg_path), "--out", str(tmp_path / out)]
            )
            assert result.exit_code == 0, result.output
        first, second = tmp_path / "first", tmp_path / "second"
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        print(f"\nACCEPTANCE 9 PASS: run-all artifacts bit-identical across reruns ({len(names)} files)")
