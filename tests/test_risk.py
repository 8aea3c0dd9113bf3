import numpy as np
import pytest
from fractions import Fraction
from math import log
from itertools import product

from coalisure import risk
from coalisure.errors import CoalisureError, NoRootError
from coalisure.game import Coalition, GameSpec, ValueModel

from oracles import _poly_normalized, loop_budget_maximize, mp_closed_form_epsilon, mp_poly_normalized


def plugback_residual(k_total, beta_i):
    table = risk.epsilon_implicit(k_total, beta_i)
    ks = np.arange(1, k_total)
    terms = np.exp(risk.log_binom(k_total, ks) + (k_total - ks) * np.log1p(-table[ks]))
    return abs(float(terms.sum()) - beta_i)


class TestEpsilonImplicit:
    def test_full_complexity_is_one(self):
        for k in (1, 2, 7, 40):
            assert risk.epsilon_implicit(k, 0.1)[k] == 1.0

    def test_two_sample_value(self):
        # single interior term: C(2,1)(1-eps)^1 = beta
        table = risk.epsilon_implicit(2, 0.1)
        assert table[1] == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 10, 50, 137])
    @pytest.mark.parametrize("beta", [0.01, 0.1, 0.5])
    def test_plugback(self, k, beta):
        assert plugback_residual(k, beta) <= 1e-9

    def test_monotone_in_complexity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(1, 200))
            beta = float(rng.uniform(0.001, 0.9))
            table = risk.epsilon_implicit(k, beta)
            assert (np.diff(table) >= -1e-12).all()
            assert (table >= 0).all() and (table <= 1).all()

    def test_single_sample_convention(self):
        assert risk.epsilon_implicit(1, 0.25)[0] == pytest.approx(0.75)

    def test_domain_errors(self):
        with pytest.raises(CoalisureError):
            risk.epsilon_implicit(0, 0.1)
        with pytest.raises(CoalisureError):
            risk.epsilon_implicit(5, 1.0)


class TestEpsilonClosedForm:
    def test_full_complexity_is_one(self):
        assert risk.epsilon_closed_form(30, 0.05, 4, 30) == 1.0

    def test_reference_value(self):
        assert risk.epsilon_closed_form(100, 0.1, 3, 0) == pytest.approx(
            0.036217, abs=5e-6
        )

    def test_against_high_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            k = int(rng.integers(1, 200))
            s = int(rng.integers(0, k + 1))
            beta = float(rng.choice([0.01, 0.1]))
            n = int(rng.integers(1, 6))
            mine = risk.epsilon_closed_form(k, beta, n, s)
            oracle = mp_closed_form_epsilon(k, beta, n, s)
            assert mine == pytest.approx(oracle, abs=1e-10)

    def test_monotone_in_complexity(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            k = int(rng.integers(1, 120))
            beta = float(rng.uniform(0.001, 0.9))
            n = int(rng.integers(1, 8))
            vals = [risk.epsilon_closed_form(k, beta, n, s) for s in range(k + 1)]
            assert (np.diff(vals) >= -1e-12).all()

    def test_rejects_s_above_k(self):
        with pytest.raises(CoalisureError):
            risk.epsilon_closed_form(5, 0.1, 2, 6)


class TestLevelTables:
    def test_tables_cached_and_read_only(self):
        for table in (risk.epsilon_implicit(60, 0.07), risk.epsilon_implicit(1, 0.07)):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.5
        assert risk.epsilon_implicit(60, 0.07) is risk.epsilon_implicit(60, 0.07)
        assert not risk._closed_form_table(60, 0.07, 3).flags.writeable

    @pytest.mark.parametrize("k, beta, n", [(1, 0.1, 1), (50, 0.2 / 3, 3), (200, 0.04, 5), (1000, 0.01, 7)])
    def test_closed_form_table_equals_scalar_formula(self, k, beta, n):
        # one complexity at a time, bit for bit
        table = risk._closed_form_table(k, beta, n)
        for s in range(k):
            log_base = log(beta) - log(n + 1) - risk.log_binom(k, s)
            assert table[s] == float(np.clip(1.0 - np.exp(log_base / (k - s)), 0.0, 1.0))
            assert risk.epsilon_closed_form(k, beta, n, s) == table[s]
        assert table[k] == 1.0

    def test_invalid_arguments_not_cached(self):
        for _ in range(2):
            with pytest.raises(CoalisureError):
                risk.epsilon_closed_form(0, 0.1, 2, 0)
            with pytest.raises(CoalisureError):
                risk.epsilon_implicit(5, 1.0)


class TestBetaSplit:
    def test_equal_split_sums_exactly(self):
        split = risk.BetaSplit.equal(0.2, 3)
        assert sum(split.per_agent) == pytest.approx(0.2, abs=1e-15)
        assert split.strategy == "equal"

    def test_proportional(self):
        split = risk.BetaSplit.proportional(0.3, [10, 30])
        assert split.per_agent[0] == pytest.approx(0.075)
        assert sum(split.per_agent) == pytest.approx(0.3, abs=1e-15)

    def test_explicit_validation(self):
        with pytest.raises(CoalisureError):
            risk.BetaSplit.explicit([0.5, 0.6])  # total >= 1


class TestCoreBounds:
    def test_full_complexity_clips_to_one(self):
        split = risk.BetaSplit.equal(0.2, 2)
        cert = risk.a_posteriori_core_bound(split, [10, 10], [10, 10])
        assert cert.epsilon == 1.0

    def test_single_agent_zero_complexity(self):
        split = risk.BetaSplit.explicit([0.05])
        cert = risk.a_posteriori_core_bound(split, [0], [40])
        assert cert.epsilon == pytest.approx(risk.epsilon_implicit(40, 0.05)[0])

    def test_detail_reproduces_epsilon(self):
        split = risk.BetaSplit.equal(0.2, 2)
        cert = risk.a_posteriori_core_bound(split, [3, 5], [50, 50])
        expected = risk.epsilon_implicit(50, split.per_agent[0])[3] + risk.epsilon_implicit(
            50, split.per_agent[1]
        )[5]
        assert cert.epsilon == pytest.approx(min(1.0, expected), abs=1e-15)
        assert sum(r["term"] for r in cert.per_agent) == pytest.approx(expected)

    def test_default_budget_is_conventional_count(self):
        split = risk.BetaSplit.equal(0.2, 3)
        cert = risk.a_priori_core_bound(split, [50, 50, 50])
        assert cert.provenance["budget"] == 7

    @pytest.mark.parametrize("budget", range(0, 8))
    def test_dp_matches_exhaustive(self, budget):
        split = risk.BetaSplit.explicit([0.04, 0.07, 0.05])
        counts = [4, 6, 3]
        cert = risk.a_priori_core_bound(split, counts, budget=budget)
        tables = [
            risk.epsilon_implicit(k, b) for k, b in zip(counts, split.per_agent)
        ]
        best = max(
            sum(t[s] for t, s in zip(tables, ss))
            for ss in product(*[range(k + 1) for k in counts])
            if sum(ss) <= budget
        )
        assert cert.epsilon == pytest.approx(min(1.0, best), abs=0.0)
        assignment = [r["s"] for r in cert.per_agent]
        assert sum(assignment) <= budget

    @pytest.mark.parametrize("n,k", [(3, 50), (5, 200), (7, 1000)])
    def test_dp_matches_the_loop_on_epsilon_tables(self, n, k):
        split = risk.BetaSplit.equal(0.2, n)
        for tables in (
            [risk.epsilon_implicit(k, b) for b in split.per_agent],
            [risk._closed_form_table(k, b, n) for b in split.per_agent],
        ):
            for budget in (0, n, 2 ** n - 1, n * k):
                assert risk._budget_maximize(tables, budget) == loop_budget_maximize(tables, budget)

    @pytest.mark.parametrize("cells", [1, 7, 1 << 20])
    def test_dp_matches_the_loop_under_forced_ties(self, cells, monkeypatch):
        # small integer tables tie often; few cells per block split the
        # budgets into many blocks
        monkeypatch.setattr(risk, "_BUDGET_CELLS", cells)
        rng = np.random.default_rng(cells)
        for _ in range(200):
            tables = [
                rng.integers(0, 3, size=rng.integers(1, 25)).astype(float)
                for _ in range(rng.integers(1, 6))
            ]
            budget = int(rng.integers(0, 80))
            assert risk._budget_maximize(tables, budget) == loop_budget_maximize(tables, budget)

    def test_single_agent_budget_monotone(self):
        split = risk.BetaSplit.explicit([0.1])
        for budget in (0, 2, 5, 50):
            cert = risk.a_priori_core_bound(split, [20], budget=budget)
            assert cert.epsilon == pytest.approx(
                risk.epsilon_implicit(20, 0.1)[min(budget, 20)]
            )

    def test_budget_zero(self):
        split = risk.BetaSplit.equal(0.1, 2)
        cert = risk.a_priori_core_bound(split, [15, 25], budget=0)
        expected = (
            risk.epsilon_implicit(15, split.per_agent[0])[0]
            + risk.epsilon_implicit(25, split.per_agent[1])[0]
        )
        assert cert.epsilon == pytest.approx(expected)


def _fraction_rank(rows):
    rows = [[Fraction(int(v)) for v in row] for row in rows]
    rank = 0
    cols = len(rows[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _spec_with_structure(n, masks):
    coalitions = tuple(Coalition(m) for m in masks)
    model = ValueModel.affine(1, {c: (0.0, [0.0]) for c in coalitions})
    return GameSpec(n, 10.0, model, coalitions)


class TestSupportRank:
    def test_default_structure_full_rank(self):
        model = ValueModel.affine(
            1, {Coalition(m): (0.0, [0.0]) for m in range(1, 7)}
        )
        spec = GameSpec(3, 10.0, model)
        assert risk.support_rank(spec, 0) == 3

    def test_singleton_structure(self):
        spec = _spec_with_structure(3, [1, 2, 4])
        assert risk.support_rank(spec, 0) == 1

    def test_matches_exact_rank_on_random_structures(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            full = (1 << n) - 1
            pool = [m for m in range(1, full)]
            take = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)), replace=False)
            masks = sorted(pool[i] for i in take)
            # make sure agent 0 appears somewhere
            if not any(m & 1 for m in masks):
                masks.append(1)
            spec = _spec_with_structure(n, sorted(set(masks)))
            rows = [c.indicator(n).astype(int).tolist() for c in spec.allowed(0)]
            assert risk.support_rank(spec, 0) == _fraction_rank(rows)


class TestSupportRankBeta:
    def test_rho_equal_k_identity(self):
        k, eps = 12, 0.07
        assert risk.beta_from_support_rank(k, eps, k) == pytest.approx(
            1 - (1 - eps) ** k, rel=1e-12
        )

    def test_direct_evaluation(self):
        from math import comb

        expected = comb(10, 1) * 0.1 * 0.9**9 + comb(10, 2) * 0.01 * 0.9**8
        assert risk.beta_from_support_rank(10, 0.1, 2) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_rank(self):
        vals = [risk.beta_from_support_rank(30, 0.2, r) for r in range(1, 31)]
        assert (np.diff(vals) >= 0).all()

    def test_conventional_includes_zero_term(self):
        k, eps, rho = 20, 0.15, 3
        conv = risk.beta_from_support_rank_conventional(k, eps, rho)
        printed = risk.beta_from_support_rank(k, eps, rho - 1) if rho > 1 else 0.0
        assert conv == pytest.approx(printed + (1 - eps) ** k, rel=1e-10)

    def test_allocation_bound_single_agent(self):
        k, eps = 25, 0.08
        cert = risk.a_priori_allocation_bound([eps], [k], [k])
        assert cert.beta == pytest.approx(1 - (1 - eps) ** k, rel=1e-12)
        assert cert.epsilon == pytest.approx(eps)

    def test_allocation_bound_vanishes_with_eps(self):
        for eps in (1e-3, 1e-6, 1e-9):
            cert = risk.a_priori_allocation_bound([eps, eps], [40, 40], [2, 2])
            assert cert.beta < 100 * eps * 2 * 40  # each term ~ K eps (1-eps)^(K-1)
        tiny = risk.a_priori_allocation_bound([1e-12, 1e-12], [40, 40], [2, 2])
        assert tiny.beta < 1e-9

    def test_symmetric_two_agent_doubling(self):
        single = risk.a_priori_allocation_bound([0.005], [30], [3])
        double = risk.a_priori_allocation_bound([0.005, 0.005], [30, 30], [3, 3])
        assert double.beta == pytest.approx(2 * single.beta, rel=1e-12)


class TestAllocationBounds:
    def test_full_complexity_clips(self):
        split = risk.BetaSplit.equal(0.1, 3)
        cert = risk.a_posteriori_allocation_bound(split, [10, 10, 10], [10, 10, 10])
        assert cert.epsilon == 1.0

    def test_single_agent_zero_complexity(self):
        split = risk.BetaSplit.explicit([0.2])
        cert = risk.a_posteriori_allocation_bound(split, [0], [60])
        assert cert.epsilon == pytest.approx(risk.epsilon_closed_form(60, 0.2, 1, 0))

    def test_three_agent_sum(self):
        split = risk.BetaSplit.equal(0.03, 3)
        cert = risk.a_posteriori_allocation_bound(split, [1, 0, 2], [40, 40, 40])
        expected = sum(
            risk.epsilon_closed_form(40, b, 3, s)
            for b, s in zip(split.per_agent, [1, 0, 2])
        )
        assert cert.epsilon == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_budget_dp_matches_exhaustive(self, budget):
        split = risk.BetaSplit.equal(0.1, 2)
        counts = [5, 7]
        cert = risk.a_priori_allocation_bound_budget(split, counts, budget=budget)
        best = max(
            risk.epsilon_closed_form(5, split.per_agent[0], 2, s1)
            + risk.epsilon_closed_form(7, split.per_agent[1], 2, s2)
            for s1 in range(6)
            for s2 in range(8)
            if s1 + s2 <= budget
        )
        assert cert.epsilon == pytest.approx(min(1.0, best), abs=0.0)

    def test_default_budget_is_agent_count(self):
        split = risk.BetaSplit.equal(0.1, 2)
        cert = risk.a_priori_allocation_bound_budget(split, [30, 30])
        assert cert.provenance["budget"] == 2


class TestCertificatePolynomial:
    def test_full_complexity_convention(self):
        assert risk.solve_campi_polynomial(12, 0.05, 3, 12) == (0.0, 1.0)

    @pytest.mark.parametrize("s", [0, 1, 5, 20, 49])
    def test_residual_at_root(self, s):
        k, beta, n = 50, 0.2 / 3, 3
        t, eps_bar = risk.solve_campi_polynomial(k, beta, n, s)
        assert eps_bar == pytest.approx(1.0 - t)
        assert abs(mp_poly_normalized(t, k, s, beta, n)) <= 1e-9

    def test_smallest_root_by_scan(self):
        k, beta, n = 30, 0.05, 3
        for s in (0, 3, 11):
            t, _ = risk.solve_campi_polynomial(k, beta, n, s)
            grid = np.arange(1, 64 * k + 1) / (64 * k)
            below = grid[grid < t - 1e-9]
            if below.size:
                vals = _poly_normalized(below, k, s, beta, n)
                assert (vals < 0).all()

    def test_monotone_in_complexity(self):
        k, beta, n = 25, 0.1, 3
        eps = [risk.solve_campi_polynomial(k, beta, n, s)[1] for s in range(k + 1)]
        assert (np.diff(eps) >= -1e-9).all()

    def test_no_root_error_with_trace(self):
        with pytest.raises(NoRootError) as err:
            risk.solve_campi_polynomial(200, 0.1, 3, 0)
        assert err.value.scan_points is not None
        assert (np.asarray(err.value.scan_signs) <= 0).all()

    def test_domain_errors(self):
        with pytest.raises(CoalisureError):
            risk.solve_campi_polynomial(10, 0.1, 3, 11)
        with pytest.raises(CoalisureError):
            risk.solve_campi_polynomial(10, 1.5, 3, 0)


class TestCertificateShape:
    def test_epsilon_must_be_probability(self):
        with pytest.raises(CoalisureError):
            risk.RiskCertificate("x", 1.5, 0.1, ())

    def test_json_roundtrip_fields(self):
        split = risk.BetaSplit.equal(0.2, 2)
        cert = risk.a_posteriori_core_bound(split, [1, 2], [10, 10])
        doc = cert.to_json_dict()
        assert doc["method"] == risk.METHOD_CORE_APOSTERIORI
        assert doc["epsilon"] == cert.epsilon
        assert len(doc["per_agent"]) == 2
