import numpy as np
import pytest

from coalisure import lp
from coalisure import scenario_core as sc
from coalisure import zeta_core as zc
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.risk import BetaSplit
from coalisure.sampling import DistributionSpec, PrivateSamples, draw_private

from oracles import enumerate_lp_vertices, random_affine_game, relaxed_membership

C1, C2 = Coalition.of(0), Coalition.of(1)
UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])


def manual_samples(rows, dim=1):
    return PrivateSamples(
        tuple(np.asarray(r, dtype=float).reshape(-1, dim) for r in rows),
        0,
    )


def lifted_brute_objective(spec, samples):
    """Minimum total slack by exhaustive vertex enumeration of the lifted
    (allocation, slack) polyhedron."""
    n = spec.n_agents
    counts = samples.counts
    total_k = sum(counts)
    offs = np.concatenate([[0], np.cumsum(counts)])[:-1]
    rows, rhs = [], []
    for agent in range(n):
        for coalition in spec.allowed(agent):
            vals = spec.value_model.value_batch(coalition, samples.per_agent[agent])
            for k in range(counts[agent]):
                row = np.zeros(n + total_k)
                for m in coalition.members:
                    row[m] = 1.0
                row[n + offs[agent] + k] = 1.0
                rows.append(row)
                rhs.append(float(vals[k]))
    eff = np.zeros(n + total_k)
    eff[:n] = 1.0
    lb = np.concatenate([np.full(n, -np.inf), np.zeros(total_k)])
    verts = enumerate_lp_vertices(
        n + total_k, eff.reshape(1, -1), [spec.grand_value], rows, rhs, lb
    )
    assert verts, "lifted polyhedron should have basic feasible points"
    cost = np.concatenate([np.zeros(n), np.ones(total_k)])
    return min(float(cost @ v) for v in verts)


class TestWorkedExample:
    def test_two_agents_one_sample_each(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 4.0, model)
        samples = manual_samples([[3.0], [3.0]])
        sol = zc.solve_zeta_program(spec, samples)
        assert sol.objective == pytest.approx(2.0, abs=1e-8)
        assert sol.x_star == pytest.approx([1.0, 3.0], abs=1e-7)
        assert sol.zeta_star[0] == pytest.approx([2.0], abs=1e-7)
        assert sol.zeta_star[1] == pytest.approx([0.0], abs=1e-7)
        assert sol.s_star == (1, 0)

    def test_nonempty_core_gives_zero_slack(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[3.0], [3.0]])
        sol = zc.solve_zeta_program(spec, samples)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.s_star == (0, 0)
        core = sc.build(spec, sc.tighten(spec, samples))
        assert sc.contains(core, sol.x_star, tol=1e-7)


class TestAgainstLiftedVertices:
    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            spec = random_affine_game(rng, regime="mixed")
            counts = (2, 1, 1)
            samples = draw_private(UNIT2, counts, 40 + trial)
            sol = zc.solve_zeta_program(spec, samples)
            brute = lifted_brute_objective(spec, samples)
            assert sol.objective == pytest.approx(brute, abs=1e-7)

    def test_objective_zero_iff_core_nonempty(self):
        rng = np.random.default_rng(10)
        outcomes = set()
        for trial in range(30):
            regime = ("nonempty", "empty", "mixed")[trial % 3]
            spec = random_affine_game(rng, regime=regime)
            samples = draw_private(UNIT2, (3, 3, 3), 90 + trial)
            sol = zc.solve_zeta_program(spec, samples)
            empty = sc.is_empty(sc.build(spec, sc.tighten(spec, samples)))
            assert (sol.objective <= 1e-7) == (not empty)
            outcomes.add(empty)
        assert outcomes == {True, False}


class TestUniqueness:
    def test_repeat_solves_identical(self):
        rng = np.random.default_rng(21)
        spec = random_affine_game(rng, regime="empty")
        samples = draw_private(UNIT2, (6, 6, 6), 3)
        a = zc.solve_zeta_program(spec, samples)
        b = zc.solve_zeta_program(spec, samples)
        assert (a.x_star == b.x_star).all()
        assert all((za == zb).all() for za, zb in zip(a.zeta_star, b.zeta_star))

    def test_tie_break_minimizes_lexicographically(self):
        # the optimal face is the whole segment x1 in [1, 3]
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 4.0, model)
        sol = zc.solve_zeta_program(spec, manual_samples([[3.0], [3.0]]))
        assert sol.x_star[0] == pytest.approx(1.0, abs=1e-7)


class TestDegenerateStructures:
    def test_unbounded_selection_face_is_an_error(self):
        # only the pair is constrained, so the tie-break direction x_1 has
        # no floor and the deterministic selection cannot exist
        pair = Coalition.of(0, 1)
        model = ValueModel.affine(1, {pair: (0.0, [1.0])})
        spec = GameSpec(3, 10.0, model, coalitions=(pair,))
        samples = manual_samples([[0.5], [0.5], [0.5]])
        from coalisure.errors import LpError

        with pytest.raises(LpError):
            zc.solve_zeta_program(spec, samples)


class TestComplexityCounts:
    def test_zero_slacks(self):
        zeta = (np.zeros(3), np.zeros(2))
        assert zc.complexity_counts_from_slacks(zeta)[0] == (0, 0)

    def test_single_positive(self):
        zeta = (np.array([0.0, 0.0]), np.array([0.5]))
        assert zc.complexity_counts_from_slacks(zeta)[0] == (0, 1)

    def test_threshold_straddling_reported(self):
        zeta = (np.array([5e-8, 2e-7]),)
        primary, finer = zc.complexity_counts_from_slacks(zeta)
        assert primary == (1,)
        assert finer == (2,)

    def test_counts_accessor(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 4.0, model)
        sol = zc.solve_zeta_program(spec, manual_samples([[3.0], [3.0]]))
        assert sol.s_star == (1, 0)
        assert sol.s_star_sensitivity == (1, 0)
        assert sol.positive_tol == pytest.approx(1e-7)


class TestCertificate:
    def test_full_complexity_is_vacuous(self):
        split = BetaSplit.equal(0.2, 2)
        cert = zc.zeta_certificate(split, (5, 5), (5, 5), 2)
        assert cert.epsilon == 1.0

    def test_monotone_in_complexity(self):
        split = BetaSplit.equal(0.2, 3)
        K = 20
        eps = [
            zc.zeta_certificate(split, (s, 0, 0), (K, K, K), 3).epsilon
            for s in range(K + 1)
        ]
        assert (np.diff(eps) >= -1e-9).all()

    def test_degenerate_distribution_warns(self):
        split = BetaSplit.equal(0.2, 2)
        cert = zc.zeta_certificate(split, (0, 0), (5, 5), 2, assumption_continuous=False)
        assert cert.warning is not None
        clean = zc.zeta_certificate(split, (0, 0), (5, 5), 2, assumption_continuous=True)
        assert clean.warning is None


def relaxed_core(spec, bounds, zeta_bar):
    """The ζ-core: the scenario core with each agent's maxima lowered by its
    relaxation (the ``-inf`` entries off the members stay ``-inf``)."""
    relaxed = bounds.maxima - np.asarray(zeta_bar, dtype=float)
    return sc.build(spec, sc.TightenedBounds(bounds.coalitions, relaxed, bounds.argmax))


class TestMembership:
    def test_contains_matches_relaxed_membership(self):
        """60 games x 3 relaxations (none, the game's own zeta-bar, a random
        one) x 40 points: the scenario core over relaxed bounds gives the
        reference's verdict on every point, x* with its own zeta-bar at tol
        1e-7 among them, and with no relaxation the plain core's too."""
        rng = np.random.default_rng(30)
        verdicts = []
        for game in range(60):
            spec = random_affine_game(rng, regime=("nonempty", "empty", "mixed")[game % 3])
            samples = draw_private(UNIT2, (5, 5, 5), 1700 + game)
            tb = sc.tighten(spec, samples)
            sol = zc.solve_zeta_program(spec, samples)
            for relax in ((0.0, 0.0, 0.0), sol.zeta_bar, tuple(rng.uniform(0.0, 1.0, size=3))):
                core = relaxed_core(spec, tb, relax)
                points = sol.x_star + rng.normal(scale=rng.choice([0.05, 0.5, 2.0]), size=(40, 3))
                points[:, -1] = spec.grand_value - points[:, :-1].sum(axis=1)
                points[0] = sol.x_star
                points[1, 0] += 1e-3  # off the efficiency plane
                for p, x in enumerate(points):
                    tol = 1e-7 if p == 0 else lp.TOL
                    verdict = sc.contains(core, x, tol=tol)
                    assert verdict == relaxed_membership(spec, tb, relax, x, tol=tol), (game, relax, x)
                    if relax == (0.0, 0.0, 0.0):
                        assert verdict == sc.contains(sc.build(spec, tb), x, tol=tol)
                    verdicts.append(verdict)
        assert len(verdicts) == 7200
        assert 0 < sum(verdicts) < len(verdicts)

    def test_huge_relaxation_admits_everything_efficient(self):
        rng = np.random.default_rng(31)
        spec = random_affine_game(rng, regime="empty")
        samples = draw_private(UNIT2, (4, 4, 4), 18)
        core = relaxed_core(spec, sc.tighten(spec, samples), (1e6, 1e6, 1e6))
        for _ in range(50):
            x = rng.uniform(-5, 5, size=3)
            x[-1] = spec.grand_value - x[:-1].sum()
            assert sc.contains(core, x)
        y = np.zeros(3)  # inefficient unless the grand value is 0
        assert sc.contains(core, y) == (abs(spec.grand_value) <= 1e-9)

    def test_solution_is_member_with_its_own_relaxations(self):
        rng = np.random.default_rng(32)
        for trial in range(10):
            spec = random_affine_game(rng, regime="empty")
            samples = draw_private(UNIT2, (5, 5, 5), 60 + trial)
            sol = zc.solve_zeta_program(spec, samples)
            core = relaxed_core(spec, sc.tighten(spec, samples), sol.zeta_bar)
            assert sc.contains(core, sol.x_star, tol=1e-7)


class TestRowsAsTriplets:
    def test_every_row_is_its_members_then_its_slack(self, monkeypatch):
        """Each ``>=`` row of the ζ model, seeded or generated, holds its
        coalition's members in ascending order and then its sample's slack
        column, all with coefficient 1, and the sample's value as bound;
        the other rows are the lexicographic caps."""
        spec = random_affine_game(np.random.default_rng(17), regime="empty")
        samples = draw_private(UNIT2, (9, 7, 8), 23)
        models = []

        class Recording(zc.lp.Model):
            def __init__(self, program):
                super().__init__(program)
                models.append(self)

        monkeypatch.setattr(zc.lp, "Model", Recording)
        zc.solve_zeta_program(spec, samples)
        (model,) = models
        n, values = spec.n_agents, sc.value_table(spec, samples)
        offset = np.concatenate([[0], np.cumsum(samples.counts)])
        a, b = model.program.a_ge, model.program.b_ge
        starts = np.searchsorted(a.row, np.arange(a.shape[0] + 1))
        caps = generated = 0
        for r in range(a.shape[0]):
            col, val = a.col[starts[r] : starts[r + 1]], a.val[starts[r] : starts[r + 1]]
            if (val < 0).all():
                caps += 1
                continue
            assert (val == 1.0).all() and (np.diff(col) > 0).all()
            slack = int(col[-1]) - n
            agent = int(np.searchsorted(offset, slack, side="right")) - 1
            coalition = Coalition.from_members(col[:-1].tolist())
            assert col[-2] < n <= col[-1]
            assert b[r] == values[agent][slack - offset[agent], spec.allowed(agent).index(coalition)]
            generated += r >= len(zc._binding_rows(spec, values))
        assert caps == n
        assert generated > 0
