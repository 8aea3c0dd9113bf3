import numpy as np
import pytest

from coalisure import scenario_core as sc
from coalisure.errors import EmptyCoreError, GuardError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, PrivateSamples, draw_private

from oracles import bounds_from_values, brute_tighten, grid_core_empty, random_affine_game, rational_core_vertices

C1, C2, C3 = Coalition.of(0), Coalition.of(1), Coalition.of(2)
UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])


def two_agent_core(u=10.0, b1=5.0, b2=3.0):
    model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
    spec = GameSpec(2, u, model)
    return spec, sc.build(spec, bounds_from_values({C1: b1, C2: b2}))


def manual_samples(rows, dim=1):
    return PrivateSamples(
        tuple(np.asarray(r, dtype=float).reshape(-1, dim) for r in rows),
        0,
    )


class TestTighten:
    def test_single_agent_max_and_witness(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[0.2, 0.9], [0.1]])
        tb = sc.tighten(spec, samples)
        assert tb.value(C1) == pytest.approx(0.9)
        assert tb.witness(C1) == (0, 1)

    def test_constant_values_zero_bounds(self):
        spec = random_affine_game(np.random.default_rng(0), regime="nonempty")
        zero_model = ValueModel.affine(
            2, {c: (0.0, [0.0, 0.0]) for c in spec.coalitions}
        )
        spec0 = GameSpec(3, spec.grand_value, zero_model)
        samples = draw_private(UNIT2, (4, 4, 4), 5)
        tb = sc.tighten(spec0, samples)
        assert all(tb.value(c) == 0.0 for c in spec0.coalitions)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            spec = random_affine_game(rng, regime="nonempty")
            samples = draw_private(UNIT2, (7, 6, 7), 100 + trial)
            tb = sc.tighten(spec, samples)
            oracle = brute_tighten(spec, samples)
            for c in spec.coalitions:
                # the oracle sums dot products in a different order
                assert tb.value(c) == pytest.approx(oracle[c.mask], rel=1e-13, abs=1e-13)

    def test_tie_breaks_to_lowest_pair(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0]), Coalition.of(0, 1): (0.0, [1.0])})
        spec = GameSpec(3, 10.0, ValueModel.affine(1, {
            C1: (0.0, [1.0]), C2: (0.0, [1.0]), C3: (0.0, [1.0]),
            Coalition.of(0, 1): (0.0, [1.0]), Coalition.of(0, 2): (0.0, [1.0]), Coalition.of(1, 2): (0.0, [1.0]),
        }))
        samples = manual_samples([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        tb = sc.tighten(spec, samples)
        assert tb.witness(Coalition.of(0, 1)) == (0, 0)
        assert tb.witness(Coalition.of(1, 2)) == (1, 0)

    def test_witnesses_rebuild_bounds_exactly(self):
        rng = np.random.default_rng(3)
        spec = random_affine_game(rng)
        samples = draw_private(UNIT2, (5, 5, 5), 9)
        tb = sc.tighten(spec, samples)
        for c in spec.coalitions:
            agent, k = tb.witness(c)
            vals = spec.value_model.value_batch(c, samples.per_agent[agent])
            assert vals[k] == tb.value(c)

    def test_sample_shape_must_match_game(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        from coalisure.errors import GameSpecError

        with pytest.raises(GameSpecError):
            sc.tighten(spec, manual_samples([[0.1], [0.2], [0.3]]))  # 3 agents
        with pytest.raises(GameSpecError):
            sc.tighten(spec, manual_samples([[[0.1, 0.2]], [[0.3, 0.4]]], dim=2))

    def test_per_agent_values_recorded(self):
        rng = np.random.default_rng(4)
        spec = random_affine_game(rng)
        samples = draw_private(UNIT2, (5, 5, 5), 10)
        tb = sc.tighten(spec, samples)
        for row, c in enumerate(spec.coalitions):
            per_agent = tb.maxima[row]
            assert set(np.flatnonzero(np.isfinite(per_agent))) == set(c.members)
            assert max(per_agent[list(c.members)]) == tb.value(c)


class TestMembership:
    def test_inside(self):
        _, core = two_agent_core()
        assert sc.contains(core, [6.0, 4.0])

    def test_coalition_violation(self):
        _, core = two_agent_core()
        assert not sc.contains(core, [4.0, 6.0])

    def test_efficiency_violation(self):
        _, core = two_agent_core()
        assert not sc.contains(core, [6.0, 5.0])


class TestEmptiness:
    def test_nonempty_toy(self):
        _, core = two_agent_core()
        assert not sc.is_empty(core)

    def test_empty_toy(self):
        _, core = two_agent_core(u=4.0, b1=3.0, b2=3.0)
        assert sc.is_empty(core)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(23)
        decided = 0
        trials = 0
        while decided < 30 and trials < 300:
            trials += 1
            spec = random_affine_game(rng, regime="mixed")
            samples = draw_private(UNIT2, (4, 4, 4), 1000 + trials)
            tb = sc.tighten(spec, samples)
            verdict = grid_core_empty(spec, {c.mask: tb.value(c) for c in spec.coalitions}, h=0.01)
            if verdict is None:
                continue
            core = sc.build(spec, tb)
            assert sc.is_empty(core) == verdict
            decided += 1
        assert decided == 30


class TestCoalitionMin:
    def test_two_agent_values(self):
        _, core = two_agent_core()
        assert sc.coalition_min(core, C1) == pytest.approx(5.0, abs=1e-9)
        assert sc.coalition_min(core, C2) == pytest.approx(3.0, abs=1e-9)

    def test_empty_core_raises(self):
        _, core = two_agent_core(u=4.0, b1=3.0, b2=3.0)
        with pytest.raises(EmptyCoreError):
            sc.coalition_min(core, C1)

    def test_matches_vertex_minima(self):
        rng = np.random.default_rng(101)
        done = 0
        seed = 0
        while done < 25:
            seed += 1
            spec = random_affine_game(rng, regime="nonempty")
            samples = draw_private(UNIT2, (5, 5, 5), seed)
            core = sc.build(spec, sc.tighten(spec, samples))
            verts = sc.vertices(core)
            assert verts
            for c in spec.coalitions:
                via_lp = sc.coalition_min(core, c)
                via_vertices = min(v[list(c.members)].sum() for v in verts)
                assert via_lp == pytest.approx(via_vertices, abs=1e-7)
            done += 1

    def test_at_least_bound(self):
        rng = np.random.default_rng(7)
        spec = random_affine_game(rng, regime="nonempty")
        samples = draw_private(UNIT2, (6, 6, 6), 2)
        core = sc.build(spec, sc.tighten(spec, samples))
        for c in spec.coalitions:
            assert sc.coalition_min(core, c) >= core.bounds.value(c) - 1e-9

    def test_unconstrained_direction_is_unbounded(self):
        # only the pair {1,2} is enforced: x_1 alone can sink without limit
        pair = Coalition.of(0, 1)
        model = ValueModel.affine(1, {pair: (0.0, [1.0])})
        spec = GameSpec(3, 10.0, model, coalitions=(pair,))
        core = sc.build(spec, bounds_from_values({pair: 4.0}))
        assert sc.coalition_min(core, C1) == -np.inf
        assert sc.coalition_min(core, pair) == pytest.approx(4.0, abs=1e-9)


class TestVertices:
    def test_two_agent_interval(self):
        _, core = two_agent_core()
        verts = sorted(tuple(v) for v in sc.vertices(core))
        assert np.allclose(verts, [(5.0, 5.0), (7.0, 3.0)])

    def test_empty_core_no_vertices(self):
        _, core = two_agent_core(u=4.0, b1=3.0, b2=3.0)
        assert sc.vertices(core) == []

    def test_guard(self, monkeypatch):
        """The guard counts subsets, not agents: a 4-agent core over every
        coalition but {4} (so every subset is solved) has C(13, 3) = 286
        subsets, allowed at a limit of 286 and refused at 285 before any
        system is solved."""
        structure = tuple(Coalition(m) for m in range(1, 2**4 - 1) if m != 8)
        model = ValueModel.affine(1, {c: (0.0, [0.0]) for c in structure})
        spec = GameSpec(4, 10.0, model, coalitions=structure)
        core = sc.build(spec, bounds_from_values({c: 1.0 for c in spec.coalitions}))
        monkeypatch.setattr(sc, "VERTEX_SUBSET_LIMIT", 286)
        assert len(sc.vertices(core)) == 5
        monkeypatch.setattr(sc, "VERTEX_SUBSET_LIMIT", 285)
        monkeypatch.setattr(sc, "_basic_points", None)  # nothing may be solved
        with pytest.raises(GuardError, match="solve 286 .*the limit is 285"):
            sc.vertices(core)

    def test_matches_exact_enumeration(self):
        rng = np.random.default_rng(202)
        for trial in range(25):
            spec = random_affine_game(rng, regime="nonempty")
            samples = draw_private(UNIT2, (4, 4, 4), 3000 + trial)
            core = sc.build(spec, sc.tighten(spec, samples))
            verts = sc.vertices(core)
            rows = [c.indicator(3) for c in spec.coalitions]
            rhs = [core.bounds.value(c) for c in spec.coalitions]
            exact = rational_core_vertices(3, spec.grand_value, rows, rhs)
            assert len(verts) == len(exact)
            for v in verts:
                assert sc.contains(core, v, tol=1e-9)
                assert any(
                    max(abs(float(e) - x) for e, x in zip(ev, v)) < 1e-7 for ev in exact
                )


class TestMonotonicity:
    def test_adding_samples_never_enlarges_core(self):
        rng = np.random.default_rng(8)
        spec = random_affine_game(rng, regime="nonempty")
        small = draw_private(UNIT2, (4, 4, 4), 88)
        big = draw_private(UNIT2, (9, 4, 4), 88)  # same stream, more draws for agent 1
        tb_small = sc.tighten(spec, small)
        tb_big = sc.tighten(spec, big)
        for c in spec.coalitions:
            assert tb_big.value(c) >= tb_small.value(c)
        core_small = sc.build(spec, tb_small)
        core_big = sc.build(spec, tb_big)
        for v in sc.vertices(core_big):
            assert sc.contains(core_small, v, tol=1e-9)


class TestLexicographicSelection:
    def test_minimizes_first_coordinate(self):
        _, core = two_agent_core()
        x = sc.lexicographic_allocation(core)
        assert x == pytest.approx([5.0, 5.0], abs=1e-8)

    def test_is_a_core_point(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            spec = random_affine_game(rng, regime="nonempty")
            samples = draw_private(UNIT2, (5, 5, 5), 600 + trial)
            core = sc.build(spec, sc.tighten(spec, samples))
            x = sc.lexicographic_allocation(core)
            assert sc.contains(core, x, tol=1e-7)
            assert x[0] == pytest.approx(sc.coalition_min(core, C1), abs=1e-7)

    def test_empty_core_raises(self):
        _, core = two_agent_core(u=4.0, b1=3.0, b2=3.0)
        with pytest.raises(EmptyCoreError):
            sc.lexicographic_allocation(core)


class TestJson:
    def test_export_shape(self):
        spec, core = two_agent_core()
        doc = core.to_json_dict()
        assert doc["n_agents"] == 2
        assert doc["grand_value"] == 10.0
        assert [b["coalition"] for b in doc["bounds"]] == ["1", "2"]
        assert all(b["witness_agent"] >= 1 for b in doc["bounds"])
