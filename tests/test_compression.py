import numpy as np
import pytest

from coalisure import compression as cp
from coalisure import scenario_core as sc
from coalisure.errors import GuardError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, PrivateSamples, draw_private

from oracles import BRUTE_FORCE_GUARD, _same_core_set, brute_force_min_compression, random_affine_game

C1, C2, C3 = Coalition.of(0), Coalition.of(1), Coalition.of(2)
UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])


def manual_samples(rows, dim=1):
    return PrivateSamples(
        tuple(np.asarray(r, dtype=float).reshape(-1, dim) for r in rows),
        0,
    )


def generous_game(rng):
    """Random instance whose grand value is high enough that every pinned
    feasibility program is solvable, which makes the rebuilt bounds match
    the full-sample bounds coalition by coalition."""
    return random_affine_game(rng, regime="nonempty")


class TestCompressAgent:
    def test_single_coalition_picks_argmax(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[1.0, 3.0, 2.0], [0.0]])
        indices, recruiters = cp.compress_agent(spec, samples, 0)
        assert indices == [1]
        assert recruiters[1] == (C1,)

    def test_ties_pick_lowest_index(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[2.0, 2.0, 2.0], [0.0]])
        indices, _ = cp.compress_agent(spec, samples, 0)
        assert indices == [0]

    def test_cardinality_capped_by_allowed(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            spec = generous_game(rng)
            samples = draw_private(UNIT2, (5, 5, 5), trial)
            for agent in range(3):
                indices, _ = cp.compress_agent(spec, samples, agent)
                assert len(indices) <= len(spec.allowed(agent))

    def test_rebuild_matches_full_bounds(self):
        rng = np.random.default_rng(29)
        for trial in range(25):
            spec = generous_game(rng)
            counts = tuple(int(k) for k in rng.integers(2, 7, size=3))
            samples = draw_private(UNIT2, counts, 5000 + trial)
            cset = cp.compress_all(spec, samples)
            assert cp.compression_reproduces_bounds(spec, samples, cset.per_agent)

    def test_printed_mode_all_infeasible_gives_empty_set(self):
        # negative values cannot be pinned with x >= 0 and no efficiency row
        model = ValueModel.affine(1, {C1: (-2.0, [-1.0]), C2: (-3.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[0.5, 0.2], [0.1]])
        mode = cp.CompressionMode(efficiency=False, nonnegative=True)
        indices, _ = cp.compress_agent(spec, samples, 0, mode)
        assert indices == []
        cset = cp.compress_all(spec, samples, mode)
        assert cset.cardinalities == (0, 0)
        assert cset.mode_tag == "efficiency=off,sign=on"


class TestCompressAll:
    def test_singleton_structure(self):
        model = ValueModel.affine(
            1, {C1: (0.0, [1.0]), C2: (0.0, [1.0]), C3: (0.0, [1.0])}
        )
        spec = GameSpec(3, 30.0, model, coalitions=(C1, C2, C3))
        samples = draw_private(DistributionSpec.uniform([0.0], [1.0]), (4, 4, 4), 8)
        cset = cp.compress_all(spec, samples)
        assert cset.cardinalities == (1, 1, 1)

    def test_structural_bound(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            spec = random_affine_game(rng, regime="mixed")
            samples = draw_private(UNIT2, (4, 4, 4), 9000 + trial)
            cset = cp.compress_all(spec, samples)
            limit = sum(len(spec.allowed(i)) for i in range(3))
            assert cset.total <= limit

    def test_determinism(self):
        rng = np.random.default_rng(15)
        spec = generous_game(rng)
        samples = draw_private(UNIT2, (5, 5, 5), 4)
        a = cp.compress_all(spec, samples)
        b = cp.compress_all(spec, samples)
        assert a.per_agent == b.per_agent

    def test_json_export_one_based(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [0.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[1.0, 3.0], [0.0]])
        doc = cp.compress_all(spec, samples).to_json_dict()
        assert doc["agents"][0]["agent"] == 1
        assert doc["agents"][0]["samples"][0]["index"] == 2


class TestSetEquality:
    @staticmethod
    def dominated_singleton_game():
        """Pair constraints dwarf agent 1's singleton one, so pinning the
        singleton at its sampled maximum is infeasible and its bound drops
        out of the rebuilt core without changing the polytope."""
        model = ValueModel.affine(
            2,
            {
                C1: (0.0, [0.1, 0.0]),
                C2: (-1.0, [0.0, 0.0]),
                C3: (-1.0, [0.0, 0.0]),
                Coalition.of(0, 1): (9.0, [0.0, 1.0]),
                Coalition.of(0, 2): (9.0, [0.0, 1.0]),
                Coalition.of(1, 2): (-1.0, [0.0, 0.0]),
            },
        )
        return GameSpec(3, 15.0, model)

    def test_bound_drop_preserves_the_polytope(self):
        spec = self.dominated_singleton_game()
        rng = np.random.default_rng(41)
        for _ in range(10):
            jitter = rng.uniform(0.0, 0.2, size=4)
            samples = PrivateSamples(
                (
                    # sample 0 carries agent 1's singleton maximum, sample 1
                    # the pair maxima, so the singleton witness is never
                    # recruited through a pair
                    np.array([[0.9 + jitter[0] / 2, 0.0], [0.0, 0.7 + jitter[1]]]),
                    np.array([[jitter[2], 0.1]]),
                    np.array([[jitter[3], 0.1]]),
                ),
                0,
            )
            core = sc.build(spec, sc.tighten(spec, samples))
            assert not sc.is_empty(core)
            cset = cp.compress_all(spec, samples)
            rebuilt = cp.rebuild_bounds(spec, samples, cset.per_agent)
            full = sc.tighten(spec, samples)
            assert rebuilt[spec.coalitions.index(C1)] < full.value(C1)  # the drop actually happens
            assert not cp.compression_reproduces_bounds(spec, samples, cset.per_agent)
            assert _same_core_set(spec, full, rebuilt)


class TestBruteForce:
    def test_single_binding_sample(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[0.7], [0.4]])
        cset = brute_force_min_compression(spec, samples)
        assert cset.per_agent == ((0,), (0,))

    def test_duplicates_need_one_representative(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([[0.7, 0.7, 0.7], [0.4, 0.4]])
        cset = brute_force_min_compression(spec, samples)
        assert cset.cardinalities == (1, 1)
        assert cset.per_agent == ((0,), (0,))

    def test_guard(self):
        model = ValueModel.affine(1, {C1: (0.0, [1.0]), C2: (0.0, [1.0])})
        spec = GameSpec(2, 10.0, model)
        samples = manual_samples([np.linspace(0, 1, 8), np.linspace(0, 1, 8)])
        with pytest.raises(GuardError):
            brute_force_min_compression(spec, samples)

    def test_never_larger_than_distributed_output(self):
        rng = np.random.default_rng(303)
        for trial in range(15):
            spec = generous_game(rng)
            counts = tuple(int(k) for k in rng.integers(2, 5, size=3))
            if sum(counts) > BRUTE_FORCE_GUARD:
                continue
            samples = draw_private(UNIT2, counts, 444 + trial)
            alg = cp.compress_all(spec, samples)
            brute = brute_force_min_compression(spec, samples)
            assert brute.total <= alg.total

    def test_strictly_smaller_when_a_constraint_is_redundant(self):
        # the pair bound is dominated by the singleton bounds, so the pair's
        # witness sample is recruited by the distributed pass but dropped by
        # the minimal search
        model = ValueModel.affine(
            2,
            {
                C1: (0.0, [1.0, 0.0]),
                C2: (0.0, [1.0, 0.0]),
                C3: (0.0, [1.0, 0.0]),
                Coalition.of(0, 1): (-5.0, [0.0, 0.01]),
            },
        )
        spec = GameSpec(
            3, 20.0, model,
            coalitions=(C1, C2, C3, Coalition.of(0, 1)),
        )
        samples = PrivateSamples(
            (
                np.array([[0.9, 0.1], [0.1, 0.9]]),  # singleton max, pair max
                np.array([[0.5, 0.05]]),
                np.array([[0.4, 0.02]]),
            ),
            0,
        )
        alg = cp.compress_all(spec, samples)
        assert 1 in alg.per_agent[0]  # the pair recruited its witness
        brute = brute_force_min_compression(spec, samples)
        assert brute.per_agent == ((0,), (0,), (0,))
        assert brute.total < alg.total
