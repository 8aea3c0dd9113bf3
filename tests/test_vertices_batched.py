"""The blocked batched vertex enumeration against the one-subset-at-a-time
loop it replaced (``oracles.loop_core_vertices``): same vertices, same
order, same bits."""

from itertools import combinations

import numpy as np
import pytest
from oracles import loop_core_vertices, random_affine_game

from coalisure import scenario_core as sc
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, draw_private

UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])


def assert_same_vertices(core):
    got = sc.vertices(core)
    want = loop_core_vertices(core)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()
    return got


def all_coalitions_core(n, bounds, grand):
    """A core over every proper coalition of ``n`` agents with given bounds."""
    model = ValueModel.affine(1, {Coalition(m): (0.0, [0.0]) for m in range(1, 2**n - 1)})
    spec = GameSpec(n, float(grand), model)
    return spec, sc.build(spec, sc.bounds_from_values(bounds(spec.coalitions)))


def random_full_game(rng, n, slack):
    """Affine values on [0,1]^2 for every proper coalition; the grand value
    sits ``slack`` above the sum of the singleton suprema."""
    forms = {
        Coalition(m): (float(rng.uniform(0.0, 0.5)), list(rng.uniform(0.0, 1.0, size=2)))
        for m in range(1, 2**n - 1)
    }
    grand = sum(a + sum(b) for c, (a, b) in forms.items() if c.size == 1) + slack
    return GameSpec(n, grand, ValueModel.affine(2, forms))


@pytest.mark.parametrize("n_agents", [3, 4, 5])
@pytest.mark.parametrize("slack", [-0.3, 0.4, 2.0])
def test_random_games(n_agents, slack):
    rng = np.random.default_rng(500 + n_agents)
    found = 0
    for trial in range(4 if n_agents < 5 else 1):
        spec = random_full_game(rng, n_agents, slack)
        samples = draw_private(UNIT2, (4,) * n_agents, 9000 + trial)
        found += len(assert_same_vertices(sc.build(spec, sc.tighten(spec, samples))))
    assert found or slack < 0


def test_random_pair_structured_games():
    rng = np.random.default_rng(202)
    for trial in range(10):
        spec = random_affine_game(rng, regime="mixed")
        samples = draw_private(UNIT2, (5, 5, 5), 3100 + trial)
        assert_same_vertices(sc.build(spec, sc.tighten(spec, samples)))


@pytest.mark.parametrize("unit", [1.0, 0.1])
@pytest.mark.parametrize("n_agents", [3, 4, 5])
def test_tied_bounds_many_singular_systems(n_agents, unit):
    """Bounds tied by coalition size: many subsystems are singular and many
    subsets meet at one vertex (at unit 0.1, up to rounding)."""
    spec, core = all_coalitions_core(
        n_agents, lambda cs: {c: unit * c.size for c in cs}, 2 * unit * n_agents
    )
    a, _ = core.constraint_rows()
    subsets = np.array(list(combinations(range(a.shape[0]), n_agents - 1)))
    mats = np.concatenate([np.ones((len(subsets), 1, n_agents)), a[subsets]], axis=1)
    assert (np.linalg.matrix_rank(mats) < n_agents).sum() >= len(subsets) // 5
    assert assert_same_vertices(core)


def test_near_feasible_points_are_dropped():
    """The basic point x = (1, 1, 2) misses the pair bound by 5e-8, more
    than the 1e-9 feasibility tolerance; the two vertices on the pair's
    face lie 5e-8 apart, inside the 1e-7 dedup tolerance."""
    pair = Coalition.of(0, 1)
    bounds = {Coalition.of(i): 1.0 for i in range(3)} | {pair: 2.0 + 5e-8}
    model = ValueModel.affine(1, {c: (0.0, [0.0]) for c in bounds})
    spec = GameSpec(3, 4.0, model, coalitions=tuple(bounds))
    verts = assert_same_vertices(sc.build(spec, sc.bounds_from_values(bounds)))
    assert len(verts) == 3
    assert all(v[0] + v[1] >= 2.0 + 5e-8 - 1e-9 for v in verts)


def test_empty_core():
    spec, core = all_coalitions_core(4, lambda cs: {c: 1.0 for c in cs}, 2.0)
    assert assert_same_vertices(core) == []


def test_five_agents_all_coalitions_spans_several_blocks():
    rng = np.random.default_rng(77)
    w = rng.uniform(1.0, 2.0, size=5)

    def bounds(cs):
        return {c: float(w[list(c.members)].sum() - rng.uniform(0.0, 0.6)) for c in cs}

    spec, core = all_coalitions_core(5, bounds, w.sum())
    assert len(list(combinations(range(30), 4))) == 27405 > 4 * sc._VERTEX_BLOCK
    verts = assert_same_vertices(core)
    assert len(verts) > 10


def test_partial_and_tiny_blocks(monkeypatch):
    """Block edges fall inside runs of duplicate vertices."""
    monkeypatch.setattr(sc, "_VERTEX_BLOCK", 7)
    spec, core = all_coalitions_core(
        4, lambda cs: {c: float(c.size) for c in cs}, 8
    )
    assert_same_vertices(core)
    spec = random_full_game(np.random.default_rng(3), 4, 0.4)
    samples = draw_private(UNIT2, (5, 5, 5, 5), 41)
    assert_same_vertices(sc.build(spec, sc.tighten(spec, samples)))
