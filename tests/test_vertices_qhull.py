"""Core vertices from Qhull's active sets.

At N=3-5 the list equals the loop over every (N-1)-subset
(``oracles.loop_core_vertices``) bit for bit, and each test checks which
subset source the core took: Qhull's candidates, the full stream (tied
bounds, custom structures, a failed Qhull or Chebyshev LP) or none (a
clearly empty core).  At N=6-8, where the loop is too slow, every vertex
lies in the core and LP minima in random directions equal the minima over
the list (``oracles.support_gaps``).
"""

import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from oracles import bounds_from_values, loop_basic_points, support_gaps
from scipy.spatial import QhullError
from test_run_all_guard import affine_config
from test_vertices_batched import UNIT2, all_coalitions_core, assert_same_vertices, random_full_game

from coalisure import cli, lp
from coalisure import scenario_core as sc
from coalisure.errors import GuardError, LpNumericalError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import draw_private


@pytest.fixture
def full_stream(monkeypatch):
    """The (rows, N-1) of every call that solves the full subset stream."""
    calls = []
    solve = sc._basic_points

    def spy(core, subsets):
        if isinstance(subsets, combinations):
            calls.append((len(core.constraint_rows()[1]), core.n_agents - 1))
        return solve(core, subsets)

    monkeypatch.setattr(sc, "_basic_points", spy)
    return calls


def sampled_core(spec, count, seed):
    samples = draw_private(UNIT2, (count,) * spec.n_agents, seed)
    return sc.build(spec, sc.tighten(spec, samples))


def config_core(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    config = cli.load_config(path)
    samples = draw_private(config.dist, config.counts, config.master_seed)
    return sc.build(config.spec, sc.tighten(config.spec, samples))


@pytest.mark.parametrize("n_agents", [3, 4, 5])
@pytest.mark.parametrize("slack", [0.4, 2.0])
def test_random_full_games(full_stream, n_agents, slack):
    rng = np.random.default_rng(700 + n_agents)
    for trial in range(4 if n_agents < 5 else 2):
        core = sampled_core(random_full_game(rng, n_agents, slack), 4, 7000 + trial)
        assert assert_same_vertices(core)
    assert not full_stream


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_all_games(tmp_path, full_stream, seed):
    assert len(assert_same_vertices(config_core(tmp_path, affine_config(seed)))) >= 5
    assert not full_stream


def _no_candidates(core, subsets):
    assert list(subsets) == []
    return []


def test_clearly_empty_cores_solve_nothing(monkeypatch):
    rng = np.random.default_rng(31)
    monkeypatch.setattr(sc, "_basic_points", _no_candidates)
    for trial in range(3):
        core = sampled_core(random_full_game(rng, 5, -2.0), 4, 310 + trial)
        assert sc.is_empty(core) and sc.vertices(core) == []


@pytest.mark.parametrize("unit", [1.0, 0.1])
def test_degenerate_vertices_from_qhull(full_stream, unit):
    """Bounds tied by size: 15 rows are active at each of the 5 vertices,
    so Qhull's candidates are 5 * C(15, 4) of the 27,405 subsets."""
    _, core = all_coalitions_core(5, lambda cs: {c: unit * c.size for c in cs}, 2 * unit * 5)
    assert len(assert_same_vertices(core)) == 5
    assert not full_stream


@pytest.mark.parametrize("unit", [1.0, 0.1])
def test_core_of_one_point_falls_back(full_stream, unit):
    """Bounds tied by size and a grand value that every singleton bound
    exhausts: the core is one point, Chebyshev radius 0."""
    _, core = all_coalitions_core(5, lambda cs: {c: unit * c.size for c in cs}, unit * 5)
    assert len(assert_same_vertices(core)) == 1
    assert full_stream == [(30, 4)]


def test_flat_core_falls_back(full_stream):
    """Agent 1's singleton bound and its complement's pin x_1 to the middle
    of its range, so the core is a 3-dimensional slice: radius 0."""
    rng = np.random.default_rng(77)
    w = rng.uniform(1.0, 2.0, size=5)
    bounds = {Coalition(m): float(w[list(Coalition(m).members)].sum() - rng.uniform(0.0, 0.6)) for m in range(1, 31)}
    grand = w.sum() + 1.0
    _, core = all_coalitions_core(5, lambda cs: bounds, grand)
    x1 = [v[0] for v in sc.vertices(core)]
    bounds[Coalition.of(0)] = (min(x1) + max(x1)) / 2
    bounds[Coalition(30)] = grand - bounds[Coalition.of(0)]
    full_stream.clear()
    _, core = all_coalitions_core(5, lambda cs: bounds, grand)
    assert len(assert_same_vertices(core)) >= 4
    assert full_stream == [(30, 4)]


def test_missing_singleton_falls_back(full_stream):
    """Without agent 1's singleton row the core may be unbounded."""
    rng = np.random.default_rng(5)
    spec = random_full_game(rng, 5, 0.4)
    structure = tuple(c for c in spec.coalitions if c != Coalition.of(0))
    core = sampled_core(GameSpec(5, spec.grand_value, spec.value_model, coalitions=structure), 4, 51)
    assert_same_vertices(core)
    assert full_stream == [(29, 4)]


def test_custom_structure_with_every_singleton_and_complement(full_stream):
    rng = np.random.default_rng(6)
    spec = random_full_game(rng, 5, 0.4)
    keep = rng.random(len(spec.coalitions)) < 0.6
    full = (1 << 5) - 1
    structure = tuple(
        c for c, k in zip(spec.coalitions, keep) if k or c.size == 1 or Coalition(full ^ c.mask).size == 1
    )
    core = sampled_core(GameSpec(5, spec.grand_value, spec.value_model, coalitions=structure), 4, 61)
    assert len(structure) < 30
    assert assert_same_vertices(core)
    assert not full_stream


def _qhull_fails(*args, **kwargs):
    raise QhullError("QH6154 qhull precision error")


def _lp_fails(program):
    raise LpNumericalError("HiGHS run failed")


def _lp_undecided(program):
    return lp.LpOutcome(lp.UNBOUNDED, None, None, None, None)


@pytest.mark.parametrize("target, failure", [
    ("coalisure.scenario_core.HalfspaceIntersection", _qhull_fails),
    ("coalisure.lp.solve", _lp_fails),
    ("coalisure.lp.solve", _lp_undecided),
])
def test_failures_fall_back(tmp_path, monkeypatch, full_stream, target, failure):
    core = config_core(tmp_path, affine_config(4))
    monkeypatch.setattr(target, failure)
    assert assert_same_vertices(core)
    assert full_stream == [(30, 4)]


@pytest.mark.parametrize("n_agents", [6, 7, 8])
def test_large_cores_against_lp_minima(tmp_path, full_stream, n_agents):
    rng = np.random.default_rng(800 + n_agents)
    cores = [
        sampled_core(random_full_game(rng, n_agents, 0.4), 4, 80 + n_agents),
        config_core(tmp_path, affine_config(n_agents, n_agents=n_agents)),
    ]
    for core in cores:
        verts = sc.vertices(core)
        assert len(verts) >= n_agents
        assert all(sc.contains(core, v) for v in verts)
        assert max(support_gaps(core, verts, rng.normal(size=(20, n_agents)))) <= 1e-7
    assert not full_stream


def test_degenerate_core_is_guarded(monkeypatch):
    """The 7-agent simplex: 63 rows are active at each vertex, so Qhull's
    candidates are 7 * C(63, 6) subsets, refused before any is solved."""
    model = ValueModel.affine(1, {Coalition(m): (0.0, [0.0]) for m in range(1, 2**7 - 1)})
    spec = GameSpec(7, 100.0, model)
    core = sc.build(spec, bounds_from_values({c: 0.0 for c in spec.coalitions}))
    monkeypatch.setattr(sc, "_basic_points", None)
    with pytest.raises(GuardError, match=f"solve 475618647 .*the limit is {sc.VERTEX_SUBSET_LIMIT}"):
        sc.vertices(core)


def test_qhull_is_capped_by_agent_count(monkeypatch):
    """Above ``VERTEX_QHULL_AGENTS`` only the full stream is counted: a
    full 9-agent core is refused before any LP, Qhull call or solve."""
    model = ValueModel.affine(1, {Coalition(m): (0.0, [0.0]) for m in range(1, 2**9 - 1)})
    spec = GameSpec(9, 100.0, model)
    core = sc.build(spec, bounds_from_values({c: 0.0 for c in spec.coalitions}))
    for name in ("HalfspaceIntersection", "_basic_points"):
        monkeypatch.setattr(sc, name, None)
    monkeypatch.setattr(lp, "solve", None)
    with pytest.raises(GuardError, match=f"solve {comb(510, 8)} "):
        sc.vertices(core)


def test_convex_seven_agent_core(monkeypatch):
    """Bounds |S|^2 make the game convex, so the core's vertices are its
    5,040 marginal vectors, each a permutation of 1, 3, ..., 13.  The
    dedup's sorted index keeps what comparing each point with every kept
    point keeps, on the same candidate subsets."""
    model = ValueModel.affine(1, {Coalition(m): (0.0, [0.0]) for m in range(1, 2**7 - 1)})
    spec = GameSpec(7, 49.0, model)
    core = sc.build(spec, bounds_from_values({c: float(len(c.members) ** 2) for c in spec.coalitions}))
    streams = []
    solve = sc._basic_points

    def spy(core, subsets):
        streams.append(list(subsets))
        return solve(core, streams[-1])

    monkeypatch.setattr(sc, "_basic_points", spy)
    verts = sc.vertices(core)
    assert len(verts) == 5040 and len(streams) == 1
    assert all(sc.contains(core, v) for v in verts)
    marginal = np.sort(np.array(verts), axis=1)
    assert np.abs(marginal - np.arange(1, 14, 2)).max() <= 1e-9
    assert len({tuple(np.argsort(v)) for v in verts}) == 5040
    expected = loop_basic_points(core, streams[0])
    assert len(expected) == len(verts)
    assert all(np.array_equal(x, y) for x, y in zip(verts, expected))


def partial_core(rng, n_agents, sizes, keep, seed, slack=2.0):
    """A sampled core over every singleton and, of the coalitions whose size
    is in ``sizes``, each with probability ``keep``; no singleton's
    complement unless ``sizes`` names it."""
    spec = random_full_game(rng, n_agents, slack)
    structure = tuple(c for c in spec.coalitions if c.size == 1 or (c.size in sizes and rng.random() < keep))
    return sampled_core(GameSpec(n_agents, spec.grand_value, spec.value_model, coalitions=structure), 4, seed)


@pytest.mark.parametrize("n_agents", [3, 4, 5, 6])
def test_singletons_without_complements_take_qhull(full_stream, n_agents):
    """The singletons alone bound the core, so Qhull serves a structure
    without any singleton's complement; the list is the loop's, bit for bit.
    At N=3 such a structure is the three singletons, whose three subsets
    Qhull's candidates cannot undercut, so the full stream solves them."""
    rng = np.random.default_rng(900 + n_agents)
    sizes = range(2, n_agents - 1)
    for trial in range(4):
        core = partial_core(rng, n_agents, sizes, 0.5 if n_agents < 6 else 0.3, 9100 + trial)
        assert all(c.size < n_agents - 1 for c in core.coalitions())
        assert sc._qhull_active_sets(core) is not None
        assert len(assert_same_vertices(core)) >= n_agents
    assert full_stream == ([(3, 2)] * 4 if n_agents == 3 else [])


def test_seven_agents_over_singletons_and_pairs(full_stream):
    """28 rows: Qhull's candidates give the full stream's list, bit for bit."""
    core = partial_core(np.random.default_rng(907), 7, (2,), 1.0, 97)
    m = len(core.constraint_rows()[1])
    verts = sc.vertices(core)
    assert m == 28 and not full_stream
    expected = sc._basic_points(core, combinations(range(m), 6))
    assert len(verts) == len(expected) >= 7
    assert all(x.tobytes() == y.tobytes() for x, y in zip(verts, expected))


def test_eight_agents_over_singletons_pairs_and_triples(full_stream):
    """92 rows: C(92, 7) subsets are beyond the guard, Qhull's candidates
    are not; every vertex lies in the core and none is missed."""
    rng = np.random.default_rng(908)
    core = partial_core(rng, 8, (2, 3), 1.0, 98)
    assert len(core.constraint_rows()[1]) == 92 and comb(92, 7) > sc.VERTEX_SUBSET_LIMIT
    verts = sc.vertices(core)
    assert len(verts) >= 8 and not full_stream
    assert all(sc.contains(core, v) for v in verts)
    assert max(support_gaps(core, verts, rng.normal(size=(20, 8)))) <= 1e-7
