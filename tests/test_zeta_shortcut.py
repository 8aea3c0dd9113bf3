"""The relaxed point on a non-empty core is the lexicographic allocation.

At zero total slack the ζ program's rows x(S) >= u_S(ξ_i^(k)) say exactly
x(S) >= b_S, so its optimal face is the scenario core and its tie-break is
the allocation's: ``SampleSet.zeta`` takes the cached allocation there and
runs ``solve_zeta_program`` only on empty cores.  Checked against the ζ
program as the oracle on non-empty cores of the ``runall-n5-k200`` games,
the README game and games whose values tie by coalition size, and on the
acceptance suite's empty-core game, where nothing may change.
"""

import json

import numpy as np
import pytest

from coalisure import compression, scenario_core, validation, zeta_core
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import DistributionSpec, draw_private, samples_from_csv

from test_benchmark_gates import load_workloads, workload_game
from test_pipeline import README_GAME, run, write_config

UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
MODE = compression.CompressionMode.default()
TOL = 1e-8


def tied_game(n, grand_per_agent) -> GameSpec:
    """Constant values 0.5 * |S| for every proper coalition: every sample ties."""
    forms = {Coalition(m): (0.5 * bin(m).count("1"), [0.0, 0.0]) for m in range(1, 2**n - 1)}
    return GameSpec(n, grand_per_agent * n, ValueModel.affine(2, forms))


def nonempty_sets():
    """(name, spec, samples), 75 in all: the 12 ``runall-n5-k200`` games of
    seeds 1-3, rounds 0-3, with three private seeds each at K=200, 30
    README-game seeds at K=50 and tied games at N = 3, 4, 5."""
    wl = load_workloads()
    out = []
    for seed in (1, 2, 3):
        for r in range(4):
            spec = workload_game(*wl.affine_n5_values(seed, r))
            for p in range(3):
                samples = draw_private(UNIT2, (200,) * 5, wl.derive(seed, 1, r, p))
                out.append((f"n5-seed{seed}-round{r}-{p}", spec, samples))
    readme = GameSpec.from_json_dict(README_GAME)
    out += [(f"readme-{seed}", readme, draw_private(UNIT2, (50,) * 3, seed)) for seed in range(100, 130)]
    for n in (3, 4, 5):
        for i, per_agent in enumerate((0.5, 0.6, 0.75)):
            out.append((f"tied-n{n}-{per_agent}", tied_game(n, per_agent), draw_private(UNIT2, (10,) * n, 40 + i)))
    return out


NONEMPTY = nonempty_sets()


@pytest.mark.parametrize("case", NONEMPTY, ids=[name for name, _, _ in NONEMPTY])
def test_nonempty_core_matches_the_zeta_program(case, monkeypatch):
    _, spec, samples = case
    oracle = zeta_core.solve_zeta_program(spec, samples)
    called = []
    monkeypatch.setattr(zeta_core, "solve_zeta_program", lambda *a: called.append(a))
    sampled = validation.SampleSet(spec, samples, MODE)
    sol = sampled.zeta
    assert called == []
    assert np.array_equal(sol.x_star, sampled.allocation)  # bit for bit
    assert np.abs(sol.x_star - oracle.x_star).max() <= TOL
    for mine, theirs in zip(sol.zeta_star, oracle.zeta_star, strict=True):
        assert mine.shape == theirs.shape
        assert np.abs(mine - theirs).max(initial=0.0) <= TOL
    assert abs(sol.objective - oracle.objective) <= TOL * samples.total
    assert sol.s_star == oracle.s_star
    assert sol.s_star_sensitivity == oracle.s_star_sensitivity


def test_run_all_writes_the_allocation_as_x_star(tmp_path):
    out = tmp_path / "out"
    r = run("run-all", "--config", write_config(tmp_path), "--out", out, "--trials", "1")
    assert r.exit_code == 0, r.output
    samples = samples_from_csv((out / "samples.csv").read_text())
    allocation = validation.SampleSet(GameSpec.from_json_dict(README_GAME), samples, MODE).allocation
    assert json.loads((out / "zeta.json").read_text())["x_star"] == allocation.tolist()


@pytest.mark.parametrize("k", [50, 200])
def test_empty_core_runs_the_zeta_program_once(k, monkeypatch):
    spec = workload_game(load_workloads().EMPTY_CORE_VALUES, 3.8)
    samples = draw_private(UNIT2, (k,) * 3, 11)
    assert scenario_core.is_empty(scenario_core.build(spec, scenario_core.tighten(spec, samples)))
    oracle = zeta_core.solve_zeta_program(spec, draw_private(UNIT2, (k,) * 3, 11))
    solve, calls = zeta_core.solve_zeta_program, []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(zeta_core, "solve_zeta_program", counted)
    sol = validation.SampleSet(spec, samples, MODE).zeta
    assert calls == [(spec, samples)]
    assert np.array_equal(sol.x_star, oracle.x_star)
    for mine, theirs in zip(sol.zeta_star, oracle.zeta_star, strict=True):
        assert np.array_equal(mine, theirs)
    assert (sol.objective, sol.s_star, sol.s_star_sensitivity, sol.zeta_bar) == (
        oracle.objective, oracle.s_star, oracle.s_star_sensitivity, oracle.zeta_bar,
    )
