"""The ζ program's memory at seven agents.

The slack program has N + ΣK_i columns and at most N+1 nonzeros per row.
Row generation on a strongly empty 7-agent core appends a block of rows
every round, so a program held as a dense matrix grows by one
(rows × columns) copy per round: its ``tracemalloc`` peak at K=200 was
109 MB, against about 2.5 MB with the rows held as triplets.  The bound
sits between the two.  The answer must still be the cold row-generation
oracle's within the ζ program's own slack threshold.
"""

import itertools
import tracemalloc

import numpy as np

from coalisure import zeta_core as zc
from coalisure.game import GameSpec
from coalisure.sampling import DistributionSpec, draw_private

from oracles import cold_zeta_program

PEAK_BOUND_MB = 16.0


def empty_core_n7():
    """Affine values on [0,1]^2 for all 126 proper coalitions of 7 agents;
    the grand value is 0.15 N times the largest value any coalition reaches,
    so most samples of every agent need a positive slack."""
    rng = np.random.default_rng(7)
    values = {}
    for size in range(1, 7):
        for members in itertools.combinations(range(1, 8), size):
            a, b = float(rng.uniform(0.0, 0.5)), [float(v) for v in rng.uniform(0.0, 1.0, size=2)]
            values[",".join(map(str, members))] = [{"a": a, "b": b}]
    top = max(p["a"] + sum(p["b"]) for (p,) in values.values())
    doc = {"n_agents": 7, "grand_value": 0.15 * 7 * top, "uncertainty_dim": 2, "values": values}
    return GameSpec.from_json_dict(doc)


def test_zeta_program_peak_memory_at_seven_agents():
    spec = empty_core_n7()
    assert len(spec.coalitions) == 126
    samples = draw_private(DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), (200,) * 7, 5)
    tracemalloc.start()
    try:
        sol = zc.solve_zeta_program(spec, samples)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < PEAK_BOUND_MB
    assert min(sol.s_star) > 100  # a strongly empty core: many rounds of rows
    x = cold_zeta_program(spec, samples)[0]
    assert np.abs(sol.x_star - x).max() <= zc.POSITIVE_SLACK_TOL
