"""The fresh pass streams its draws in blocks of ``sampling._FRESH_BLOCK``
rows: the same bits as one draw of the whole array, the same hit counts as
one evaluation of it, and a memory peak that does not grow with the number
of draws."""

import tracemalloc

import numpy as np
import pytest

from coalisure import validation
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import _FRESH_BLOCK as B
from coalisure.sampling import DistributionSpec, draw_fresh, draw_private, fresh_blocks

from oracles import one_shot_fresh, whole_array_hits
from test_run_all_guard import affine_config

GAUSS3 = DistributionSpec.gaussian(
    [0.2, 0.5, 0.4], [[0.04, 0.01, 0.0], [0.01, 0.09, -0.02], [0.0, -0.02, 0.05]]
)
DISTS = {
    "uniform": DistributionSpec.uniform([0.0, -0.5, 0.0], [1.0, 0.5, 2.0]),
    "gaussian": GAUSS3,
    "mixture": DistributionSpec.mixture(
        [0.35, 0.65], [DistributionSpec.uniform([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), GAUSS3]
    ),
}
SIZES = [1, B - 1, B, B + 1, 3 * B + 7]


def max_affine_game() -> GameSpec:
    """Three agents on R^3; coalition {1,2} is the max of two pieces."""
    c = Coalition.of
    return GameSpec(3, 6.0, ValueModel(3, {
        c(0): [(0.0, [1.0, 0.4, 0.1])],
        c(1): [(0.2, [0.9, 0.5, -0.2])],
        c(2): [(0.4, [0.8, 0.6, 0.3])],
        c(0, 1): [(0.5, [0.6, 0.2, 0.0]), (0.1, [0.0, 1.2, 0.5])],
        c(0, 2): [(0.5, [0.6, 0.2, 0.1])],
        c(1, 2): [(0.5, [0.6, 0.2, -0.1])],
    }))


def quantile_thresholds(spec, dist, q) -> np.ndarray:
    """Each coalition's q-quantile over a private draw, in row order."""
    xs = draw_private(dist, (4000,), 5).per_agent[0]
    return np.array([np.quantile(spec.value_model.value_batch(c, xs), q) for c in spec.coalitions])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", DISTS)
def test_hits_equal_the_whole_array_oracle(name, n):
    spec, dist = max_affine_game(), DISTS[name]
    with_neg_inf = quantile_thresholds(spec, dist, 0.995)
    with_neg_inf[3] = -np.inf  # the max-affine coalition: every draw is a hit
    thresholds = [quantile_thresholds(spec, dist, 0.97), with_neg_inf, quantile_thresholds(spec, dist, 0.9)]
    found = validation.estimate_violations(spec, thresholds, dist, n, 17)
    assert [e.hits for e in found] == whole_array_hits(spec, thresholds, dist, n, 17)
    assert found[1].hits == n
    assert all(type(e.hits) is int and e.n_samples == n for e in found)


def test_repeated_array_gets_one_estimate_per_copy():
    spec, dist, n = max_affine_game(), GAUSS3, B + 1
    first = quantile_thresholds(spec, dist, 0.97)
    thresholds = [first, quantile_thresholds(spec, dist, 0.9), first.copy()]
    assert thresholds[2] is not first
    found = validation.estimate_violations(spec, thresholds, dist, n, 23)
    assert len(found) == 3
    assert found[0] == found[2]
    assert [e.hits for e in found] == whole_array_hits(spec, thresholds, dist, n, 23)


@pytest.mark.parametrize("name", DISTS)
def test_draw_fresh_bits_equal_one_shot_oracle(name):
    dist, n = DISTS[name], 3 * B + 7
    got = draw_fresh(dist, n, 42)
    want = one_shot_fresh(dist, n, 42)
    assert got.shape == want.shape == (n, 3)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_blocks_are_consecutive_rows_of_the_stream():
    blocks = list(fresh_blocks(GAUSS3, 3 * B + 7, 8))
    assert [b.shape[0] for b in blocks] == [B, B, B, 7]
    assert np.array_equal(np.concatenate(blocks), one_shot_fresh(GAUSS3, 3 * B + 7, 8))


def test_pass_memory_does_not_grow_with_n_fresh():
    doc = affine_config(7)
    spec = GameSpec.from_json_dict(doc["game"])
    dist = DistributionSpec.from_json_dict(doc["distribution"])
    assert len(spec.coalitions) == 30
    rng = np.random.default_rng(3)
    thresholds = [rng.uniform(0.8, 1.6, len(spec.coalitions)) for _ in range(3)]
    peaks = {}
    for n in (4 * B, 1_000_000):
        tracemalloc.start()
        try:
            validation.estimate_violations(spec, thresholds, dist, n, 11)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1_000_000] < 2 * 2**20
    assert peaks[1_000_000] <= peaks[4 * B] + 64 * 2**10
