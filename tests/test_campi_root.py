"""The relaxed-certificate root: narrow positive intervals and the NoRoot domain."""

import numpy as np
import pytest

from coalisure import risk
from coalisure.errors import NoRootError

from oracles import _poly_normalized, _poly_signs_fast, mp_poly_normalized


def test_root_in_a_positive_interval_narrower_than_a_grid_step():
    # h > 0 only on an interval about 1e-5 wide, which falls between the
    # points 0.99625 and 0.9965625 of a 1/(64K) grid
    k, beta, n, s = 50, 0.19007837, 3, 1
    assert mp_poly_normalized(0.9962784205645 + 1e-6, k, s, beta, n) > 0
    t, eps_bar = risk.solve_campi_polynomial(k, beta, n, s)
    assert t == pytest.approx(0.9962784205645, abs=1e-11)
    assert eps_bar == 1.0 - t
    assert abs(mp_poly_normalized(t, k, s, beta, n)) <= 1e-10
    grid = np.arange(1, 64 * k + 1) / (64 * k)
    below = grid[grid < t]
    assert (_poly_normalized(below, k, s, beta, n) < 0).all()
    assert (_poly_signs_fast(below, k, s, beta, n) < 0).all()


def test_no_root_threshold_at_the_readme_split():
    beta, n = 0.2 / 3, 3
    t, _ = risk.solve_campi_polynomial(86, beta, n, 0)
    assert abs(mp_poly_normalized(t, 86, 0, beta, n)) <= 1e-10
    with pytest.raises(NoRootError):
        risk.solve_campi_polynomial(87, beta, n, 0)


@pytest.mark.parametrize(
    "k,beta,n,s",
    [
        (200, 0.2 / 3, 3, 0),  # r still falls at t = 1
        (50, 0.1901, 3, 1),  # r turns inside (0, 1) but its minimum stays above 1
    ],
)
def test_no_root_trace_holds_the_evaluated_points(k, beta, n, s):
    with pytest.raises(NoRootError) as err:
        risk.solve_campi_polynomial(k, beta, n, s)
    points = np.asarray(err.value.scan_points)
    signs = np.asarray(err.value.scan_signs)
    assert 0 < points.size <= 200
    assert points.shape == signs.shape
    assert points[0] == 1.0 and ((points > 0) & (points <= 1)).all()
    assert (signs <= 0).all()
    assert (_poly_normalized(points, k, s, beta, n) <= 0).all()
    assert mp_poly_normalized(points[-1], k, s, beta, n) < 0
