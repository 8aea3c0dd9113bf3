"""The relaxed-certificate root: narrow positive intervals and the NoRoot domain."""

import numpy as np
import pytest
from scipy.optimize import brentq

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
    assert (_poly_signs_fast(below, k, beta, n)[:, s] < 0).all()


@pytest.mark.parametrize(
    "k,s,bracket,h_at_one",
    [
        (24, 5, (0.5, 0.75), -1),  # the search moved the lower end off 0, to t = 0.5
        (200, 0, (0.5, 1.0), 1),  # h(1) > 0 at once; the lower end comes from halving t
    ],
)
def test_brent_bracket_ends(monkeypatch, k, s, bracket, h_at_one):
    beta, n = 0.01, 3
    brackets = []

    def spy(f, a, b, **kwargs):
        brackets.append((a, b))
        return brentq(f, a, b, **kwargs)

    monkeypatch.setattr(risk, "brentq", spy)
    assert np.sign(mp_poly_normalized(1.0, k, s, beta, n)) == h_at_one
    t, eps_bar = risk.solve_campi_polynomial.__wrapped__(k, beta, n, s)  # past the cache
    assert brackets == [bracket]
    assert eps_bar == 1.0 - t
    assert abs(mp_poly_normalized(t, k, s, beta, n)) <= 1e-10
    grid = np.arange(1, 64 * k + 1) / (64 * k)
    below = grid[grid < t]
    assert below.size and (_poly_signs_fast(below, k, beta, n)[:, s] < 0).all()


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
