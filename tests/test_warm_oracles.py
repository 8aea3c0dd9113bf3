"""Warm-started models against one cold HiGHS solve per program.

Compression, coalition minima, the lexicographic allocation and the ζ
program each solve a family of programs in one ``lp.Model``; the oracles in
``oracles.py`` solve every member program from scratch.  On random N=3–5
games (all coalitions, pair structures, bounds tied by coalition size, an
empty core) and in both compression modes:

* compression sets and their recruiters are identical;
* coalition minima and lexicographic allocations agree within 1e-12;
* ζ complexities and certificates are identical, and the slack objective
  and x* agree within the program's own 1e-7 slack threshold (the
  lexicographic tie-break caps leave a 1e-9 band in which either solve
  may land; the full-program objective is checked by acceptance 7d).
"""

import numpy as np
import pytest

from coalisure import compression as cp
from coalisure import scenario_core as sc
from coalisure import zeta_core as zc
from coalisure.errors import CoalisureError, EmptyCoreError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.risk import BetaSplit
from coalisure.sampling import DistributionSpec, draw_private

from oracles import (
    cold_coalition_minima,
    cold_compress_agent,
    cold_lexicographic_allocation,
    cold_zeta_program,
    random_affine_game,
)

UNIT2 = DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0])
MODES = (cp.CompressionMode.default(), cp.CompressionMode(efficiency=False, nonnegative=True))


def full_game(rng, n, slack):
    """Affine values on [0,1]^2 for every proper coalition.  The grand value
    is N times the largest value any coalition reaches (slack None: the
    equal split is always in the core) or ``slack`` above the sum of the
    singleton suprema."""
    forms = {
        Coalition(m): (float(rng.uniform(0.0, 0.5)), [float(v) for v in rng.uniform(0.0, 1.0, size=2)])
        for m in range(1, 2**n - 1)
    }
    if slack is None:
        grand = n * max(a + sum(b) for a, b in forms.values())
    else:
        grand = sum(a + sum(b) for c, (a, b) in forms.items() if c.size == 1) + slack
    return GameSpec(n, grand, ValueModel.affine(2, forms))


def tied_game(n, unit, grand_per_agent):
    """Constant values unit * |S| for every proper coalition: every sample
    ties, and at grand_per_agent = unit the core is the single point x = unit."""
    forms = {Coalition(m): (unit * bin(m).count("1"), [0.0, 0.0]) for m in range(1, 2**n - 1)}
    return GameSpec(n, grand_per_agent * n, ValueModel.affine(2, forms))


def games():
    rng = np.random.default_rng(909)
    out = []
    for n in (3, 4, 5):
        for slack in (None, -0.4, 0.3, 2.0):
            out.append((f"full-n{n}-{slack}", full_game(rng, n, slack)))
        for unit, per_agent in ((1.0, 1.0), (0.1, 0.15), (0.3, 0.27)):
            out.append((f"tied-n{n}-{unit}-{per_agent}", tied_game(n, unit, per_agent)))
    for regime in ("nonempty", "mixed", "empty"):
        out.append((f"pairs-{regime}", random_affine_game(rng, regime=regime)))
    return out


GAMES = games()


@pytest.fixture(params=range(len(GAMES)), ids=[name for name, _ in GAMES])
def instance(request):
    spec = GAMES[request.param][1]
    k = 4 + 5 * (request.param % 5)
    return spec, draw_private(UNIT2, (k,) * spec.n_agents, 7000 + request.param)


def test_compression_matches_cold_pins(instance):
    spec, samples = instance
    for mode in MODES:
        for agent in range(spec.n_agents):
            assert cp.compress_agent(spec, samples, agent, mode) == cold_compress_agent(spec, samples, agent, mode)


def test_minima_and_allocation_match_cold_solves(instance):
    spec, samples = instance
    core = sc.build(spec, sc.tighten(spec, samples))
    cold = cold_coalition_minima(core)
    if cold is None:
        for c in core.coalitions():
            with pytest.raises(EmptyCoreError):
                sc.coalition_min(core, c)
        with pytest.raises(EmptyCoreError):
            sc.lexicographic_allocation(core)
        return
    for c in core.coalitions():
        assert sc.coalition_min(core, c) == pytest.approx(cold[c.mask], abs=1e-12, rel=0)
    warm = sc.lexicographic_allocation(core)
    assert np.abs(warm - cold_lexicographic_allocation(core)).max() <= 1e-12


def test_zeta_matches_cold_row_generation(instance):
    spec, samples = instance
    sol = zc.solve_zeta_program(spec, samples)
    x, zeta, objective, s_star, s_sens = cold_zeta_program(spec, samples)
    assert sol.s_star == s_star
    assert sol.s_star_sensitivity == s_sens
    assert abs(sol.objective - objective) <= zc.POSITIVE_SLACK_TOL
    assert np.abs(sol.x_star - x).max() <= zc.POSITIVE_SLACK_TOL
    split = BetaSplit.make(0.2, spec.n_agents, "equal", samples.counts)
    certify = lambda s: zc.zeta_certificate(split, s, samples.counts, spec.n_agents).to_json_dict()
    try:
        cold_cert = certify(s_star)
    except CoalisureError as exc:  # e.g. no root at s* = 0: both must fail alike
        with pytest.raises(type(exc)):
            certify(sol.s_star)
    else:
        assert certify(sol.s_star) == cold_cert


def test_minima_do_not_depend_on_the_first_coalition_asked():
    spec = GAMES[0][1]
    samples = draw_private(UNIT2, (20,) * spec.n_agents, 71)
    forward = sc.build(spec, sc.tighten(spec, samples))
    backward = sc.build(spec, sc.tighten(spec, samples))
    cs = forward.coalitions()
    got_backward = {c.mask: sc.coalition_min(backward, c) for c in reversed(cs)}
    for c in cs:
        assert sc.coalition_min(forward, c) == got_backward[c.mask]  # bit for bit
