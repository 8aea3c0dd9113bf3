"""One implementation per per-agent quantity: sampled maxima on a game full
of ties, golden per-agent certificate rows, the memoised relaxed root and
the library errors of the relaxed core."""

import numpy as np
import pytest

from coalisure import compression as cp
from coalisure import risk
from coalisure import scenario_core as sc
from coalisure import zeta_core as zc
from coalisure.errors import CoalisureError, GameSpecError, NoRootError
from coalisure.game import Coalition, GameSpec, ValueModel
from coalisure.sampling import PrivateSamples

C1, C2, C3 = Coalition.of(0), Coalition.of(1), Coalition.of(2)
C12, C13, C23 = Coalition.of(0, 1), Coalition.of(0, 2), Coalition.of(1, 2)


def tied_game():
    """Values that are exact in binary, so every tie below is a true tie:
    repeated maxima within an agent, equal maxima across agents ({1,2}),
    and a constant coalition ({2,3}) on which every sample ties."""
    model = ValueModel.affine(
        1,
        {
            C1: (0.0, [1.0]),
            C2: (0.0, [1.0]),
            C3: (0.0, [1.0]),
            C12: (0.0, [1.0]),
            C13: (0.25, [0.5]),
            C23: (0.5, [0.0]),
        },
    )
    spec = GameSpec(3, 40.0, model)
    samples = PrivateSamples(
        (
            np.array([[0.25], [0.75], [0.75], [0.125], [0.75]]),
            np.array([[0.5], [0.75], [0.75]]),
            np.array([[0.5], [0.5], [0.5], [0.5]]),
        ),
        0,
    )
    return spec, samples


def loop_first_argmax(spec, samples, agent, coalition):
    vals = [spec.value_model.value(coalition, row) for row in samples.per_agent[agent]]
    return vals.index(max(vals))


def loop_witness(spec, samples, coalition):
    best, who = -np.inf, None
    for agent in coalition.members:
        for k, row in enumerate(samples.per_agent[agent]):
            v = spec.value_model.value(coalition, row)
            if v > best:
                best, who = v, (agent, k)
    return who


class TestTiesPickTheLowestSample:
    def test_tighten_witnesses(self):
        spec, samples = tied_game()
        bounds = sc.tighten(spec, samples)
        for c in spec.coalitions:
            assert bounds.witness(c) == loop_witness(spec, samples, c), c
        assert bounds.witness(C12) == (0, 1)  # agent 2 ties agent 1 at 0.75
        assert bounds.witness(C23) == (1, 0)  # every sample of both agents ties

    def test_compress_agent_indices(self):
        spec, samples = tied_game()
        recruited = 0
        for agent in range(spec.n_agents):
            indices, recruiters = cp.compress_agent(spec, samples, agent)
            for k in indices:
                for c in recruiters[k]:
                    assert k == loop_first_argmax(spec, samples, agent, c), (agent, c)
                    recruited += 1
        assert recruited == sum(len(spec.allowed(a)) for a in range(spec.n_agents))

    def test_zeta_seed_rows(self):
        spec, samples = tied_game()
        allowed = [spec.allowed(a) for a in range(spec.n_agents)]
        rows = zc._binding_rows(spec, sc.value_table(spec, samples))
        expected = []
        for c in spec.coalitions:
            for agent in c.members:
                row = (agent, loop_first_argmax(spec, samples, agent, c), allowed[agent].index(c))
                if row not in expected:
                    expected.append(row)
        assert rows == expected

    def test_tighten_matrices(self):
        spec, samples = tied_game()
        tb = sc.tighten(spec, samples)
        assert tb.coalitions == spec.coalitions
        assert tb.maxima.shape == tb.argmax.shape == (len(spec.coalitions), spec.n_agents)
        for row, c in enumerate(spec.coalitions):
            for agent in range(spec.n_agents):
                if agent in c:
                    vals = [spec.value_model.value(c, xi) for xi in samples.per_agent[agent]]
                    assert tb.maxima[row, agent] == max(vals)
                    assert tb.argmax[row, agent] == loop_first_argmax(spec, samples, agent, c)
                else:
                    assert tb.maxima[row, agent] == -np.inf and tb.argmax[row, agent] == -1
            assert tb.witness(c) == loop_witness(spec, samples, c)

    def test_column_maxima(self):
        values = np.array([[1.0, 2.0, 0.0], [3.0, 2.0, 0.0], [3.0, 1.0, 0.0]])
        top, first = sc.column_maxima(values)
        assert top.tolist() == [3.0, 2.0, 0.0]
        assert first.tolist() == [1, 0, 0]


# One fixed (split, s, counts); the literal rows were computed by the
# per-method row loops these certificates were built with before they
# shared one builder.  The relaxed roots are Brent's; each t lies within
# 2e-15 of the 50-digit root of its polynomial.
SPLIT = risk.BetaSplit.explicit([0.05, 0.05, 0.1])
S, COUNTS = (3, 0, 7), (30, 40, 50)


class TestGoldenRows:
    def test_core_aposteriori(self):
        cert = risk.a_posteriori_core_bound(SPLIT, S, COUNTS)
        assert cert.per_agent == (
            {"agent": 1, "samples": 30, "beta": 0.05, "s": 3, "term": 0.4192333055244779},
            {"agent": 2, "samples": 40, "beta": 0.05, "s": 0, "term": 0.15336223833999796},
            {"agent": 3, "samples": 50, "beta": 0.1, "s": 7, "term": 0.4358397656262456},
        )
        assert cert.epsilon == 1.0  # the row sum 1.0085 is clipped

    def test_allocation_aposteriori(self):
        cert = risk.a_posteriori_allocation_bound(SPLIT, S, COUNTS)
        assert cert.per_agent == (
            {"agent": 1, "samples": 30, "beta": 0.05, "s": 3, "term": 0.37502006675273314},
            {"agent": 2, "samples": 40, "beta": 0.05, "s": 0, "term": 0.10376324540031578},
            {"agent": 3, "samples": 50, "beta": 0.1, "s": 7, "term": 0.40199066769255},
        )
        assert cert.epsilon == 0.8807739798455989

    def test_relaxed_allocation(self):
        cert = zc.zeta_certificate(SPLIT, S, COUNTS, 3)
        assert cert.per_agent == (
            {"agent": 1, "samples": 30, "beta": 0.05, "s_star": 3, "t": 0.7586969730048408,
             "term": 0.24130302699515915},
            {"agent": 2, "samples": 40, "beta": 0.05, "s_star": 0, "t": 0.9545328104408493,
             "term": 0.045467189559150745},
            {"agent": 3, "samples": 50, "beta": 0.1, "s_star": 7, "t": 0.7876477275512199,
             "term": 0.21235227244878008},
        )
        assert cert.epsilon == 0.49912248900309

    def test_rows_keep_their_key_order(self):
        core = risk.a_posteriori_core_bound(SPLIT, S, COUNTS)
        relaxed = zc.zeta_certificate(SPLIT, S, COUNTS, 3)
        assert list(core.per_agent[0]) == ["agent", "samples", "beta", "s", "term"]
        assert list(relaxed.per_agent[0]) == ["agent", "samples", "beta", "s_star", "t", "term"]


class TestMemoisedRoot:
    def test_repeated_call_is_a_cache_hit(self):
        args = (73, 0.2 / 3, 3, 4)
        first = risk.solve_campi_polynomial(*args)
        hits = risk.solve_campi_polynomial.cache_info().hits
        again = risk.solve_campi_polynomial(*args)
        assert again is first
        assert risk.solve_campi_polynomial.cache_info().hits == hits + 1

    def test_no_root_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(NoRootError) as err:
                risk.solve_campi_polynomial(200, 0.1, 3, 0)
            assert err.value.scan_points is not None and len(err.value.scan_points) > 0
            assert (np.asarray(err.value.scan_signs) <= 0).all()


class TestRelaxedCoreErrors:
    def test_misaligned_certificate_inputs(self):
        split = risk.BetaSplit.equal(0.2, 3)
        with pytest.raises(CoalisureError):
            zc.zeta_certificate(split, (1, 1), (10, 10, 10), 3)

    def test_membership_allocation_length(self):
        spec, samples = tied_game()
        core = sc.build(spec, sc.tighten(spec, samples))
        with pytest.raises(GameSpecError):
            sc.contains(core, [20.0, 20.0])
