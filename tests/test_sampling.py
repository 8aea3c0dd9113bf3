import numpy as np
import pytest

from coalisure.errors import DistributionError
from coalisure.sampling import (
    DistributionSpec,
    draw_fresh,
    draw_private,
    samples_from_csv,
    samples_to_csv,
)

from oracles import broadcast_uniform_fresh, csv_writer_samples_to_csv


UNIT = DistributionSpec.uniform([0.0], [1.0])


class TestDraws:
    def test_reproducible_bit_identical(self):
        a = draw_private(UNIT, (3, 2), 7)
        b = draw_private(UNIT, (3, 2), 7)
        assert a.total == 5
        for m1, m2 in zip(a.per_agent, b.per_agent):
            assert (m1 == m2).all()

    def test_point_mass_box(self):
        dist = DistributionSpec.uniform([2.5, -1.0], [2.5, -1.0])
        s = draw_private(dist, (1, 1), 0)
        assert (s.per_agent[0] == [2.5, -1.0]).all()
        assert (s.per_agent[1] == [2.5, -1.0]).all()

    def test_other_agent_count_does_not_move_samples(self):
        a = draw_private(UNIT, (3, 2), 11)
        b = draw_private(UNIT, (3, 9), 11)
        assert (a.per_agent[0] == b.per_agent[0]).all()

    def test_own_count_extension_keeps_prefix(self):
        a = draw_private(UNIT, (3,), 11)
        b = draw_private(UNIT, (6,), 11)
        assert (b.per_agent[0][:3] == a.per_agent[0]).all()

    def test_seed_changes_samples(self):
        a = draw_private(UNIT, (4,), 1)
        b = draw_private(UNIT, (4,), 2)
        assert (a.per_agent[0] != b.per_agent[0]).any()

    def test_gaussian_sample_means(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        dist = DistributionSpec.gaussian(mean, cov)
        k = 10_000
        s = draw_private(dist, (k, k), 123)
        for agent in range(2):
            emp = s.per_agent[agent].mean(axis=0)
            for j in range(2):
                tol = 4.0 * np.sqrt(cov[j, j] / k)
                assert abs(emp[j] - mean[j]) < tol

    def test_zero_count_rejected(self):
        with pytest.raises(DistributionError):
            draw_private(UNIT, (0, 3), 1)

    def test_fresh_zero_rejected(self):
        with pytest.raises(DistributionError):
            draw_fresh(UNIT, 0, 1)

    def test_fresh_point_mass(self):
        dist = DistributionSpec.uniform([4.0], [4.0])
        assert (draw_fresh(dist, 1, 9) == [[4.0]]).all()

    def test_fresh_uniform_kolmogorov_smirnov(self):
        n = 100_000
        xs = np.sort(draw_fresh(UNIT, n, 42).ravel())
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        dev = max(np.abs(ecdf_hi - xs).max(), np.abs(xs - ecdf_lo).max())
        assert dev < 0.01

    def test_fresh_stream_differs_from_private(self):
        priv = draw_private(UNIT, (4,), 5)
        fresh = draw_fresh(UNIT, 4, 5)
        assert (priv.per_agent[0].ravel() != fresh.ravel()).any()

    def test_singular_covariance_supported(self):
        # rank-1 covariance confines draws to a line
        dist = DistributionSpec.gaussian([0.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
        xs = draw_fresh(dist, 500, 13)
        assert np.abs((xs[:, 1] - 1.0) - xs[:, 0]).max() < 1e-12
        assert dist.possibly_degenerate

    def test_mixture_draw(self):
        dist = DistributionSpec.mixture(
            [0.5, 0.5],
            [
                DistributionSpec.uniform([0.0], [0.1]),
                DistributionSpec.uniform([10.0], [10.1]),
            ],
        )
        xs = draw_fresh(dist, 4000, 3).ravel()
        frac_hi = (xs > 5).mean()
        assert 0.4 < frac_hi < 0.6
        assert all((x <= 0.1) or (x >= 10.0) for x in xs)


class TestValidation:
    def test_bad_box(self):
        with pytest.raises(DistributionError):
            DistributionSpec.uniform([1.0], [0.0])

    def test_asymmetric_covariance(self):
        with pytest.raises(DistributionError):
            DistributionSpec.gaussian([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_indefinite_covariance(self):
        with pytest.raises(DistributionError):
            DistributionSpec.gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_mixture_weights(self):
        with pytest.raises(DistributionError):
            DistributionSpec.mixture([0.7, 0.7], [UNIT, UNIT])

    def test_degenerate_flag(self):
        assert DistributionSpec.uniform([1.0], [1.0]).possibly_degenerate
        assert not UNIT.possibly_degenerate

    def test_json_roundtrip(self):
        dist = DistributionSpec.mixture(
            [0.25, 0.75],
            [
                DistributionSpec.uniform([0.0, 0.0], [1.0, 2.0]),
                DistributionSpec.gaussian([0.5, 0.5], [[0.1, 0.0], [0.0, 0.2]]),
            ],
        )
        back = DistributionSpec.from_json_dict(dist.to_json_dict())
        a = draw_fresh(dist, 10, 4)
        b = draw_fresh(back, 10, 4)
        assert (a == b).all()


class TestCsv:
    def test_roundtrip_bit_equal(self):
        dist = DistributionSpec.gaussian([0.0, 1.0], [[1.0, 0.2], [0.2, 2.0]])
        s = draw_private(dist, (3, 5), 77)
        text = samples_to_csv(s)
        back = samples_from_csv(text, master_seed=77)
        for m1, m2 in zip(s.per_agent, back.per_agent):
            assert (m1 == m2).all()
        assert samples_to_csv(back) == text

    @pytest.mark.parametrize(
        "dist",
        [
            DistributionSpec.uniform([0.0, -0.5], [1.0, 0.5]),
            DistributionSpec.gaussian([0.0, 1.0], [[1e-6, 0.0], [0.0, 2e6]]),
            DistributionSpec.mixture(
                [0.3, 0.7],
                [DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), DistributionSpec.gaussian([0.5, 0.5], [[0.1, 0.0], [0.0, 0.2]])],
            ),
        ],
        ids=["uniform", "gaussian", "mixture"],
    )
    @pytest.mark.parametrize("counts", [(1, 1, 1), (1, 7, 40)])
    def test_bytes_equal_csv_writer_oracle(self, dist, counts):
        s = draw_private(dist, counts, 91)
        assert samples_to_csv(s) == csv_writer_samples_to_csv(s)

    def test_header_required(self):
        with pytest.raises(DistributionError):
            samples_from_csv("nope,nope\n1,1,0.5\n")

    def test_agents_contiguous(self):
        text = "agent_id,sample_index,xi1\n1,1,0.5\n3,1,0.25\n"
        with pytest.raises(DistributionError):
            samples_from_csv(text)


GAUSS2 = DistributionSpec.gaussian([1.0, -2.0], [[0.5, 0.1], [0.1, 0.3]])
NESTED = DistributionSpec.mixture(
    [0.5, 0.5],
    [
        DistributionSpec.mixture(
            [0.3, 0.7],
            [DistributionSpec.uniform([0.0], [1.0]), DistributionSpec.gaussian([0.0], [[1.0]])],
        ),
        DistributionSpec.uniform([5.0], [6.0]),
    ],
)


class TestCounterStreams:
    @pytest.mark.parametrize("dist", [UNIT, GAUSS2, NESTED], ids=["uniform", "gaussian", "mixture"])
    def test_row_k_independent_of_count(self, dist):
        short = draw_private(dist, (3, 4), 19)
        long = draw_private(dist, (9, 1), 19)
        for agent, rows in ((0, 3), (1, 1)):
            for k in range(rows):
                assert (short.per_agent[agent][k] == long.per_agent[agent][k]).all()

    def test_mixture_prefix_stable(self):
        a = draw_private(NESTED, (40,), 23)
        b = draw_private(NESTED, (200,), 23)
        assert (b.per_agent[0][:40] == a.per_agent[0]).all()
        assert np.isfinite(b.per_agent[0]).all()

    def test_widths(self):
        assert UNIT.width == 1
        assert GAUSS2.width == 2
        assert NESTED.components[0].width == 2
        assert NESTED.width == 3

    def test_nested_mixture_hits_every_component(self):
        xs = draw_private(NESTED, (4000,), 29).per_agent[0].ravel()
        outer_hi = (xs >= 5.0) & (xs <= 6.0)
        assert 0.45 < outer_hi.mean() < 0.55
        # the inner gaussian puts mass outside [0, 1], the inner box inside it
        low = xs[~outer_hi]
        assert ((low < 0.0) | (low > 1.0)).any()
        assert ((low >= 0.0) & (low <= 1.0)).any()

    def test_mixture_value_independent_of_pick(self):
        # the component reads the uniforms after the one that picked it
        dist = DistributionSpec.mixture(
            [0.5, 0.5],
            [DistributionSpec.uniform([0.0], [1.0]), DistributionSpec.uniform([10.0], [11.0])],
        )
        xs = draw_private(dist, (4000,), 37).per_agent[0].ravel()
        for lo in (0.0, 10.0):
            part = xs[(xs >= lo) & (xs <= lo + 1.0)] - lo
            assert 0.45 < (part > 0.5).mean() < 0.55

    def test_gaussian_private_large_k(self):
        k = 100_000
        s = draw_private(GAUSS2, (k,), 31)
        xs = s.per_agent[0]
        assert np.isfinite(xs).all()
        emp = xs.mean(axis=0)
        for j in range(2):
            assert abs(emp[j] - GAUSS2.mean[j]) < 4.0 * np.sqrt(GAUSS2.cov[j, j] / k)

    @pytest.mark.parametrize("n", [1, 7, 100_000])
    def test_fresh_uniform_equals_broadcast_kernel(self, n):
        box = DistributionSpec.uniform([-1.5, 0.25, 3.0], [2.0, 0.25, 7.5])
        got = draw_fresh(box, n, 42)
        want = broadcast_uniform_fresh(box, n, 42)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_private_golden_values(self):
        # pins the private stream: a change here changes every sample-derived number
        s = draw_private(DistributionSpec.uniform([0.0, 0.0], [1.0, 1.0]), (3,), 20240901)
        expected = [
            [0.015551971200667869, 0.5015472966945232],
            [0.7814710666904429, 0.7274072100109522],
            [0.7323142159092532, 0.1965649435613458],
        ]
        assert s.per_agent[0].tolist() == expected

    def test_private_draws_read_only(self):
        s = draw_private(GAUSS2, (5,), 3)
        assert not s.per_agent[0].flags.writeable

    def test_gaussian_transform_finite_at_zero(self):
        # Generator.random, which feeds fresh draws, can return exactly 0.0
        xs = GAUSS2._from_uniforms(np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert np.isfinite(xs).all()
        assert (xs[1] == GAUSS2.mean).all()

    def test_mixture_rounding_never_picks_zero_weight(self):
        # ten weights of 0.1 sum to 1 - 2**-53, which the largest private
        # uniform reaches; the trailing zero-weight component must stay unused
        comps = [DistributionSpec.uniform([float(c)], [float(c)]) for c in range(11)]
        dist = DistributionSpec.mixture([0.1] * 10 + [0.0], comps)
        xs = dist._from_uniforms(np.array([[1.0 - 2.0**-53, 0.5], [0.05, 0.5]]))
        assert xs.ravel().tolist() == [9.0, 0.0]
