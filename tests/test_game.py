import numpy as np
import pytest

from coalisure.errors import GameSpecError, UnknownCoalitionError
from coalisure.game import (
    Coalition,
    GameSpec,
    ValueModel,
    subcoalition_budget,
)


def make_spec(n_agents=3, grand=10.0, coalitions=None, dim=1):
    defaults = GameSpec(
        n_agents,
        grand,
        ValueModel.affine(
            dim,
            {
                Coalition(m): (0.0, [0.0] * dim)
                for m in range(1, 2**n_agents)
                if m != 2**n_agents - 1
            },
        ),
        coalitions,
    )
    return defaults


class TestCoalition:
    def test_members_ascending(self):
        assert Coalition.of(2, 0, 1).members == (0, 1, 2)

    def test_empty_rejected(self):
        with pytest.raises(GameSpecError):
            Coalition(0)

    def test_label_roundtrip(self):
        c = Coalition.of(0, 2)
        assert c.label() == "1,3"
        assert Coalition.from_label("1,3") == c

    def test_contains_and_iter(self):
        c = Coalition.of(1, 3)
        assert 1 in c and 3 in c and 0 not in c
        assert list(c) == [1, 3]

    def test_indicator(self):
        assert Coalition.of(0, 2).indicator(4).tolist() == [1.0, 0.0, 1.0, 0.0]


class TestEnumeration:
    def test_two_agents_default(self):
        spec = make_spec(2)
        assert [c.label() for c in spec.coalitions] == ["1", "2"]

    def test_three_agents_default_count(self):
        assert len(make_spec(3).coalitions) == 6

    def test_singleton_restriction(self):
        spec = make_spec(3, coalitions=tuple(Coalition.of(i) for i in range(3)))
        assert [c.label() for c in spec.coalitions] == ["1", "2", "3"]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_default_count_formula(self, n):
        cs = make_spec(n).coalitions
        assert len(cs) == 2**n - 2
        full = (1 << n) - 1
        assert all(0 < c.mask < full for c in cs)

    def test_ascending_mask_order(self):
        masks = [c.mask for c in make_spec(4).coalitions]
        assert masks == sorted(masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_budget_count(self, n):
        assert subcoalition_budget(n) == 2**n - 1


class TestValueModel:
    def test_affine_evaluation(self):
        model = ValueModel.affine(1, {Coalition.of(0): (1.0, [2.0])})
        assert model.value(Coalition.of(0), [0.5]) == pytest.approx(2.0)

    def test_constant_form(self):
        model = ValueModel.affine(1, {Coalition.of(0): (0.0, [0.0])})
        assert model.value(Coalition.of(0), [123.0]) == 0.0

    def test_max_affine(self):
        model = ValueModel(
            1, {Coalition.of(0): [(0.0, [1.0]), (1.0, [-1.0])]}
        )
        assert model.value(Coalition.of(0), [0.2]) == pytest.approx(0.8)

    def test_unknown_coalition(self):
        model = ValueModel.affine(1, {Coalition.of(0): (0.0, [0.0])})
        with pytest.raises(UnknownCoalitionError):
            model.value(Coalition.of(1), [0.0])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        model = ValueModel(
            2, {Coalition.of(0, 1): [(0.3, [1.0, -0.5]), (-0.2, [0.1, 0.9])]}
        )
        xis = rng.normal(size=(40, 2))
        batch = model.value_batch(Coalition.of(0, 1), xis)
        for row, expected in zip(xis, batch):
            assert model.value(Coalition.of(0, 1), row) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [1, 7, 16385])
    def test_one_piece_batch_bits_equal_max_over_the_product(self, n):
        # a one-piece form is a matrix-vector product; its bits must equal
        # the max over the single column of the (n, 1) matrix product
        rng = np.random.default_rng(n)
        for dim in (1, 2, 3, 5):
            offsets, slopes = rng.normal(size=1), rng.normal(size=(1, dim))
            model = ValueModel(dim, {Coalition.of(0): [(offsets[0], slopes[0])]})
            xis = rng.normal(size=(n, dim))
            want = (xis @ slopes.T + offsets).max(axis=1)
            assert np.array_equal(model.value_batch(Coalition.of(0), xis).view(np.int64), want.view(np.int64))


class TestGameSpecValidation:
    def test_needs_two_agents(self):
        with pytest.raises(GameSpecError):
            make_spec(1)

    def test_grand_coalition_rejected_in_structure(self):
        with pytest.raises(GameSpecError):
            make_spec(2, coalitions=(Coalition.of(0, 1),))

    def test_missing_value_form(self):
        model = ValueModel.affine(1, {Coalition.of(0): (0.0, [0.0])})
        with pytest.raises(UnknownCoalitionError):
            GameSpec(2, 1.0, model)

    def test_allowed_views_symmetric(self):
        spec = make_spec(3)
        for c in spec.coalitions:
            for agent in c.members:
                assert c in spec.allowed(agent)

    def test_allowed_only_contains_member_coalitions(self):
        spec = make_spec(3)
        for agent in range(3):
            assert all(agent in c for c in spec.allowed(agent))

    def test_json_roundtrip(self):
        model = ValueModel(
            2,
            {
                Coalition.of(0): [(0.5, [1.0, 2.0]), (0.0, [0.25, -1.0])],
                Coalition.of(1): [(0.0, [0.0, 1.0])],
            },
        )
        spec = GameSpec(2, 7.5, model)
        doc = spec.to_json_dict()
        back = GameSpec.from_json_dict(doc)
        assert back.to_json_dict() == doc
        xi = [0.3, -0.7]
        for c in spec.coalitions:
            assert back.value_model.value(c, xi) == spec.value_model.value(c, xi)
