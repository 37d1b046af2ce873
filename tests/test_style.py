import numpy as np
import pytest

from prosodiff import engine, rng as rng_mod
from prosodiff.style import (
    StyleBank,
    StyleConfig,
    condition_from_weights,
    check_simplex,
    encode_style,
    normalize_weights,
    one_hot_weights,
)

SMALL = StyleConfig(token_count=4, token_dim=8, attention_heads=2, condition_dim=6, ref_channels=5)


def make_bank(seed=0, config=SMALL) -> StyleBank:
    return StyleBank(config, data_channels=3, init_rng=rng_mod.substream(seed, rng_mod.INIT_STREAM, 2))


class TestEncodeStyle:
    def test_weights_on_simplex(self):
        bank = make_bank()
        rng = np.random.default_rng(1)
        for length in (1, 2, 9, 30):
            _, w = encode_style(bank, rng.standard_normal((2, 3, length)))
            assert np.all(w.data >= 0)
            np.testing.assert_allclose(w.data.sum(axis=1), 1.0, atol=1e-12)

    def test_identical_references_identical_outputs(self):
        bank = make_bank()
        ref = np.random.default_rng(2).standard_normal((3, 7))
        c1, w1 = encode_style(bank, ref)
        c2, w2 = encode_style(bank, ref)
        assert np.array_equal(c1.data, c2.data)
        assert np.array_equal(w1.data, w2.data)

    def test_encoded_condition_equals_weight_mixture(self):
        # c must be exactly the w-weighted mixture the control path computes
        bank = make_bank()
        ref = np.random.default_rng(3).standard_normal((1, 3, 11))
        c, w = encode_style(bank, ref)
        via_weights = condition_from_weights(bank, w.data)
        assert np.array_equal(c.data, via_weights.data)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            encode_style(make_bank(), np.zeros((1, 3, 0)))

    def test_gradient_reaches_all_bank_parameters(self):
        bank = make_bank()
        ref = np.random.default_rng(4).standard_normal((2, 3, 9))
        c, _ = encode_style(bank, ref)
        engine.sum_(engine.mul(c, c)).backward()
        for name, p in bank.parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name


class TestConditionFromWeights:
    def test_one_hot_selects_projected_token(self):
        bank = make_bank()
        with engine.no_grad():
            values = engine.matmul(bank._p("tokens"), bank._p("value.weight")).data
        for k in range(SMALL.token_count):
            c = condition_from_weights(bank, one_hot_weights(k, SMALL.token_count))
            assert np.array_equal(c.data[0], values[k])

    def test_uniform_pair_is_midpoint(self):
        bank = make_bank()
        w = np.array([0.5, 0.5, 0.0, 0.0])
        c = condition_from_weights(bank, w).data[0]
        c0 = condition_from_weights(bank, one_hot_weights(0, 4)).data[0]
        c1 = condition_from_weights(bank, one_hot_weights(1, 4)).data[0]
        np.testing.assert_allclose(c, 0.5 * (c0 + c1), atol=1e-15)

    def test_matches_weighted_sum_oracle(self):
        bank = make_bank()
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.05, 1.0, size=4)
        w = raw / raw.sum()
        with engine.no_grad():
            values = engine.matmul(bank._p("tokens"), bank._p("value.weight")).data
        expected = np.zeros(SMALL.condition_dim)
        for k in range(4):
            expected = expected + w[k] * values[k]
        c = condition_from_weights(bank, w).data[0]
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_linearity_in_weights(self):
        bank = make_bank()
        rng = np.random.default_rng(6)
        w1 = normalize_weights(rng.uniform(0.1, 1.0, 4))
        w2 = normalize_weights(rng.uniform(0.1, 1.0, 4))
        for alpha in (0.0, 0.25, 0.7, 1.0):
            mixed = condition_from_weights(bank, alpha * w1 + (1 - alpha) * w2).data
            parts = alpha * condition_from_weights(bank, w1).data + (1 - alpha) * condition_from_weights(bank, w2).data
            np.testing.assert_allclose(mixed, parts, atol=1e-12)

    def test_off_simplex_rejected(self):
        bank = make_bank()
        with pytest.raises(ValueError):
            condition_from_weights(bank, np.array([0.5, 0.6, 0.0, 0.0]))
        with pytest.raises(ValueError):
            condition_from_weights(bank, np.array([1.5, -0.5, 0.0, 0.0]))

    def test_raw_weights_bypass_simplex(self):
        bank = make_bank()
        c = condition_from_weights(bank, np.array([2.0, -1.0, 0.0, 0.0]), raw=True)
        c0 = condition_from_weights(bank, one_hot_weights(0, 4)).data
        c1 = condition_from_weights(bank, one_hot_weights(1, 4)).data
        np.testing.assert_allclose(c.data, 2.0 * c0 - 1.0 * c1, atol=1e-12)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            condition_from_weights(make_bank(), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("raw", [False, True])
    def test_non_finite_rejected(self, raw):
        with pytest.raises(ValueError, match="finite"):
            condition_from_weights(make_bank(), np.array([np.nan, 1.0, 0.0, 0.0]), raw=raw)


class TestWeightUtilities:
    def test_one_hot(self):
        w = one_hot_weights(2, 4)
        assert np.array_equal(w, [0, 0, 1, 0])
        with pytest.raises(ValueError):
            one_hot_weights(4, 4)

    def test_normalize(self):
        np.testing.assert_allclose(normalize_weights(np.array([2.0, 2.0])), [0.5, 0.5])
        with pytest.raises(ValueError):
            normalize_weights(np.array([0.0, 0.0]))

    def test_check_simplex(self):
        check_simplex(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            check_simplex(np.array([0.5, 0.6]))


class TestConfig:
    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            StyleConfig(token_dim=10, attention_heads=4)

    def test_minimum_tokens(self):
        with pytest.raises(ValueError):
            StyleConfig(token_count=1)

    def test_full_scale_preset(self):
        full = StyleConfig.full_scale()
        assert full.token_count == 10
        assert full.token_dim == 256
        assert full.attention_heads == 4
