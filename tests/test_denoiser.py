import numpy as np
import pytest

from prosodiff import engine, rng as rng_mod
from prosodiff.corpus import CorpusConfig, NormStats
from prosodiff.denoiser import (
    Denoiser,
    DenoiserConfig,
    TextEmbedder,
    embed_time,
    predict_noise,
)
from prosodiff.guidance import diffusion_loss
from prosodiff.schedule import cosine_schedule
from prosodiff.style import StyleConfig
from prosodiff.training import build_models

from helpers import numeric_gradient, run_config

TINY = DenoiserConfig(
    residual_layers=2,
    kernel_size=3,
    dilation_cycle=(1, 2),
    hidden_channels=6,
    time_embedding_dim=8,
    condition_dim=5,
)
TINY_STYLE = StyleConfig(token_count=2, token_dim=4, attention_heads=2, ref_channels=4)
UNIT_STATS = NormStats(np.zeros(3), np.ones(3))


def make_model(accepts_style=False, seed=0, config=TINY) -> Denoiser:
    return Denoiser(config, accepts_style, rng_mod.substream(seed, rng_mod.INIT_STREAM, 0))


def random_inputs(config=TINY, batch=2, length=6, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 3, length))
    y = rng.standard_normal((length, config.condition_dim))
    c = rng.standard_normal(config.condition_dim)
    return x, y, c


class TestEmbedTime:
    def test_adjacent_steps_differ(self):
        assert np.linalg.norm(embed_time(1, 16) - embed_time(2, 16)) > 0

    def test_fixed_step_identical(self):
        assert np.array_equal(embed_time(17, 16), embed_time(17, 16))

    def test_pairwise_distinct_over_full_range(self):
        vectors = np.concatenate([embed_time(t, 16) for t in range(1, 201)])
        distances = np.linalg.norm(vectors[:, None, :] - vectors[None, :, :], axis=2)
        distances[np.arange(200), np.arange(200)] = np.inf
        assert distances.min() > 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            embed_time(0, 16)

    def test_batched_steps(self):
        emb = embed_time(np.array([1, 5, 9]), 12)
        assert emb.shape == (3, 12)
        assert np.array_equal(emb[1], embed_time(5, 12)[0])


class TestPredictNoise:
    def test_output_shape_and_finiteness(self):
        model = make_model()
        x, y, _ = random_inputs()
        out = predict_noise(model, x, 3, y)
        assert out.shape == x.shape
        assert np.all(np.isfinite(out.data))

    def test_bit_identical_on_repeat(self):
        model = make_model(accepts_style=True)
        x, y, c = random_inputs()
        a = predict_noise(model, x, 5, y, c)
        b = predict_noise(model, x, 5, y, c)
        assert np.array_equal(a.data, b.data)

    def test_style_flag_enforced(self):
        x, y, c = random_inputs()
        with pytest.raises(ValueError, match="pass c"):
            predict_noise(make_model(accepts_style=True), x, 1, y)
        with pytest.raises(ValueError, match="absent"):
            predict_noise(make_model(accepts_style=False), x, 1, y, c)

    def test_length_mismatch_rejected(self):
        model = make_model()
        x, y, _ = random_inputs()
        with pytest.raises(ValueError, match="phonemes"):
            predict_noise(model, x, 1, y[:-1])

    def test_impulse_stays_within_receptive_field(self):
        config = DenoiserConfig(
            residual_layers=2,
            dilation_cycle=(1, 2),
            hidden_channels=6,
            time_embedding_dim=8,
            condition_dim=5,
        )
        model = make_model(config=config)
        radius = (config.receptive_field() - 1) // 2  # telescoped half-width
        length = 41
        center = length // 2
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 3, length))
        y = rng.standard_normal((length, 5))
        base = predict_noise(model, x, 2, y).data
        bumped = x.copy()
        bumped[0, :, center] += 1.0
        diff = np.abs(predict_noise(model, bumped, 2, y).data - base).sum(axis=(0, 1))
        changed = np.nonzero(diff > 1e-14)[0]
        assert changed.min() >= center - radius
        assert changed.max() <= center + radius
        assert len(changed) > 1

    def test_bidirectional_dependence(self):
        # an impulse must change outputs on both sides of its position
        model = make_model()
        length = 15
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, length))
        y = rng.standard_normal((length, 5))
        base = predict_noise(model, x, 1, y).data
        bumped = x.copy()
        bumped[0, 1, 7] += 1.0
        diff = np.abs(predict_noise(model, bumped, 1, y).data - base).sum(axis=(0, 1))
        assert diff[6] > 1e-12 and diff[8] > 1e-12

    def test_per_example_steps(self):
        model = make_model()
        x, y, _ = random_inputs(batch=3)
        batched = predict_noise(model, x, np.array([1, 2, 3]), y).data
        for i, t in enumerate((1, 2, 3)):
            single = predict_noise(model, x[i : i + 1], t, y).data
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12)


# dilations 1..8 over 4 layers; dilation 8 pads 8 positions on each side,
# more than every test length here
MASK_CONFIG = DenoiserConfig(
    residual_layers=4, dilation_cycle=(1, 2, 4, 8), hidden_channels=6, time_embedding_dim=8, condition_dim=5
)


class TestMask:
    """A [B, 1, L] mask pads rows of several lengths into one batch: each
    row's outputs at its valid positions are those of its own unpadded
    forward pass, for theta1 on the style vector and theta2 on its null
    vector alike."""

    @staticmethod
    def padded_case(lengths, width, seed=0):
        pair = random_pair(seed, MASK_CONFIG, scale=0.3)
        rng = np.random.default_rng(seed)
        batch = len(lengths)
        x = rng.standard_normal((batch, 3, width))
        y = rng.standard_normal((batch, width, MASK_CONFIG.condition_dim))
        c = rng.standard_normal((batch, MASK_CONFIG.condition_dim))
        t = rng.integers(1, 50, size=batch)
        mask = (np.arange(width) < np.array(lengths)[:, None, None]) * 1.0
        return pair, x, y, c, t, mask

    @pytest.mark.parametrize("lengths, width", [((3, 7, 5), 7), ((2, 4, 4, 1), 12), ((6,), 9)])
    def test_padded_forward_matches_unpadded_rows(self, lengths, width):
        pair, x, y, c, t, mask = self.padded_case(lengths, width)
        padded = both(pair, x, t, y, c, mask)
        for b, n in enumerate(lengths):
            alone = both(pair, x[b : b + 1, :, :n], t[b], y[b : b + 1, :n], c[b : b + 1])
            np.testing.assert_allclose(padded[:, b : b + 1, :, :n], alone, rtol=1e-12, atol=1e-12)

    def test_padded_values_do_not_reach_valid_positions(self):
        lengths = (2, 5, 8)
        pair, x, y, c, t, mask = self.padded_case(lengths, 8, seed=1)
        base = both(pair, x, t, y, c, mask)
        rng = np.random.default_rng(2)
        padded = mask == 0.0
        x = np.where(padded, 1e3 * rng.standard_normal(x.shape), x)
        y = np.where(padded.transpose(0, 2, 1), rng.standard_normal(y.shape), y)
        scrambled = both(pair, x, t, y, c, mask)
        for b, n in enumerate(lengths):
            assert np.array_equal(scrambled[:, b, :, :n], base[:, b, :, :n])
        assert not np.array_equal(scrambled, base)  # the padded outputs did change

    def test_no_mask_equals_all_ones_bitwise(self):
        pair, x, y, c, t, _ = self.padded_case((7, 7), 7)
        ones = np.ones((2, 1, 7))
        assert np.array_equal(both(pair, x, t, y, c), both(pair, x, t, y, c, ones))

    def test_mask_shape_checked(self):
        pair, x, y, c, t, _ = self.padded_case((4, 4), 4)
        with pytest.raises(ValueError, match="mask"):
            both(pair, x, t, y, c, np.ones((2, 4)))


class TestParameterSeparation:
    def test_equal_configs_share_name_sets(self):
        a = Denoiser(TINY, True, rng_mod.substream(0, rng_mod.INIT_STREAM, 0))
        b = Denoiser(TINY, False, rng_mod.substream(0, rng_mod.INIT_STREAM, 1))
        assert set(a.params) == set(b.params)

    def test_mutating_one_model_leaves_other_fixed(self):
        a = Denoiser(TINY, False, rng_mod.substream(0, rng_mod.INIT_STREAM, 0))
        b = Denoiser(TINY, False, rng_mod.substream(0, rng_mod.INIT_STREAM, 1))
        x, y, _ = random_inputs()
        before = predict_noise(b, x, 1, y).data
        for p in a.params.values():
            p.data = p.data + 1.0
        after = predict_noise(b, x, 1, y).data
        assert np.array_equal(before, after)

    def test_in_place_mutation_of_theta1_leaves_theta2_fixed(self):
        # build_models gives theta1 and theta2 arrays of their own; updating one in place must not move the other
        bundle = build_models(run_config(TINY, TINY_STYLE, 4, 0, corpus=CorpusConfig(vocab_size=4)), UNIT_STATS)
        theta1, theta2 = bundle.denoisers
        x, y, _ = random_inputs()
        before = predict_noise(theta2, x, 1, y).data
        for p in theta1.params.values():
            p.data += 1.0
        after = predict_noise(theta2, x, 1, y).data
        assert np.array_equal(before, after)

    def test_null_condition_not_trainable_when_style_supplied(self):
        def null_grads(style_condition: bool) -> list:
            theta1, theta2 = random_pair(accepts_style=style_condition)
            x, y, c = random_inputs()
            for model, cond in ((theta1, c if style_condition else None), (theta2, None)):
                out = predict_noise(model, x, 2, y, cond)
                engine.sum_(engine.mul(out, out)).backward()
            return [model.params["null_condition"].grad for model in (theta1, theta2)]

        styled, unstyled = null_grads(True), null_grads(False)
        assert styled[0] is None and np.any(styled[1])
        assert np.any(unstyled[0]) and np.any(unstyled[1])

    def test_needs_a_styled_and_an_unstyled_model(self):
        # theta2 never takes a style vector; theta1 does unless the style pathway is ablated
        corpus = CorpusConfig(vocab_size=4)
        runs = [run_config(TINY, TINY_STYLE, 4, 0, corpus=corpus, style_condition=s) for s in (True, False)]
        bundles = [build_models(run, UNIT_STATS) for run in runs]
        styles = [[model.accepts_style for model in bundle.denoisers] for bundle in bundles]
        assert styles == [[True, False], [False, False]]
        (styled, _), (ablated, _) = (bundle.denoisers for bundle in bundles)
        x, y, c = random_inputs()
        with pytest.raises(ValueError, match="pass c"):
            predict_noise(styled, x, 1, y)
        with pytest.raises(ValueError, match="c must be absent"):
            predict_noise(ablated, x, 1, y, c)


def init_rngs(seed: int) -> tuple:
    return tuple(rng_mod.substream(seed, rng_mod.INIT_STREAM, i) for i in (0, 1))


def random_pair(seed=0, config=TINY, accepts_style=True, scale=0.5) -> tuple[Denoiser, Denoiser]:
    """theta1 and theta2 with every parameter drawn at random, so biases,
    null vectors and passthrough gates all take part."""
    pair = Denoiser(config, accepts_style, init_rngs(seed)[0]), Denoiser(config, False, init_rngs(seed)[1])
    rng = np.random.default_rng(seed)
    for model in pair:
        for p in model.params.values():
            p.data[...] = scale * rng.standard_normal(p.shape)
    return pair


def both(pair, x, t, y, c, mask=None) -> np.ndarray:
    """theta1's prediction on the style vector c and theta2's, stacked."""
    theta1, theta2 = pair
    return np.stack([predict_noise(theta1, x, t, y, c, mask).data, predict_noise(theta2, x, t, y, None, mask).data])


class TestGradientsThroughDenoiser:
    def test_loss_gradient_matches_finite_differences(self):
        # tiny 2-layer config, L=4: every parameter of the conditional model
        schedule = cosine_schedule(10)
        model = make_model(accepts_style=True, seed=5)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((1, 3, 4))
        eps = rng.standard_normal((1, 3, 4))
        y = rng.standard_normal((4, 5))
        c = rng.standard_normal(5)

        def loss_value() -> float:
            return diffusion_loss(model, schedule, x0, 3, eps, y, c).item()

        loss = diffusion_loss(model, schedule, x0, 3, eps, y, c)
        loss.backward()
        for name, p in model.params.items():
            if name == "null_condition":
                continue
            analytic = p.grad
            assert analytic is not None, name
            numeric = numeric_gradient(loss_value, p.data)
            scale = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
            worst = np.max(np.abs(numeric - analytic) / scale)
            assert worst < 1e-4, f"{name}: {worst:.2e}"


class TestTextEmbedder:
    def test_shapes(self):
        emb = TextEmbedder(vocab_size=11, dim=8, seed=0)
        assert emb.embed(np.array([0, 5, 10])).shape == (3, 8)
        assert emb.embed(np.zeros((2, 4), dtype=int)).shape == (2, 4, 8)

    def test_deterministic_per_seed(self):
        a = TextEmbedder(11, 8, seed=3).embed(np.array([1, 2]))
        b = TextEmbedder(11, 8, seed=3).embed(np.array([1, 2]))
        assert np.array_equal(a, b)

    def test_position_changes_embedding(self):
        emb = TextEmbedder(11, 8, seed=0)
        rows = emb.embed(np.array([4, 4]))
        assert not np.array_equal(rows[0], rows[1])

    def test_rejects_out_of_vocabulary(self):
        with pytest.raises(ValueError):
            TextEmbedder(5, 8, seed=0).embed(np.array([5]))
