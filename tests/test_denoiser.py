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
        assert out.shape == (1,) + x.shape
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
        base = predict_noise(model, x, 2, y).data[0]
        bumped = x.copy()
        bumped[0, :, center] += 1.0
        diff = np.abs(predict_noise(model, bumped, 2, y).data[0] - base).sum(axis=(0, 1))
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
        base = predict_noise(model, x, 1, y).data[0]
        bumped = x.copy()
        bumped[0, 1, 7] += 1.0
        diff = np.abs(predict_noise(model, bumped, 1, y).data[0] - base).sum(axis=(0, 1))
        assert diff[6] > 1e-12 and diff[8] > 1e-12

    def test_per_example_steps(self):
        model = make_model()
        x, y, _ = random_inputs(batch=3)
        batched = predict_noise(model, x, np.array([1, 2, 3]), y).data[0]
        for i, t in enumerate((1, 2, 3)):
            single = predict_noise(model, x[i : i + 1], t, y).data[0]
            np.testing.assert_allclose(batched[i], single[0], atol=1e-12)


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
        # build_models keeps each theta1/theta2 pair in one array; the members' slices must not overlap
        bundle = build_models(run_config(TINY, TINY_STYLE, 4, 0, corpus=CorpusConfig(vocab_size=4)), UNIT_STATS)
        x, y, _ = random_inputs()
        before = predict_noise(bundle.denoisers.member(1), x, 1, y).data
        for p in bundle.denoisers.params.values():
            p.data[0] += 1.0
        after = predict_noise(bundle.denoisers.member(1), x, 1, y).data
        assert np.array_equal(before, after)

    def test_null_condition_not_trainable_when_style_supplied(self):
        def null_grad(style_condition: bool) -> np.ndarray:
            pair = Denoiser(TINY, style_condition, *init_rngs(0))
            x, y, c = random_inputs()
            out = predict_noise(pair, x, 2, y, c if style_condition else None)
            engine.sum_(engine.mul(out, out)).backward()
            return pair.params["null_condition"].grad

        styled, unstyled = null_grad(True), null_grad(False)
        assert not np.any(styled[0]) and np.any(styled[1])
        assert np.any(unstyled[0]) and np.any(unstyled[1])


def init_rngs(seed: int) -> tuple:
    return tuple(rng_mod.substream(seed, rng_mod.INIT_STREAM, i) for i in (0, 1))


def random_pair(seed=0, accepts_style=True) -> Denoiser:
    """A two-member denoiser with every parameter drawn at random, so biases,
    null vectors and passthrough gates all take part."""
    pair = Denoiser(TINY, accepts_style, *init_rngs(seed))
    rng = np.random.default_rng(seed)
    for member in (0, 1):
        for p in pair.params.values():
            p.data[member] = 0.5 * rng.standard_normal(p.shape[1:])
    return pair


def copy_of_member(pair: Denoiser, index: int) -> Denoiser:
    """A stand-alone one-member Denoiser holding copies of member ``index``'s slices."""
    model = make_model(pair.accepts_style and index == 0)
    for name, p in model.params.items():
        p.data = pair.params[name].data[index : index + 1].copy()
    return model


class TestStackedMembers:
    @pytest.mark.parametrize("t", [3, np.array([1, 7])], ids=["shared-step", "per-example-steps"])
    def test_matches_each_model_bitwise(self, t):
        pair = random_pair()
        theta1, theta2 = copy_of_member(pair, 0), copy_of_member(pair, 1)
        x, y, c = random_inputs()
        both = predict_noise(pair, x, t, y, c).data
        assert both.shape == (2,) + x.shape
        assert np.array_equal(both[0], predict_noise(theta1, x, t, y, c).data[0])
        assert np.array_equal(both[1], predict_noise(theta2, x, t, y).data[0])
        assert np.array_equal(both[0], predict_noise(pair.member(0), x, t, y, c).data[0])
        assert np.array_equal(both[1], predict_noise(pair.member(1), x, t, y).data[0])

    def test_gradients_match_each_model(self):
        pair = random_pair(seed=3)
        theta1, theta2 = copy_of_member(pair, 0), copy_of_member(pair, 1)
        x, y, c = random_inputs(seed=4)
        weights = np.random.default_rng(5).standard_normal((2,) + x.shape)
        engine.sum_(engine.mul(predict_noise(pair, x, 2, y, c), weights)).backward()
        engine.sum_(engine.mul(predict_noise(theta1, x, 2, y, c), weights[0])).backward()
        engine.sum_(engine.mul(predict_noise(theta2, x, 2, y), weights[1])).backward()
        for name, p in pair.params.items():
            for half, model in zip(p.grad, (theta1, theta2)):
                single = model.params[name].grad  # None for theta1's unused null vector
                expected = np.zeros_like(half) if single is None else single[0]
                np.testing.assert_allclose(half, expected, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_needs_a_styled_and_an_unstyled_model(self):
        # theta2 never takes a style vector; theta1 does unless the style pathway is ablated
        styled, ablated = random_pair(), random_pair(accepts_style=False)
        assert [styled.member(i).accepts_style for i in (0, 1)] == [True, False]
        assert [ablated.member(i).accepts_style for i in (0, 1)] == [False, False]
        x, y, c = random_inputs()
        with pytest.raises(ValueError, match="pass c"):
            predict_noise(styled, x, 1, y)
        with pytest.raises(ValueError, match="c must be absent"):
            predict_noise(ablated, x, 1, y, c)
        both = predict_noise(ablated, x, 1, y).data
        assert np.array_equal(both[0], predict_noise(copy_of_member(ablated, 0), x, 1, y).data[0])
        assert np.array_equal(both[1], predict_noise(copy_of_member(ablated, 1), x, 1, y).data[0])


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
            return diffusion_loss(model, schedule, x0, 3, eps, y, c)[0].item()

        (loss,) = diffusion_loss(model, schedule, x0, 3, eps, y, c)
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
