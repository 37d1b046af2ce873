import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from prosodiff import engine, guidance, rng as rng_mod
from prosodiff.corpus import CorpusConfig, generate_corpus
from prosodiff.denoiser import DenoiserConfig, predict_noise
from prosodiff.guidance import (
    GuidanceParams,
    cfg_combine,
    diffusion_loss,
    draw_terminal,
    rescale,
    reverse_process,
    reverse_step,
    sample,
)
from prosodiff.schedule import cosine_schedule, forward_diffuse
from prosodiff.style import StyleConfig
from prosodiff.training import TrainConfig, build_models, train_step, LengthBucketSampler

from helpers import run_config


def tiny_bundle(seed=0, style_condition=True):
    corpus = generate_corpus(
        CorpusConfig(style_count=2, utterances_per_style=8, length_range=(5, 7), vocab_size=12),
        seed=seed,
    )
    run = run_config(
        DenoiserConfig(
            residual_layers=2,
            dilation_cycle=(1, 2),
            hidden_channels=6,
            time_embedding_dim=8,
            condition_dim=6,
        ),
        StyleConfig(token_count=3, token_dim=8, attention_heads=2, ref_channels=4),
        12,
        seed,
        corpus=corpus.config,
        style_condition=style_condition,
    )
    bundle = build_models(run, corpus.stats)
    return corpus, bundle


class TestDiffusionLoss:
    def test_zero_when_prediction_equals_noise(self):
        # bypass the network: feed the loss identical prediction and target
        a = np.random.default_rng(0).standard_normal((2, 3, 4))
        assert engine.mse(engine.Tensor(a), engine.Tensor(a.copy())).item() == 0.0

    def test_unit_noise_against_zero_prediction(self):
        eps = np.ones((2, 3, 4))
        loss = engine.mse(engine.Tensor(eps), engine.Tensor(np.zeros_like(eps)))
        assert loss.item() == pytest.approx(1.0)

    def test_matches_scalar_loop_oracle(self):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((1, 3, 5))
        eps = rng.standard_normal((1, 3, 5))
        y = rng.standard_normal((5, 6))
        theta2 = bundle.denoisers.member(1)
        loss = diffusion_loss(theta2, bundle.schedule, x0, 4, eps, y)[0].item()
        x_t = forward_diffuse(x0, 4, eps, bundle.schedule)
        with engine.no_grad():
            pred = predict_noise(theta2, x_t, 4, y).data[0]
        acc = 0.0
        for b in range(1):
            for ch in range(3):
                for pos in range(5):
                    acc += (eps[b, ch, pos] - pred[b, ch, pos]) ** 2
        np.testing.assert_allclose(loss, acc / 15.0, atol=1e-12)

    def test_differentiable(self):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(2)
        loss_c, loss_nc = diffusion_loss(
            bundle.denoisers,
            bundle.schedule,
            rng.standard_normal((1, 3, 5)),
            2,
            rng.standard_normal((1, 3, 5)),
            rng.standard_normal((5, 6)),
            rng.standard_normal((1, 6)),
        )
        engine.add(loss_c, loss_nc).backward()
        grad = bundle.denoisers.params["output_proj.weight"].grad
        assert grad is not None and np.any(grad[0]) and np.any(grad[1])

    @pytest.mark.parametrize(
        "t", [0, 13, np.array([1, 13]), np.array([0, 5])], ids=["zero", "past-T", "per-example-past-T", "per-example-zero"]
    )
    def test_step_outside_schedule_rejected(self, t):
        _, bundle = tiny_bundle()
        x0 = np.zeros((2, 3, 5))
        with pytest.raises(ValueError, match="outside 1..12"):
            diffusion_loss(bundle.denoisers.member(1), bundle.schedule, x0, t, np.zeros_like(x0), np.zeros((5, 6)))


class TestCfgCombine:
    def test_eta_one_returns_conditional_exactly(self):
        rng = np.random.default_rng(3)
        eps_c, eps_nc = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        assert np.array_equal(cfg_combine(eps_c, eps_nc, 1.0), eps_c)

    def test_eta_zero_returns_unconditional_exactly(self):
        rng = np.random.default_rng(4)
        eps_c, eps_nc = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))
        assert np.array_equal(cfg_combine(eps_c, eps_nc, 0.0), eps_nc)

    def test_extrapolation_arithmetic(self):
        out = cfg_combine(np.ones((1, 3, 2)), np.zeros((1, 3, 2)), 2.0)
        assert np.all(out == 2.0)

    def test_collinear_fixed_point(self):
        e = np.random.default_rng(5).standard_normal((1, 3, 4))
        for eta in (0.0, 0.3, 1.0, 2.5, 7.0):
            np.testing.assert_array_equal(cfg_combine(e, e.copy(), eta), e)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros((1, 3, 4)), np.zeros((1, 3, 5)), 1.0)


class TestRescale:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(6)
        combined, eps_c = rng.standard_normal((2, 3, 8)), rng.standard_normal((2, 3, 8))
        final, diag = rescale(combined, eps_c, 0.0)
        assert np.array_equal(final, combined)
        np.testing.assert_array_equal(diag.applied_ratio, 1.0)

    def test_gamma_one_matches_conditional_std(self):
        rng = np.random.default_rng(7)
        combined, eps_c = 3.0 * rng.standard_normal((2, 3, 16)), rng.standard_normal((2, 3, 16))
        final, diag = rescale(combined, eps_c, 1.0)
        np.testing.assert_allclose(final.std(axis=(1, 2)), diag.sigma_cond, rtol=1e-9)

    def test_hand_computed_half_ratio(self):
        # combined = 2 * eps_c raises std by exactly 2; gamma=1 must undo it
        eps_c = np.random.default_rng(8).standard_normal((1, 3, 10))
        final, diag = rescale(2.0 * eps_c, eps_c, 1.0)
        np.testing.assert_allclose(diag.sigma_cfg, 2.0 * diag.sigma_cond, rtol=1e-12)
        np.testing.assert_allclose(final, eps_c, rtol=1e-12)

    def test_intermediate_gamma_lies_strictly_between(self):
        rng = np.random.default_rng(9)
        eps_c = rng.standard_normal((1, 3, 12))
        combined = cfg_combine(eps_c, rng.standard_normal((1, 3, 12)), 4.0)
        lo = rescale(combined, eps_c, 1.0)[0].std()
        hi = rescale(combined, eps_c, 0.0)[0].std()
        mid = rescale(combined, eps_c, 0.5)[0].std()
        assert min(lo, hi) < mid < max(lo, hi)

    def test_identity_when_combined_equals_conditional(self):
        eps_c = np.random.default_rng(10).standard_normal((2, 3, 6))
        for gamma in (0.0, 0.3, 0.7, 1.0):
            final, diag = rescale(eps_c.copy(), eps_c, gamma)
            assert np.array_equal(final, eps_c)
            np.testing.assert_array_equal(diag.applied_ratio, 1.0)

    def test_degenerate_std_guard(self):
        combined = np.zeros((1, 3, 4))  # zero std
        eps_c = np.random.default_rng(11).standard_normal((1, 3, 4))
        final, diag = rescale(combined, eps_c, 1.0)
        assert np.array_equal(final, combined)
        np.testing.assert_array_equal(diag.applied_ratio, 1.0)

    def test_scale_equivariance_in_conditional(self):
        rng = np.random.default_rng(12)
        eps_c = rng.standard_normal((1, 3, 9))
        combined = rng.standard_normal((1, 3, 9))
        base, _ = rescale(combined, eps_c, 1.0)
        doubled, _ = rescale(combined, 2.0 * eps_c, 1.0)
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_gamma_out_of_range(self):
        z = np.zeros((1, 3, 4))
        with pytest.raises(ValueError):
            rescale(z, z, 1.5)


# pairs (combined, eps_c) of equal [B, C, L] shape with bounded finite entries
PREDICTIONS = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 8)).flatmap(
    lambda shape: st.tuples(*[arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)) for _ in range(2)])
)


class TestRescaleProperties:
    @settings(max_examples=100, deadline=None)
    @given(PREDICTIONS)
    def test_gamma_zero_returns_combined_exactly(self, pair):
        combined, eps_c = pair
        final, _ = rescale(combined, eps_c, 0.0)
        assert np.array_equal(final, combined)

    @settings(max_examples=100, deadline=None)
    @given(PREDICTIONS)
    def test_gamma_one_restores_conditional_std(self, pair):
        combined, eps_c = pair
        final, diag = rescale(combined, eps_c, 1.0)
        # above the floor the claim is exact up to the std's own rounding,
        # which grows with |combined| / std(combined); keep that ratio <= 1e3
        conditioned = diag.sigma_cfg > np.maximum(guidance.SIGMA_FLOOR, 1e-3 * np.abs(combined).max(axis=(1, 2)))
        np.testing.assert_allclose(final.std(axis=(1, 2))[conditioned], eps_c.std(axis=(1, 2))[conditioned], rtol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(PREDICTIONS, st.floats(0.0, 1.0))
    def test_output_is_a_nonnegative_multiple_of_combined(self, pair, gamma):
        combined, eps_c = pair
        final, diag = rescale(combined, eps_c, gamma)
        assert np.array_equal(final, combined * diag.applied_ratio[:, None, None])
        assert np.all(diag.applied_ratio >= 0)
        # zero only when gamma = 1 hands the whole example to a zero conditional std
        assert np.all(diag.applied_ratio[(diag.sigma_cond > 0) | (gamma < 1.0)] > 0)

    @settings(max_examples=100, deadline=None)
    @given(PREDICTIONS, st.floats(0.0, 1.0), st.floats(-1e3, 1e3), st.data())
    def test_zero_std_example_gets_ratio_one(self, pair, gamma, level, data):
        combined, eps_c = pair
        flat = data.draw(st.integers(0, combined.shape[0] - 1))
        combined[flat] = level
        final, diag = rescale(combined, eps_c, gamma)
        assert diag.applied_ratio[flat] == 1.0
        assert np.array_equal(final[flat], combined[flat])


class TestReverseStep:
    def test_final_step_deterministic(self):
        sch = cosine_schedule(10)
        rng = np.random.default_rng(13)
        x1 = rng.standard_normal((1, 3, 5))
        eps_hat = rng.standard_normal((1, 3, 5))
        out1 = reverse_step(x1, 1, eps_hat, sch, np.random.default_rng(0))
        out2 = reverse_step(x1, 1, eps_hat, sch, np.random.default_rng(999))
        assert np.array_equal(out1, out2)  # rng unused at t=1
        mean = (x1 - sch.beta(1) / math.sqrt(1 - sch.alpha_bar(1)) * eps_hat) / math.sqrt(sch.alpha(1))
        np.testing.assert_allclose(out1, mean, rtol=1e-12)

    def test_inverts_forward_at_t1(self):
        sch = cosine_schedule(50)
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((2, 3, 6))
        eps = rng.standard_normal((2, 3, 6))
        x1 = forward_diffuse(x0, 1, eps, sch)
        recovered = reverse_step(x1, 1, eps, sch, np.random.default_rng(0))
        np.testing.assert_allclose(recovered, x0, atol=1e-9)

    def test_reproducible_under_seed(self):
        sch = cosine_schedule(10)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 3, 4))
        eps_hat = rng.standard_normal((1, 3, 4))
        a = reverse_step(x, 5, eps_hat, sch, np.random.default_rng(77))
        b = reverse_step(x, 5, eps_hat, sch, np.random.default_rng(77))
        assert np.array_equal(a, b)

    def test_step_out_of_range(self):
        sch = cosine_schedule(10)
        with pytest.raises(ValueError):
            reverse_step(np.zeros((1, 3, 4)), 11, np.zeros((1, 3, 4)), sch, np.random.default_rng(0))


def single_model(model, y, c, params, schedule, rng):
    """The reverse loop driven by one denoiser alone (no guidance stages)."""
    shape = (y.shape[0], 3, y.shape[1])
    return reverse_process(lambda x, t: predict_noise(model, x, t, y, c).data[0], shape, params.tau, schedule, rng)


def randomize(bundle, seed):
    """Draw every denoiser parameter at random; null vectors, biases and
    passthrough gates then all take part."""
    rng = np.random.default_rng(seed)
    for member in (0, 1):
        for p in bundle.denoisers.params.values():
            p.data[member] = 0.1 * rng.standard_normal(p.shape[1:])
    return bundle


def two_forward_reference(bundle, y, c, params, rng, diagnostics):
    """The guided sampler written out with a separate forward pass of each denoiser per step."""
    schedule = bundle.schedule
    theta1, theta2 = bundle.denoisers.member(0), bundle.denoisers.member(1)
    x = draw_terminal((y.shape[0], 3, y.shape[1]), params.tau, rng)
    with engine.no_grad():
        for t in range(schedule.step_count, 0, -1):
            eps_c = predict_noise(theta1, x, t, y, c).data[0]
            eps_nc = predict_noise(theta2, x, t, y).data[0]
            eps_hat, diag = rescale(cfg_combine(eps_c, eps_nc, params.eta), eps_c, params.gamma)
            diagnostics.append((t, diag))
            x = reverse_step(x, t, eps_hat, schedule, rng)
    return x


def assert_matches_reference(bundle, batch, params, seed):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((batch, 5, 6))
    c = rng.standard_normal((batch, 6))
    got_diags, want_diags = [], []
    got = sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(seed + 1), got_diags)
    want = two_forward_reference(bundle, y, c, params, np.random.default_rng(seed + 1), want_diags)
    assert np.array_equal(got, want)
    assert [t for t, _ in got_diags] == [t for t, _ in want_diags]
    for (_, g), (_, w) in zip(got_diags, want_diags):
        assert all(np.array_equal(getattr(g, key), getattr(w, key)) for key in vars(w))


class TestSampler:
    @pytest.mark.parametrize("eta", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_guided_sample_matches_two_forward_reference_bitwise(self, eta, gamma, batch):
        _, bundle = tiny_bundle()
        assert_matches_reference(randomize(bundle, 30), batch, GuidanceParams(eta=eta, gamma=gamma), seed=40 + batch)

    def test_one_forward_pass_per_guided_step(self, monkeypatch):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(19)
        y = rng.standard_normal((2, 6, 6))
        c = rng.standard_normal((2, 6))
        ran = []

        def spy(model, *args):
            ran.append(model)
            return predict_noise(model, *args)

        monkeypatch.setattr(guidance, "predict_noise", spy)
        sample(bundle.denoisers, bundle.schedule, y, c, GuidanceParams(eta=2.0), np.random.default_rng(5))
        assert ran == [bundle.denoisers] * bundle.schedule.step_count


    def test_eta_one_matches_conditional_only_bitwise(self, monkeypatch):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(16)
        y = rng.standard_normal((1, 6, 6))
        c = rng.standard_normal((1, 6))
        params = GuidanceParams(eta=1.0, gamma=0.7, tau=1.0)
        ran = []

        def spy(model, *args):
            ran.append(model)
            return predict_noise(model, *args)

        monkeypatch.setattr(guidance, "predict_noise", spy)
        guided = sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(5))
        solo = single_model(bundle.denoisers.member(0), y, c, params, bundle.schedule, np.random.default_rng(5))
        assert np.array_equal(guided, solo)
        # theta2's prediction would go unused at eta=1, so it is not computed:
        # every step runs a one-member view: theta1 over its slice of the weights
        assert len(ran) == bundle.schedule.step_count
        for model in ran:
            assert model is not bundle.denoisers and model.accepts_style
            assert all(p.shape[0] == 1 for p in model.params.values())
            assert all(p.data.base is bundle.denoisers.params[name].data for name, p in model.params.items())

    def test_eta_zero_matches_unconditional_only_bitwise(self):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(17)
        y = rng.standard_normal((1, 6, 6))
        c = rng.standard_normal((1, 6))
        params = GuidanceParams(eta=0.0, gamma=0.7, tau=1.0)
        guided = sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(5))
        solo = single_model(bundle.denoisers.member(1), y, None, params, bundle.schedule, np.random.default_rng(5))
        assert np.array_equal(guided, solo)

    def test_absent_style_uses_unconditional_path(self):
        _, bundle = tiny_bundle()
        y = np.random.default_rng(18).standard_normal((2, 5, 6))
        params = GuidanceParams(eta=2.0, gamma=0.5, tau=1.0)
        a = sample(bundle.denoisers, bundle.schedule, y, None, params, np.random.default_rng(9))
        b = single_model(bundle.denoisers.member(1), y, None, params, bundle.schedule, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_terminal_temperature_scales_std(self):
        rng1 = np.random.default_rng(20)
        rng4 = np.random.default_rng(20)
        draws1 = draw_terminal((10_000, 1, 1), 1.0, rng1)
        draws4 = draw_terminal((10_000, 1, 1), 4.0, rng4)
        ratio = draws4.std() / draws1.std()
        assert abs(ratio - 0.5) < 0.5 * 0.03

    def test_sampler_finite_across_guidance_range(self):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(21)
        y = rng.standard_normal((1, 5, 6))
        c = rng.standard_normal((1, 6))
        for eta in (0.0, 1.0, 4.0, 10.0):
            params = GuidanceParams(eta=eta, gamma=0.7, tau=1.0)
            out = sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(3))
            assert np.all(np.isfinite(out))

    def test_diagnostics_recorded_per_step(self):
        _, bundle = tiny_bundle()
        rng = np.random.default_rng(22)
        y = rng.standard_normal((1, 4, 6))
        c = rng.standard_normal((1, 6))
        diags: list = []
        params = GuidanceParams(eta=2.0, gamma=0.7, tau=1.0)
        sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(1), diags)
        assert len(diags) == 12
        assert diags[0][0] == 12 and diags[-1][0] == 1
        for _, d in diags:
            assert np.all(d.sigma_cond >= 0) and np.all(np.isfinite(d.applied_ratio))


class TestGuidanceParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GuidanceParams(eta=-0.1)
        with pytest.raises(ValueError):
            GuidanceParams(gamma=1.2)
        with pytest.raises(ValueError):
            GuidanceParams(tau=0.0)

    @pytest.mark.parametrize("field", ["eta", "gamma", "tau"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError):
            GuidanceParams(**{field: bad})


class TestTrainStep:
    def test_reproducible_under_seed(self):
        def run():
            corpus, bundle = tiny_bundle(seed=4)
            cfg = TrainConfig(steps=2, batch_size=4)
            sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 4)
            losses = []
            for step in (1, 2):
                gen = rng_mod.substream(4, rng_mod.TRAIN_STREAM, step)
                losses.append(train_step(bundle, sampler.next_batch(gen), cfg, gen))
            return losses

        assert run() == run()

    def test_losses_positive_and_finite(self):
        corpus, bundle = tiny_bundle(seed=5)
        cfg = TrainConfig(steps=1, batch_size=4)
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 4)
        gen = rng_mod.substream(5, rng_mod.TRAIN_STREAM, 1)
        loss_c, loss_nc = train_step(bundle, sampler.next_batch(gen), cfg, gen)
        assert 0 < loss_c < 100 and 0 < loss_nc < 100

    def test_unconditional_loss_untouched_by_conditional_updates(self):
        # freeze theta2 by observing loss_nc on a fixed batch while theta1 trains
        corpus, bundle = tiny_bundle(seed=6)
        cfg = TrainConfig(steps=1, batch_size=4)
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 4)
        gen = rng_mod.substream(6, rng_mod.TRAIN_STREAM, 1)
        batch = sampler.next_batch(gen)
        eps = np.random.default_rng(0).standard_normal(batch.x0.shape)

        def probe_nc() -> float:
            return diffusion_loss(bundle.denoisers.member(1), bundle.schedule, batch.x0, 3, eps, batch.y)[0].item()

        before = probe_nc()
        from prosodiff.optim import optimizer_step
        from prosodiff.style import encode_style

        c, _ = encode_style(bundle.bank, batch.x0)
        loss_c, _ = diffusion_loss(bundle.denoisers, bundle.schedule, batch.x0, 3, eps, batch.y, c)
        loss_c.backward()  # reaches theta2's slices only as exact zeros
        optimizer_step(bundle.trainable_parameters(), bundle.adam, 1e-2)
        assert probe_nc() == before

    def test_non_finite_loss_names_the_step(self):
        corpus, bundle = tiny_bundle(seed=7)
        cfg = TrainConfig(steps=5, batch_size=4)
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 4)
        gen = rng_mod.substream(7, rng_mod.TRAIN_STREAM, 3)
        bundle.denoisers.params["output_proj.bias"].data[1] = [np.nan, 0.0, 0.0]  # theta2's half
        before = bundle.denoisers.params["output_proj.weight"].data.copy()
        with pytest.raises(ValueError, match="non-finite training loss at step 3"):
            train_step(bundle, sampler.next_batch(gen), cfg, gen, step=3)
        assert np.array_equal(bundle.denoisers.params["output_proj.weight"].data, before)
        assert bundle.adam.step_counter == 0

    def test_empty_batch_rejected(self):
        corpus, bundle = tiny_bundle(seed=7)
        cfg = TrainConfig(steps=1, batch_size=1)
        from prosodiff.training import Batch

        empty = Batch(x0=np.zeros((0, 3, 4)), phoneme_ids=np.zeros((0, 4), dtype=int), y=np.zeros((0, 4, 6)))
        with pytest.raises(ValueError, match="empty"):
            train_step(bundle, empty, cfg, np.random.default_rng(0))
