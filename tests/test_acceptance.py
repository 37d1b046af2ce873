"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured numbers once its assertions hold.

Criteria 6-10 share the session-trained default-configuration model and
are marked ``slow``; the rest are self-contained and run with the unit
tests. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from prosodiff import engine, evaluate, inference
from prosodiff import rng as rng_mod
from prosodiff.cli import main as cli_main
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
from prosodiff.style import StyleConfig, condition_from_weights, encode_style, one_hot_weights
from prosodiff.training import build_models

from helpers import FD_TOL, numeric_gradient, run_config

EVAL_GUIDANCE = GuidanceParams(eta=1.0, gamma=0.7, tau=1.0)


def tiny_bundle(seed=0):
    corpus = generate_corpus(
        CorpusConfig(style_count=2, utterances_per_style=8, length_range=(5, 7), vocab_size=12),
        seed=seed,
    )
    run = run_config(
        DenoiserConfig(
            residual_layers=2, dilation_cycle=(1, 2), hidden_channels=6, time_embedding_dim=8, condition_dim=6
        ),
        StyleConfig(token_count=3, token_dim=8, attention_heads=2, ref_channels=4),
        12,
        seed,
        corpus=corpus.config,
    )
    bundle = build_models(run, corpus.stats)
    return corpus, bundle


@pytest.fixture(scope="module")
def val_reconstruction(default_run):
    """The eta=1 guided reconstruction of the val split (seed 123) that
    criteria 6 and 10 both judge; sampled once for the two of them."""
    bundle, corpus = default_run["bundle"], default_run["corpus"]
    return inference.reconstruct(bundle, corpus.split("val"), EVAL_GUIDANCE, seed=123)


class TestCriterion1Gradients:
    """Every differentiable operation and the full denoiser pass central
    finite differences at relative error < 1e-4, under 1s per check."""

    def _check(self, build_loss, arrays, label):
        started = time.time()
        tensors = [engine.Tensor(a) for a in arrays]
        loss = build_loss(*tensors)
        loss.backward()

        def value():
            return float(build_loss(*[engine.Tensor(a) for a in arrays]).data)

        for tensor, array in zip(tensors, arrays):
            numeric = numeric_gradient(value, array)
            analytic = tensor.grad if tensor.grad is not None else np.zeros_like(array)
            scale = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
            worst = np.max(np.abs(numeric - analytic) / scale)
            assert worst < FD_TOL, f"{label}: relative error {worst:.2e}"
        elapsed = time.time() - started
        assert elapsed < 1.0, f"{label}: took {elapsed:.2f}s"
        return elapsed

    def test_elementwise_and_structural_ops(self):
        rng = np.random.default_rng(0)
        sq = lambda v: engine.sum_(engine.mul(v, v))
        cases = [
            ("add", lambda a, b: sq(engine.add(a, b)), [rng.standard_normal((2, 3, 4)), rng.standard_normal((1, 3, 1))]),
            ("sub", lambda a, b: sq(engine.sub(a, b)), [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
            ("mul", lambda a, b: sq(engine.mul(a, b)), [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
            ("matmul", lambda a, b: sq(engine.matmul(a, b)), [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]),
            ("tanh", lambda a: sq(engine.tanh(a)), [rng.standard_normal((4, 4))]),
            ("sigmoid", lambda a: sq(engine.sigmoid(a)), [rng.standard_normal((4, 4))]),
            ("relu", lambda a: sq(engine.relu(a)), [rng.standard_normal((5, 5))]),
            ("gate", lambda a, b: sq(engine.gated_activation(a, b)), [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
            ("softmax", lambda a: sq(engine.softmax(a)), [rng.standard_normal((3, 5))]),
            ("mean", lambda a: sq(engine.mean(a, axis=2)), [rng.standard_normal((2, 3, 5))]),
            ("narrow", lambda a: sq(engine.narrow(a, 1, 1, 3)), [rng.standard_normal((2, 4, 3))]),
            ("downsample", lambda a: sq(engine.downsample(a, 2)), [rng.standard_normal((2, 2, 7))]),
            ("reshape", lambda a: sq(engine.reshape(a, (6, 2))), [rng.standard_normal((3, 4))]),
            ("transpose", lambda a: sq(engine.transpose2d(a)), [rng.standard_normal((3, 4))]),
            ("conv_d1", lambda x, w, b: sq(engine.conv1d(x, w, b, 1)), [rng.standard_normal((2, 3, 6)), rng.standard_normal((4, 3, 3)), rng.standard_normal(4)]),
            ("conv_d2", lambda x, w, b: sq(engine.conv1d(x, w, b, 2)), [rng.standard_normal((2, 3, 8)), rng.standard_normal((4, 3, 3)), rng.standard_normal(4)]),
            ("mse", lambda a, b: engine.mse(a, b), [rng.standard_normal((3, 4)), rng.standard_normal((3, 4))]),
        ]
        slowest = 0.0
        for label, builder, arrays in cases:
            slowest = max(slowest, self._check(builder, arrays, label))
        print(f"\n[criterion 1a] PASS: {len(cases)} op gradient checks < 1e-4 (slowest {slowest:.2f}s)")

    def test_full_two_layer_denoiser(self):
        schedule = cosine_schedule(10)
        corpus, bundle = tiny_bundle(seed=5)
        theta1, theta2 = bundle.denoisers
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((1, 3, 4))
        eps = rng.standard_normal((1, 3, 4))
        y = rng.standard_normal((4, 6))
        reference = rng.standard_normal((1, 3, 4))

        def loss_tensor():  # the training objective: theta1's and theta2's losses, each from its own forward
            c, _ = encode_style(bundle.bank, reference)
            loss_c = diffusion_loss(theta1, schedule, x0, 3, eps, y, c)
            return engine.add(loss_c, diffusion_loss(theta2, schedule, x0, 3, eps, y))

        started = time.time()
        loss = loss_tensor()
        loss.backward()
        checked = 0
        for owner in (theta1.params, theta2.params, bundle.bank.params):
            for name, p in owner.items():
                numeric = numeric_gradient(lambda: loss_tensor().item(), p.data)
                analytic = np.zeros_like(p.data) if p.grad is None else p.grad  # theta1's unused null vector
                scale = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
                worst = np.max(np.abs(numeric - analytic) / scale)
                assert worst < FD_TOL, f"{name}: {worst:.2e}"
                checked += p.size
        elapsed = time.time() - started
        print(f"\n[criterion 1b] PASS: 2-layer denoiser pair + style bank, {checked} coordinates in {elapsed:.1f}s")


class TestCriterion2ForwardStatistics:
    def test_moments_at_half_schedule(self):
        started = time.time()
        schedule = cosine_schedule(200)
        t = 100
        rng = np.random.default_rng(42)
        x0 = np.array([[0.7, -1.2, 0.3]]).T @ np.ones((1, 4))
        draws = 10_000
        eps = rng.standard_normal((draws, 3, 4))
        xt = forward_diffuse(np.broadcast_to(x0, eps.shape), t, eps, schedule)
        abar = schedule.alpha_bar(t)
        target = math.sqrt(abar) * x0
        stderr = math.sqrt(1 - abar) / math.sqrt(draws)
        worst_dev = np.max(np.abs(xt.mean(axis=0) - target)) / stderr
        assert worst_dev < 3.0
        var = (xt - target).var()
        var_err = abs(var - (1 - abar)) / (1 - abar)
        assert var_err < 0.05
        elapsed = time.time() - started
        assert elapsed < 10.0
        print(
            f"\n[criterion 2] PASS: t=T/2 mean within {worst_dev:.2f} stderr, "
            f"variance within {var_err*100:.2f}% in {elapsed:.1f}s"
        )


class TestCriterion3GuidanceEndpoints:
    def test_eta_one_bit_identical_to_conditional(self):
        _, bundle = tiny_bundle(seed=1)
        rng = np.random.default_rng(2)
        y = rng.standard_normal((2, 6, 6))
        c = rng.standard_normal((2, 6))
        params = GuidanceParams(eta=1.0, gamma=0.7, tau=1.0)
        guided = sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(7))
        solo = reverse_process(
            lambda x, t: predict_noise(bundle.denoisers[0], x, t, y, c).data,
            guided.shape,
            params.tau,
            bundle.schedule,
            np.random.default_rng(7),
        )
        assert np.array_equal(guided, solo)
        print("\n[criterion 3a] PASS: eta=1 trajectory bit-identical to conditional-only sampling")

    def test_eta_zero_bit_identical_to_unconditional(self):
        _, bundle = tiny_bundle(seed=1)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((2, 6, 6))
        c = rng.standard_normal((2, 6))
        params = GuidanceParams(eta=0.0, gamma=0.7, tau=1.0)
        guided = sample(bundle.denoisers, bundle.schedule, y, c, params, np.random.default_rng(7))
        solo = reverse_process(
            lambda x, t: predict_noise(bundle.denoisers[1], x, t, y).data,
            guided.shape,
            params.tau,
            bundle.schedule,
            np.random.default_rng(7),
        )
        assert np.array_equal(guided, solo)
        print("\n[criterion 3b] PASS: eta=0 trajectory bit-identical to unconditional-only sampling")


class TestCriterion4RescaleContract:
    def test_gamma_zero_noop_gamma_one_std_match_per_step(self):
        _, bundle = tiny_bundle(seed=2)
        rng = np.random.default_rng(4)
        y = rng.standard_normal((2, 5, 6))
        c = rng.standard_normal((2, 6))
        x = draw_terminal((2, 3, 5), 1.0, np.random.default_rng(11))
        step_rng = np.random.default_rng(12)
        worst_rel = 0.0
        theta1, theta2 = bundle.denoisers
        with engine.no_grad():
            for t in range(12, 0, -1):
                eps_c = predict_noise(theta1, x, t, y, c).data
                eps_nc = predict_noise(theta2, x, t, y).data
                combined = cfg_combine(eps_c, eps_nc, 3.0)

                noop, _ = rescale(combined, eps_c, 0.0)
                assert np.array_equal(noop, combined)

                final, diag = rescale(combined, eps_c, 1.0)
                rel = np.max(np.abs(final.std(axis=(1, 2)) - diag.sigma_cond) / diag.sigma_cond)
                worst_rel = max(worst_rel, rel)
                assert rel < 1e-9

                mid, _ = rescale(combined, eps_c, 0.4)
                lo = np.minimum(final.std(axis=(1, 2)), combined.std(axis=(1, 2)))
                hi = np.maximum(final.std(axis=(1, 2)), combined.std(axis=(1, 2)))
                assert np.all(lo < mid.std(axis=(1, 2))) and np.all(mid.std(axis=(1, 2)) < hi)

                x = reverse_step(x, t, final, bundle.schedule, step_rng)
        print(f"\n[criterion 4] PASS: gamma endpoints and strict betweenness per step (worst rel {worst_rel:.1e})")


class TestCriterion5Temperature:
    def test_terminal_std_scales_inverse_sqrt_tau(self):
        draws = 10_000
        std1 = draw_terminal((draws, 1, 1), 1.0, np.random.default_rng(20)).std()
        std4 = draw_terminal((draws, 1, 1), 4.0, np.random.default_rng(21)).std()
        ratio = std4 / std1
        assert abs(ratio - 0.5) < 0.5 * 0.03
        print(f"\n[criterion 5] PASS: tau=4 vs tau=1 terminal std ratio {ratio:.4f} (target 0.5 +- 3%)")


@pytest.mark.slow  # trains the default model (session fixture)
class TestCriterion6EndToEnd:
    def test_training_budget_and_js(self, default_run, val_reconstruction):
        minutes = default_run["train_seconds"] / 60.0
        assert minutes <= 30.0, f"training took {minutes:.1f} min"
        report = evaluate.js_report(val_reconstruction, default_run["corpus"].split("val"))
        for channel, value in report.items():
            assert value < 0.08, f"{channel}: JS {value:.4f}"
        pretty = ", ".join(f"{k}={v:.4f}" for k, v in report.items())
        print(f"\n[criterion 6] PASS: trained in {minutes:.1f} min; eta=1, gamma=0.7 JS {pretty} (< 0.08)")


@pytest.mark.slow  # trains the default model (session fixture)
class TestCriterion7DiversityTrend:
    def test_pitch_cv_grows_with_eta(self, default_run):
        bundle, corpus = default_run["bundle"], default_run["corpus"]
        subset = corpus.split("val")[:24]
        cvs = []
        for eta in (1.0, 3.0, 5.0, 7.0):
            params = GuidanceParams(eta=eta, gamma=0.7, tau=1.0)
            generated = inference.reconstruct(bundle, subset, params, seed=55)
            cvs.append(evaluate.mean_cv(generated)[0])
        assert all(a <= b for a, b in zip(cvs, cvs[1:])), f"not non-decreasing: {cvs}"
        ratio = cvs[-1] / cvs[0]
        assert ratio >= 1.5, f"CV(7)/CV(1) = {ratio:.2f}"
        pretty = ", ".join(f"{v:.2f}" for v in cvs)
        print(f"\n[criterion 7] PASS: pitch CV over eta 1,3,5,7 = {pretty}%; ratio {ratio:.2f} >= 1.5")


@pytest.mark.slow  # trains the default model (session fixture)
class TestCriterion8TokenControl:
    def test_one_hot_clusters_separate(self, default_run):
        bundle, corpus = default_run["bundle"], default_run["corpus"]
        val = corpus.split("val")
        token_count = bundle.bank.config.token_count
        assert token_count == 4
        pick = rng_mod.substream(default_run["run"].seed, rng_mod.SAMPLE_STREAM, 999)
        descriptors, labels = [], []
        for token in range(token_count):
            with engine.no_grad():
                c_vec = condition_from_weights(bundle.bank, one_hot_weights(token, token_count)).data[0]
            texts = [val[int(i)].phoneme_ids for i in pick.integers(0, len(val), size=50)]
            for x in inference.generate(bundle, texts, [c_vec] * 50, EVAL_GUIDANCE, seed=1000 + token):
                descriptors.append(evaluate.descriptor(bundle.stats.denormalize(x)))
                labels.append(token)
        descriptors = np.stack(descriptors)
        labels = np.array(labels)
        accuracy = evaluate.cluster_separation(descriptors, labels)
        assert accuracy >= 0.8, f"accuracy {accuracy:.3f}"

        shuffle_rng = np.random.default_rng(0)
        baseline = []
        for _ in range(20):
            shuffled = labels.copy()
            shuffle_rng.shuffle(shuffled)
            baseline.append(evaluate.cluster_separation(descriptors, shuffled))
        baseline_mean = float(np.mean(baseline))
        assert abs(baseline_mean - 0.25) < 0.1, f"baseline {baseline_mean:.3f}"
        print(
            f"\n[criterion 8] PASS: one-hot token accuracy {accuracy:.3f} >= 0.8 "
            f"(random-label baseline {baseline_mean:.3f} ~ 1/4)"
        )


@pytest.mark.slow  # trains the default model (session fixture)
class TestCriterion9TransferIntensity:
    def test_pitch_cv_monotone_in_eta(self, default_run):
        bundle, corpus = default_run["bundle"], default_run["corpus"]
        val = corpus.split("val")
        by_cv = sorted(val, key=lambda u: evaluate.coefficient_of_variation(np.exp(u.prosody[0])))
        reference = by_cv[-1]  # most pitch variation
        low_texts = [u.phoneme_ids for u in val if u.style_id == 0][:16]
        c_ref = inference.style_conditions(bundle, [reference.prosody])[0]
        averaged = []
        for eta in (0.5, 1.0, 2.0):
            params = GuidanceParams(eta=eta, gamma=0.7, tau=1.0)
            per_seed = []
            for seed in (77, 78, 79):
                generated = inference.generate(bundle, low_texts, [c_ref] * len(low_texts), params, seed)
                per_seed.append(evaluate.mean_cv([bundle.stats.denormalize(x) for x in generated])[0])
            averaged.append(float(np.mean(per_seed)))
        assert averaged[0] < averaged[1] < averaged[2], f"not monotone: {averaged}"
        pretty = ", ".join(f"{v:.2f}" for v in averaged)
        print(f"\n[criterion 9] PASS: transfer pitch CV over eta 0.5,1,2 = {pretty}% (monotone)")


@pytest.mark.slow  # trains the default model (session fixture)
class TestCriterion10AblationOrdering:
    def test_conditioning_tiers_order_js(self, default_run, val_reconstruction):
        bundle, corpus = default_run["bundle"], default_run["corpus"]
        val = corpus.split("val")
        cond = evaluate.js_report(val_reconstruction, val)
        texts = [u.phoneme_ids for u in val]
        unstyled = inference.generate(bundle, texts, None, EVAL_GUIDANCE, seed=123)
        uncond = evaluate.js_report([bundle.stats.denormalize(x) for x in unstyled], val)
        # the trained weights with the text-ablated embedder: every text embeds as zeros
        embedder = copy.copy(bundle.embedder)
        embedder.ablated = True
        no_text = replace(bundle, embedder=embedder)
        zerotext = evaluate.js_report(inference.reconstruct(no_text, val, EVAL_GUIDANCE, seed=123), val)
        for channel in cond:
            assert cond[channel] < uncond[channel], (
                f"{channel}: cond {cond[channel]:.4f} !< uncond {uncond[channel]:.4f}"
            )
            assert uncond[channel] < zerotext[channel], (
                f"{channel}: uncond {uncond[channel]:.4f} !< zerotext {zerotext[channel]:.4f}"
            )
        rows = " | ".join(
            f"{ch}: {cond[ch]:.4f} < {uncond[ch]:.4f} < {zerotext[ch]:.4f}" for ch in cond
        )
        print(f"\n[criterion 10] PASS: JS ordering cond < no-style < no-text per channel ({rows})")


class TestCriterion11Reproducibility:
    TINY = {
        "seed": 5,
        "corpus": {"style_count": 2, "utterances_per_style": 8, "length_range": [5, 7], "vocab_size": 12},
        "denoiser": {
            "residual_layers": 2,
            "dilation_cycle": [1, 2],
            "hidden_channels": 6,
            "time_embedding_dim": 8,
            "condition_dim": 6,
        },
        "style": {
            "token_count": 3,
            "token_dim": 8,
            "attention_heads": 2,
            "ref_channels": 4,
        },
        "schedule": {"steps": 12},
        "train": {"steps": 10, "batch_size": 4, "log_every": 5, "checkpoint_every": 0},
    }

    def test_every_command_rerun_is_bit_exact(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.TINY))

        assert cli_main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d1")]) == 0
        archived = tmp_path / "d1" / "resolved_config.json"
        assert cli_main(["gen-data", "--config", str(archived), "--out", str(tmp_path / "d2")]) == 0
        for name in ("corpus/manifest.json", "corpus/utt_00000.csv", "corpus/utt_00015.csv"):
            assert (tmp_path / "d1" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes(), name

        corpus = str(tmp_path / "d1" / "corpus")
        assert cli_main(["train", "--config", str(archived), "--corpus", corpus, "--out", str(tmp_path / "m1"), "--quiet"]) == 0
        trained_cfg = tmp_path / "m1" / "resolved_config.json"
        assert cli_main(["train", "--config", str(trained_cfg), "--corpus", corpus, "--out", str(tmp_path / "m2"), "--quiet"]) == 0
        for name in ("final.bin", "loss.csv"):
            assert (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m2" / name).read_bytes(), name

        sample_args = [
            "--corpus", corpus, "--num-samples", "3", "--seed", "9",
            "--mode", "control", "--token-id", "1", "--diagnostics",
        ]
        assert cli_main(["sample", "--checkpoint", str(tmp_path / "m1" / "final.bin"), "--out", str(tmp_path / "s1"), *sample_args]) == 0
        assert cli_main(["sample", "--checkpoint", str(tmp_path / "m2" / "final.bin"), "--out", str(tmp_path / "s2"), *sample_args]) == 0
        s1 = sorted((tmp_path / "s1" / "samples").glob("*.csv"))
        s2 = sorted((tmp_path / "s2" / "samples").glob("*.csv"))
        assert s1 and [f.name for f in s1] == [f.name for f in s2]
        for fa, fb in zip(s1, s2):
            assert fa.read_bytes() == fb.read_bytes(), fa.name
        assert (tmp_path / "s1" / "diagnostics.csv").read_bytes() == (tmp_path / "s2" / "diagnostics.csv").read_bytes()

        eval_args = ["--corpus", corpus, "--seed", "3", "--eta-sweep", "1,3", "--sweep-utterances", "4", "--charts"]
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "m1" / "final.bin"), "--out", str(tmp_path / "e1"), *eval_args]) == 0
        assert cli_main(["eval", "--checkpoint", str(tmp_path / "m1" / "final.bin"), "--out", str(tmp_path / "e2"), *eval_args]) == 0
        for name in ("report.csv", "cv_sweep.csv", "charts/js_divergence.svg", "charts/cv_sweep.svg"):
            assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes(), name

        print("\n[criterion 11] PASS: gen-data/train/sample/eval reruns from archived configs are bit-exact")
