import csv

import numpy as np
import pytest

from prosodiff import rng as rng_mod
from prosodiff.checkpoint import CheckpointError
from prosodiff.corpus import CorpusConfig, generate_corpus
from prosodiff.denoiser import DenoiserConfig, predict_noise
from prosodiff.schedule import cosine_schedule
from prosodiff.style import StyleConfig
from prosodiff.training import (
    LengthBucketSampler,
    TrainConfig,
    build_models,
    load_checkpoint,
    save_checkpoint,
    train,
)

TINY_DENOISER = DenoiserConfig(
    residual_layers=2,
    dilation_cycle=(1, 2),
    hidden_channels=6,
    time_embedding_dim=8,
    condition_dim=6,
)
TINY_STYLE = StyleConfig(token_count=3, token_dim=8, attention_heads=2, condition_dim=6, ref_channels=4)
TINY_CORPUS = CorpusConfig(style_count=2, utterances_per_style=10, length_range=(5, 7), vocab_size=12)


def tiny_setup(seed=3):
    corpus = generate_corpus(TINY_CORPUS, seed=seed)
    bundle = build_models(TINY_DENOISER, TINY_STYLE, cosine_schedule(12), 12, corpus.stats, seed=seed)
    return corpus, bundle


class TestTrainLoop:
    def test_loss_csv_monotone_steps_and_decreasing_loss(self, tmp_path):
        corpus, bundle = tiny_setup()
        cfg = TrainConfig(steps=60, batch_size=4, log_every=10, checkpoint_every=0)
        train(bundle, corpus, cfg, tmp_path)
        with open(tmp_path / "loss.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss_c", "loss_nc"]
        steps = [int(r[0]) for r in rows[1:]]
        assert steps == sorted(steps)
        first, last = float(rows[1][1]), float(rows[-1][1])
        assert last < first

    def test_periodic_checkpoints_written(self, tmp_path):
        corpus, bundle = tiny_setup()
        cfg = TrainConfig(steps=20, batch_size=4, log_every=10, checkpoint_every=10)
        final = train(bundle, corpus, cfg, tmp_path)
        assert (tmp_path / "ckpt_000010.bin").exists()
        assert final.exists()

    def test_training_deterministic_under_seed(self, tmp_path):
        def run(where):
            corpus, bundle = tiny_setup(seed=9)
            cfg = TrainConfig(steps=15, batch_size=4, log_every=5, checkpoint_every=0)
            final = train(bundle, corpus, cfg, tmp_path / where)
            return (tmp_path / where / "loss.csv").read_bytes(), final.read_bytes()

        loss_a, ckpt_a = run("a")
        loss_b, ckpt_b = run("b")
        assert loss_a == loss_b
        assert ckpt_a == ckpt_b


class TestCheckpointRoundTrip:
    def test_model_state_restores_exactly(self, tmp_path):
        corpus, bundle = tiny_setup()
        cfg = TrainConfig(steps=8, batch_size=4, log_every=4, checkpoint_every=0)
        final = train(bundle, corpus, cfg, tmp_path)

        corpus2, bundle2 = tiny_setup()
        step = load_checkpoint(bundle2, final)
        assert step == 8
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 5))
        y = rng.standard_normal((5, 6))
        c = rng.standard_normal(6)
        a = predict_noise(bundle.theta1, x, 3, y, c).data
        b = predict_noise(bundle2.theta1, x, 3, y, c).data
        assert np.array_equal(a, b)
        for p1, p2 in zip(bundle.trainable_parameters(), bundle2.trainable_parameters()):
            assert np.array_equal(bundle.adam.moment1[p1], bundle2.adam.moment1[p2])
        assert bundle.adam.step_counter == bundle2.adam.step_counter == 8

    def test_resume_continues_step_counter(self, tmp_path):
        corpus, bundle = tiny_setup()
        cfg = TrainConfig(steps=6, batch_size=4, log_every=2, checkpoint_every=0)
        final = train(bundle, corpus, cfg, tmp_path / "first")

        corpus2, bundle2 = tiny_setup()
        start = load_checkpoint(bundle2, final)
        cfg2 = TrainConfig(steps=10, batch_size=4, log_every=2, checkpoint_every=0)
        train(bundle2, corpus2, cfg2, tmp_path / "second", start_step=start)
        with open(tmp_path / "second" / "loss.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        steps = [int(r[0]) for r in rows]
        assert all(s > 6 for s in steps)  # continues after step 6
        assert steps[-1] == 10

    def test_shape_mismatch_detected(self, tmp_path):
        corpus, bundle = tiny_setup()
        save_checkpoint(bundle, 1, tmp_path / "state.bin")
        other = build_models(
            DenoiserConfig(
                residual_layers=3,
                dilation_cycle=(1,),
                hidden_channels=6,
                time_embedding_dim=8,
                condition_dim=6,
            ),
            TINY_STYLE,
            cosine_schedule(12),
            12,
            corpus.stats,
            seed=0,
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(other, tmp_path / "state.bin")

    def test_stats_travel_with_checkpoint(self, tmp_path):
        corpus, bundle = tiny_setup()
        save_checkpoint(bundle, 0, tmp_path / "state.bin")
        corpus2, bundle2 = tiny_setup(seed=4)  # different stats
        load_checkpoint(bundle2, tmp_path / "state.bin")
        assert np.array_equal(bundle2.stats.mean, bundle.stats.mean)
        assert np.array_equal(bundle2.stats.std, bundle.stats.std)


class TestBatchSampler:
    def test_batches_are_length_homogeneous(self):
        corpus, bundle = tiny_setup()
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 6)
        for step in range(1, 20):
            batch = sampler.next_batch(rng_mod.substream(0, rng_mod.TRAIN_STREAM, step))
            assert batch.x0.shape[0] == 6
            assert batch.x0.shape[2] == batch.phoneme_ids.shape[1]
            assert batch.y.shape == (*batch.phoneme_ids.shape, 6)

    def test_normalization_applied(self):
        corpus, bundle = tiny_setup()
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 4)
        batch = sampler.next_batch(rng_mod.substream(0, rng_mod.TRAIN_STREAM, 1))
        assert np.all(np.abs(batch.x0) < 10)  # standardized scale, not raw energy ~65

    def test_empty_split_rejected(self):
        corpus, bundle = tiny_setup()
        with pytest.raises(ValueError):
            LengthBucketSampler([], bundle.stats, bundle.embedder, 4)
