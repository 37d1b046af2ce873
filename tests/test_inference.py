from dataclasses import replace

import numpy as np
import pytest

from prosodiff import inference
from prosodiff.config import RunConfig, ScheduleSettings
from prosodiff.corpus import CorpusConfig, generate_corpus
from prosodiff.denoiser import DenoiserConfig
from prosodiff.guidance import GuidanceParams
from prosodiff.schedule import cosine_schedule
from prosodiff.style import StyleConfig
from prosodiff.training import TrainConfig, build_models, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def setup():
    run = RunConfig(
        seed=2,
        corpus=CorpusConfig(style_count=2, utterances_per_style=8, length_range=(5, 7), vocab_size=12),
        denoiser=DenoiserConfig(
            residual_layers=2, dilation_cycle=(1, 2), hidden_channels=6, time_embedding_dim=8, condition_dim=6
        ),
        style=StyleConfig(token_count=3, token_dim=8, attention_heads=2, ref_channels=4),
        train=TrainConfig(steps=4, batch_size=4, checkpoint_every=0),
    )
    run.schedule = ScheduleSettings(steps=12)
    corpus = generate_corpus(run.corpus, run.seed)
    bundle = inference.bundle_from_config(run, corpus)
    return run, corpus, bundle


class TestGenerate:
    def test_one_sequence_per_text_with_matching_lengths(self, setup):
        _, corpus, bundle = setup
        val = corpus.split("val")
        texts = [u.phoneme_ids for u in val[:4]]
        out = inference.generate(bundle, texts, None, GuidanceParams(), seed=1)
        assert len(out) == 4
        for ids, x in zip(texts, out):
            assert x.shape == (3, len(ids))

    def test_conditions_length_checked(self, setup):
        _, corpus, bundle = setup
        texts = [corpus.utterances[0].phoneme_ids]
        with pytest.raises(ValueError):
            inference.generate(bundle, texts, [], GuidanceParams(), seed=1)

    def test_same_request_bitwise_reproducible(self, setup):
        _, corpus, bundle = setup
        utts = corpus.utterances[:5]
        texts = [u.phoneme_ids for u in utts]
        conds = inference.style_conditions(bundle, [u.prosody for u in utts])
        out1 = inference.generate(bundle, texts, conds, GuidanceParams(), seed=3)
        out2 = inference.generate(bundle, texts, conds, GuidanceParams(), seed=3)
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)

    def test_reconstruct_is_denormalized_generate(self, setup):
        _, corpus, bundle = setup
        val = corpus.split("val")[:3]
        out = inference.reconstruct(bundle, val, GuidanceParams(), seed=5)
        conds = inference.style_conditions(bundle, [u.prosody for u in val])
        raw = inference.generate(
            bundle, [u.phoneme_ids for u in val], conds, GuidanceParams(), seed=5
        )
        for a, b in zip(out, raw):
            assert np.array_equal(a, bundle.stats.denormalize(b))


class TestBundleFromConfig:
    def test_schedule_uses_configured_offset(self, setup):
        run, corpus, _ = setup
        shifted = replace(run, schedule=ScheduleSettings(steps=12, offset=0.05))
        bundle = inference.bundle_from_config(shifted, corpus)
        assert np.array_equal(bundle.schedule.betas, cosine_schedule(12, 0.05).betas)
        assert not np.array_equal(bundle.schedule.betas, cosine_schedule(12).betas)


class TestLoadTrained:
    def test_round_trip_through_archive(self, setup, tmp_path):
        run, corpus, bundle = setup
        run.save(tmp_path / "resolved_config.json")
        save_checkpoint(bundle, 4, tmp_path / "final.bin")
        run2 = inference.archived_config(tmp_path / "final.bin")
        loaded = inference.bundle_from_config(run2, corpus)
        step = load_checkpoint(loaded, tmp_path / "final.bin")
        assert step == 4
        assert run2.seed == run.seed
        a = loaded.denoisers.params["output_proj.weight"].data
        b = bundle.denoisers.params["output_proj.weight"].data
        assert np.array_equal(a, b)

    def test_missing_config_rejected(self, setup, tmp_path):
        run, corpus, bundle = setup
        save_checkpoint(bundle, 4, tmp_path / "final.bin")
        with pytest.raises(FileNotFoundError):
            inference.archived_config(tmp_path / "final.bin")


class TestStyleConditions:
    def test_shapes_and_determinism(self, setup):
        _, corpus, bundle = setup
        refs = [corpus.utterances[0].prosody, corpus.utterances[1].prosody]
        a = inference.style_conditions(bundle, refs)
        b = inference.style_conditions(bundle, refs)
        assert len(a) == 2
        assert a[0].shape == (6,)
        assert np.array_equal(a[0], b[0])

    def test_token_weights_simplex(self, setup):
        _, corpus, bundle = setup
        w = inference.token_weights_of(bundle, corpus.utterances[0].prosody)
        assert w.shape == (3,)
        assert np.all(w >= 0) and abs(w.sum() - 1.0) < 1e-9
