import io
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from prosodiff import guidance, inference, parallel, rng as rng_mod
from prosodiff.checkpoint import load_entries
from prosodiff.config import RunConfig, ScheduleSettings
from prosodiff.corpus import CorpusConfig, generate_corpus
from prosodiff.denoiser import DenoiserConfig, predict_noise
from prosodiff.guidance import GuidanceParams, rescale, sample
from prosodiff.schedule import cosine_schedule
from prosodiff.style import StyleConfig
from prosodiff.training import LengthBucketSampler, TrainConfig, build_models, load_checkpoint, save_checkpoint

from helpers import assert_no_child_process


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
    bundle = build_models(run, corpus.stats)
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

    @pytest.mark.parametrize("lengths", [(0,), (5, 0), (0, 5)])
    def test_empty_text_rejected(self, setup, lengths):
        _, _, bundle = setup
        texts = [np.zeros(n, dtype=np.int64) for n in lengths]
        with pytest.raises(ValueError, match=f"text {lengths.index(0)} is empty"):
            inference.generate(bundle, texts, None, GuidanceParams(eta=2.0), seed=1)

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


@pytest.fixture(scope="module")
def random_bundle(setup):
    """The setup architecture with every denoiser parameter drawn at random,
    so biases, null vectors and passthrough gates all take part."""
    run, corpus, _ = setup
    bundle = build_models(run, corpus.stats)
    rng = np.random.default_rng(11)
    for p in bundle.denoisers.params.values():
        p.data[...] = 0.1 * rng.standard_normal(p.shape)
    return bundle


def random_texts(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 12, size=n) for n in lengths]


def per_length_reference(bundle, texts, conditions, params, seed):
    """generate() written as one unpadded sample() per length group, each
    drawing from its length's substream."""
    out = [None] * len(texts)
    for length in sorted({len(ids) for ids in texts}):
        rows = [i for i, ids in enumerate(texts) if len(ids) == length]
        y = bundle.embedder.embed(np.stack([texts[i] for i in rows]))
        c = None if conditions is None else np.stack([conditions[i] for i in rows])
        gen = rng_mod.substream(seed, rng_mod.SAMPLE_STREAM, length)
        batch = sample(bundle.denoisers, bundle.schedule, y, c, params, gen)
        for row, i in enumerate(rows):
            out[i] = batch[row]
    return out


MIXED_LENGTHS = (5, 9, 6, 5, 12, 9, 7, 5)


class TestChains:
    """generate packs whole length groups into padded, masked chains; each
    text's draws stay those of its own length group."""

    @pytest.mark.parametrize("eta, conditional", [(2.0, True), (1.0, True), (0.0, True), (2.0, False)])
    def test_matches_per_length_reference(self, random_bundle, eta, conditional):
        texts = random_texts(MIXED_LENGTHS)
        conds = list(np.random.default_rng(1).standard_normal((len(texts), 6))) if conditional else None
        params = GuidanceParams(eta=eta, gamma=0.7)
        got = inference.generate(random_bundle, texts, conds, params, seed=4)
        want = per_length_reference(random_bundle, texts, conds, params, seed=4)
        for ids, a, b in zip(texts, got, want):
            assert a.shape == b.shape == (3, len(ids))
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_result_does_not_depend_on_other_lengths_in_the_request(self, random_bundle):
        texts = random_texts(MIXED_LENGTHS)
        conds = list(np.random.default_rng(1).standard_normal((len(texts), 6)))
        params = GuidanceParams(eta=2.0)
        full = inference.generate(random_bundle, texts, conds, params, seed=4)
        kept = [i for i, ids in enumerate(texts) if len(ids) in (5, 9)]  # whole groups only
        extra = random_texts((8, 8, 3), seed=2)
        sub_texts = [texts[i] for i in kept] + extra
        sub_conds = [conds[i] for i in kept] + list(np.random.default_rng(3).standard_normal((3, 6)))
        sub = inference.generate(random_bundle, sub_texts, sub_conds, params, seed=4)
        for j, i in enumerate(kept):
            np.testing.assert_allclose(sub[j], full[i], rtol=1e-12, atol=1e-12)

    def test_chain_rows(self, random_bundle, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spy sees only this process's calls
        chains = []

        def spy(denoisers, schedule, y, *args):
            chains.append(y.shape[0])
            return sample(denoisers, schedule, y, *args)

        monkeypatch.setattr(inference, "sample", spy)
        inference.generate(random_bundle, random_texts(MIXED_LENGTHS), None, GuidanceParams(), seed=4)
        assert chains == [8]
        chains.clear()
        # the 17 rows of length 5 exceed CHAIN_ROWS, so they run alone
        texts = random_texts((4, 4) + (5,) * 17 + (6, 6, 6))
        inference.generate(random_bundle, texts, None, GuidanceParams(), seed=4)
        assert inference.CHAIN_ROWS == 16
        assert chains == [2, 17, 3]

    def test_single_length_chain_runs_masked(self, random_bundle, monkeypatch):
        masks, lengths = [], []

        def predict_spy(model, x, t, y, c, mask=None):
            masks.append(mask)
            return predict_noise(model, x, t, y, c, mask)

        def rescale_spy(combined, eps_c, gamma, row_lengths=None):
            lengths.append(row_lengths)
            return rescale(combined, eps_c, gamma, row_lengths)

        monkeypatch.setattr(guidance, "predict_noise", predict_spy)
        monkeypatch.setattr(guidance, "rescale", rescale_spy)
        texts = random_texts((6, 6, 6))
        conds = list(np.random.default_rng(1).standard_normal((3, 6)))
        inference.generate(random_bundle, texts, conds, GuidanceParams(eta=2.0), seed=4)
        assert len(masks) == len(lengths) == random_bundle.schedule.step_count
        for mask, row_lengths in zip(masks, lengths):
            assert mask is not None and mask.shape == (3, 1, 6) and np.all(mask == 1.0)
            assert row_lengths is not None and list(row_lengths) == [6, 6, 6]

    def test_padded_positions_stay_zero(self, random_bundle):
        ids = np.zeros((2, 7), dtype=np.int64)
        ids[0, :4], ids[1] = random_texts((4, 7))
        noise = inference.ChainNoise([(np.random.default_rng(5), 1, 4), (np.random.default_rng(6), 1, 7)])
        c = np.random.default_rng(1).standard_normal((2, 6))
        out = sample(
            random_bundle.denoisers, random_bundle.schedule, random_bundle.embedder.embed(ids), c,
            GuidanceParams(eta=2.0), noise, lengths=np.array([4, 7]),
        )
        assert not np.any(out[0, :, 4:]) and np.all(out[0, :, :4] != 0)

    def test_empty_request(self, random_bundle):
        assert inference.generate(random_bundle, [], None, GuidanceParams(), seed=4) == []
        assert inference.generate(random_bundle, [], [], GuidanceParams(), seed=4) == []


# three chains: [4] (10 rows x 4), [5] (10 x 5) and [6, 7] (13 x 7). Over three
# shares this process runs the [6, 7] chain and the children the other two.
THREE_CHAIN_LENGTHS = (4,) * 10 + (5,) * 10 + (6,) * 10 + (7,) * 3


class ChainFailed(Exception):
    pass


class TestShares:
    """generate runs a request's chains in shares, one per usable CPU: this
    process runs share 0 and a forked child each other share."""

    def test_balanced_shares(self):
        # largest first, each to the least-loaded share; equal costs keep chain order
        assert inference._balanced_shares([5, 9, 9, 2, 7], 2) == [[1, 4], [0, 2, 3]]
        assert inference._balanced_shares([3, 1], 4) == [[0], [1]]
        assert inference._balanced_shares([3, 1], 1) == [[0, 1]]
        assert inference._balanced_shares([], 3) == [[]]

    def test_outputs_do_not_depend_on_share_count(self, random_bundle, monkeypatch, tmp_path):
        texts = random_texts(THREE_CHAIN_LENGTHS)
        conds = list(np.random.default_rng(1).standard_normal((len(texts), 6)))
        pids = tmp_path / "pids"

        def spy(denoisers, schedule, y, *args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return sample(denoisers, schedule, y, *args)

        monkeypatch.setattr(inference, "sample", spy)
        runs = []
        for cpus in (1, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            pids.write_text("")
            diagnostics = []
            samples = inference.generate(random_bundle, texts, conds, GuidanceParams(eta=2.0), 4, diagnostics)
            runs.append((samples, diagnostics, len(set(pids.read_text().split()))))
            assert_no_child_process()
        (samples1, diagnostics1, processes1), (samples3, diagnostics3, processes3) = runs
        assert (processes1, processes3) == (1, 3)
        assert all(np.array_equal(a, b) for a, b in zip(samples1, samples3))
        assert len(diagnostics1) == len(diagnostics3) == 3 * random_bundle.schedule.step_count
        for (t1, rows1, d1), (t3, rows3, d3) in zip(diagnostics1, diagnostics3):
            assert (t1, rows1) == (t3, rows3)
            for name in ("sigma_cond", "sigma_cfg", "applied_ratio"):
                assert np.array_equal(getattr(d1, name), getattr(d3, name))

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_chain_failure_raises_its_own_type(self, random_bundle, monkeypatch, where):
        failing = 4 if where == "child" else 7  # the padded length of the failing chain

        def spy(denoisers, schedule, y, *args):
            if y.shape[1] == failing:
                raise ChainFailed(f"chain of length {failing}")
            return sample(denoisers, schedule, y, *args)

        monkeypatch.setattr(inference, "sample", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        with pytest.raises(ChainFailed, match=f"chain of length {failing}"):
            inference.generate(random_bundle, random_texts(THREE_CHAIN_LENGTHS), None, GuidanceParams(eta=2.0), 4)
        assert_no_child_process()

    def test_interrupt_in_this_process_ends_the_children(self, random_bundle, monkeypatch):
        parent = os.getpid()

        def spy(denoisers, schedule, y, *args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)  # a child still sampling when this process stops

        monkeypatch.setattr(inference, "sample", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            inference.generate(random_bundle, random_texts(THREE_CHAIN_LENGTHS), None, GuidanceParams(), 4)
        assert time.perf_counter() - start < 15
        assert_no_child_process()

    def test_child_ending_without_a_result(self, random_bundle, monkeypatch):
        parent = os.getpid()

        def spy(denoisers, schedule, y, *args):
            if os.getpid() != parent:
                os._exit(3)
            return sample(denoisers, schedule, y, *args)

        monkeypatch.setattr(inference, "sample", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        with pytest.raises(ChildProcessError, match="exit code 3"):
            inference.generate(random_bundle, random_texts(THREE_CHAIN_LENGTHS), None, GuidanceParams(), 4)
        assert_no_child_process()

    def test_unflushed_output_written_once(self, random_bundle, monkeypatch, capfd):
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")))  # buffered, unlike capture's own
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        try:
            print("printed before generate")
            inference.generate(random_bundle, random_texts(THREE_CHAIN_LENGTHS), None, GuidanceParams(), 4)
        finally:
            stdout.close()
        assert capfd.readouterr().out == "printed before generate\n"
        assert_no_child_process()


class TestBuildModels:
    def test_schedule_uses_configured_offset(self, setup):
        run, corpus, _ = setup
        shifted = replace(run, schedule=ScheduleSettings(steps=12, offset=0.05))
        bundle = build_models(shifted, corpus.stats)
        assert np.array_equal(bundle.schedule.betas, cosine_schedule(12, 0.05).betas)
        assert not np.array_equal(bundle.schedule.betas, cosine_schedule(12).betas)


class TestTextAblation:
    """A run with train.text_condition false gets an embedder that embeds
    every text as zeros, for training batches and sampling alike."""

    @pytest.fixture
    def ablated(self, setup, tmp_path):
        run, corpus, bundle = setup
        ablated_run = replace(run, train=replace(run.train, text_condition=False))
        save_checkpoint(bundle, 4, tmp_path / "conditioned.bin")
        ablated = build_models(ablated_run, corpus.stats)
        load_checkpoint(ablated, tmp_path / "conditioned.bin")  # the conditioned bundle's weights
        return ablated

    def test_training_batches_have_zero_text(self, setup, ablated):
        _, corpus, _ = setup
        sampler = LengthBucketSampler(corpus.split("train"), ablated.stats, ablated.embedder, batch_size=4)
        for step in range(1, 6):
            batch = sampler.next_batch(np.random.default_rng(step))
            assert batch.y.shape == (4, batch.x0.shape[2], 6)
            assert not np.any(batch.y)

    @pytest.mark.parametrize("eta", [0.0, 1.0, 2.0])
    def test_generate_equals_zero_text_on_conditioned_weights(self, setup, ablated, eta, monkeypatch):
        _, corpus, bundle = setup
        utts = corpus.utterances[:6]
        texts = [u.phoneme_ids for u in utts]
        conds = inference.style_conditions(bundle, [u.prosody for u in utts])
        params = GuidanceParams(eta=eta)
        with_text = inference.generate(bundle, texts, conds, params, seed=7)
        with monkeypatch.context() as patch:
            patch.setattr(bundle.embedder, "embed", lambda ids: np.zeros(np.shape(ids) + (bundle.embedder.dim,)))
            expected = inference.generate(bundle, texts, conds, params, seed=7)
        got = inference.generate(ablated, texts, conds, params, seed=7)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)
        assert not all(np.array_equal(a, b) for a, b in zip(with_text, expected))

    def test_checkpoint_keeps_the_embedder_table(self, setup, ablated, tmp_path):
        _, _, bundle = setup
        save_checkpoint(ablated, 4, tmp_path / "ablated.bin")
        assert np.array_equal(load_entries(tmp_path / "ablated.bin")["embedder.table"], bundle.embedder.table)


class TestLoadTrained:
    def test_round_trip_through_archive(self, setup, tmp_path):
        run, corpus, bundle = setup
        run.save(tmp_path / "resolved_config.json")
        save_checkpoint(bundle, 4, tmp_path / "final.bin")
        run2 = inference.archived_config(tmp_path / "final.bin")
        loaded = build_models(run2, corpus.stats)
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
