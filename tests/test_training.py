import csv
import io
import json
import os
import re
import shutil
import sys
import time

import numpy as np
import pytest

from prosodiff import cli, parallel, training
from prosodiff import rng as rng_mod
from prosodiff.checkpoint import CheckpointError, load_entries, save_entries
from prosodiff.corpus import CorpusConfig, NormStats, generate_corpus, save_corpus
from prosodiff.denoiser import Denoiser, DenoiserConfig, predict_noise
from prosodiff.guidance import diffusion_loss
from prosodiff.style import StyleBank, StyleConfig, encode_style
from prosodiff.training import (
    LengthBucketSampler,
    TrainConfig,
    build_models,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)

from helpers import assert_no_child_process, run_config

TINY_DENOISER = DenoiserConfig(
    residual_layers=2,
    dilation_cycle=(1, 2),
    hidden_channels=6,
    time_embedding_dim=8,
    condition_dim=6,
)
TINY_STYLE = StyleConfig(token_count=3, token_dim=8, attention_heads=2, ref_channels=4)
TINY_CORPUS = CorpusConfig(style_count=2, utterances_per_style=10, length_range=(5, 7), vocab_size=12)


def tiny_setup(seed=3, style_condition=True):
    corpus = generate_corpus(TINY_CORPUS, seed=seed)
    run = run_config(TINY_DENOISER, TINY_STYLE, 12, seed, corpus=TINY_CORPUS, style_condition=style_condition)
    bundle = build_models(run, corpus.stats)
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
        a = predict_noise(bundle.denoisers.member(0), x, 3, y, c).data
        b = predict_noise(bundle2.denoisers.member(0), x, 3, y, c).data
        assert np.array_equal(a, b)
        for name in bundle.named_parameters():
            assert np.array_equal(bundle.adam.moment1[name], bundle2.adam.moment1[name])
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
        other_denoiser = DenoiserConfig(
            residual_layers=3,
            dilation_cycle=(1,),
            hidden_channels=6,
            time_embedding_dim=8,
            condition_dim=6,
        )
        other = build_models(run_config(other_denoiser, TINY_STYLE, 12, 0, corpus=TINY_CORPUS), corpus.stats)
        with pytest.raises(CheckpointError):
            load_checkpoint(other, tmp_path / "state.bin")

    def test_extra_entry_rejected(self, tmp_path):
        _, bundle = tiny_setup()
        save_checkpoint(bundle, 1, tmp_path / "state.bin")
        entries = load_entries(tmp_path / "state.bin")
        entries["denoisers.layers.9.conv.weight"] = np.zeros((2, 6, 6, 3))
        save_entries(tmp_path / "extra.bin", entries)
        with pytest.raises(CheckpointError, match=r"extra\.bin: .*denoisers\.layers\.9\.conv\.weight"):
            load_checkpoint(bundle, tmp_path / "extra.bin")

    @pytest.mark.parametrize("key", ["trainer.step", "optim.step_counter"])
    @pytest.mark.parametrize("value", [2.5, -4.0, -1.0])
    def test_step_that_is_not_a_count_rejected(self, tmp_path, key, value):
        _, bundle = tiny_setup()
        save_checkpoint(bundle, 3, tmp_path / "state.bin")
        entries = load_entries(tmp_path / "state.bin")
        entries[key] = np.array(value)
        save_entries(tmp_path / "bad.bin", entries)
        with pytest.raises(CheckpointError, match=rf"bad\.bin: {re.escape(key)} must be a non-negative integer"):
            load_checkpoint(bundle, tmp_path / "bad.bin")

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_std_below_the_standardising_bound_rejected(self, tmp_path, value):
        _, bundle = tiny_setup()
        save_checkpoint(bundle, 3, tmp_path / "state.bin")
        entries = load_entries(tmp_path / "state.bin")
        entries["norm.std"][1] = value
        save_entries(tmp_path / "bad.bin", entries)
        with pytest.raises(CheckpointError, match=r"bad\.bin: norm\.std must be at least 1e-12"):
            load_checkpoint(bundle, tmp_path / "bad.bin")

    def test_entries_name_each_parameter_once_in_its_shape(self, tmp_path):
        corpus, bundle = tiny_setup()
        save_checkpoint(bundle, 1, tmp_path / "state.bin")
        saved = load_entries(tmp_path / "state.bin")
        params = bundle.named_parameters()
        moments = {f"{moment}.{name}" for name in params for moment in ("moment1", "moment2")}
        extras = {"trainer.step", "optim.step_counter", "norm.mean", "norm.std", "embedder.table"}
        assert set(saved) == set(params) | moments | extras
        for name, p in params.items():
            assert saved[name].shape == saved[f"moment1.{name}"].shape == saved[f"moment2.{name}"].shape == p.shape

    def test_stats_travel_with_checkpoint(self, tmp_path):
        corpus, bundle = tiny_setup()
        save_checkpoint(bundle, 0, tmp_path / "state.bin")
        corpus2, bundle2 = tiny_setup(seed=4)  # different stats
        own_mean, own_std = corpus2.stats.mean.copy(), corpus2.stats.std.copy()
        load_checkpoint(bundle2, tmp_path / "state.bin")
        assert np.array_equal(bundle2.stats.mean, bundle.stats.mean)
        assert np.array_equal(bundle2.stats.std, bundle.stats.std)
        # the corpus the bundle was built for keeps its own statistics
        assert not np.array_equal(own_mean, bundle.stats.mean)
        assert np.array_equal(corpus2.stats.mean, own_mean)
        assert np.array_equal(corpus2.stats.std, own_std)


class TestTrainableParameters:
    def test_default_config_updates_every_live_tensor_in_checkpoint_order(self):
        stats = NormStats(np.zeros(3), np.ones(3))
        bundle = build_models(run_config(DenoiserConfig(), StyleConfig(), 4, 0), stats)
        theta1, theta2 = ([name for name, _ in bundle.member(i).trainable_parameters()] for i in (0, 1))
        denoiser = [name for name in bundle.named_parameters() if name.startswith("denoisers.")]
        # 105 denoiser tensors per member and 10 bank tensors; theta1 takes the style vector in place of its null vector
        assert len(denoiser) == 105 and len(theta1) == 114
        assert theta1 == [name for name in bundle.named_parameters() if name != "denoisers.null_condition"]
        assert theta2 == denoiser
        for index in (0, 1):
            member = bundle.member(index).trainable_parameters()
            assert all(p.shape[0] == 1 for name, p in member if name.startswith("denoisers."))
        assert set(bundle.adam.moment1) == set(bundle.adam.moment2) == set(bundle.named_parameters())

    def test_unstyled_run_leaves_the_bank_out(self):
        stats = NormStats(np.zeros(3), np.ones(3))
        run = run_config(TINY_DENOISER, TINY_STYLE, 12, 0, corpus=TINY_CORPUS, style_condition=False)
        bundle = build_models(run, stats)
        for index in (0, 1):
            names = [name for name, _ in bundle.member(index).trainable_parameters()]
            assert "denoisers.null_condition" in names
            assert not [n for n in names if n.startswith("bank.")]
            assert len(names) == len(bundle.named_parameters()) - len(bundle.bank.params)


class TwoModelReference:
    """Training as two separate models: theta1 and theta2 are stand-alone
    one-member Denoisers drawn from the same init substreams as the stacked
    members, each loss gets its own forward and backward pass, and Adam runs
    per parameter with its own flat moments."""

    def __init__(self, seed: int, style_condition: bool, schedule):
        init = [rng_mod.substream(seed, rng_mod.INIT_STREAM, i) for i in range(3)]
        self.theta1 = Denoiser(TINY_DENOISER, style_condition, init[0])
        self.theta2 = Denoiser(TINY_DENOISER, False, init[1])
        self.bank = StyleBank(TINY_STYLE, TINY_DENOISER.condition_dim, init[2])
        self.schedule = schedule
        groups = (("theta1", self.theta1), ("theta2", self.theta2), ("bank", self.bank))
        self.params = {f"{prefix}.{name}": p for prefix, model in groups for name, p in model.params.items()}
        dead = "theta1.null_condition" if style_condition else "bank."
        self.trainable = [name for name in self.params if not name.startswith(dead)]
        self.moment1 = {name: np.zeros(p.size) for name, p in self.params.items()}
        self.moment2 = {name: np.zeros(p.size) for name, p in self.params.items()}
        self.steps = 0

    def step(self, batch, cfg: TrainConfig, gen, step: int) -> tuple[float, float]:
        t = gen.integers(1, self.schedule.step_count + 1, size=batch.x0.shape[0])
        eps = gen.standard_normal(batch.x0.shape)
        c = encode_style(self.bank, batch.x0)[0] if self.theta1.accepts_style else None
        (loss_c,) = diffusion_loss(self.theta1, self.schedule, batch.x0, t, eps, batch.y, c)
        (loss_nc,) = diffusion_loss(self.theta2, self.schedule, batch.x0, t, eps, batch.y)
        loss_c.backward()
        loss_nc.backward()
        self.steps += 1
        rate = cfg.rate_at(step)
        beta1, beta2, epsilon = 0.9, 0.999, 1e-8
        for name in self.trainable:
            p = self.params[name]
            g = p.grad.reshape(-1)
            m = self.moment1[name] = beta1 * self.moment1[name] + (1.0 - beta1) * g
            v = self.moment2[name] = beta2 * self.moment2[name] + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**self.steps)
            v_hat = v / (1.0 - beta2**self.steps)
            p.data = p.data - (rate * m_hat / (np.sqrt(v_hat) + epsilon)).reshape(p.shape)
            p.grad = None
        return loss_c.item(), loss_nc.item()

    def entries(self) -> dict[str, list[np.ndarray]]:
        """Per checkpoint entry, the reference arrays it stacks along its
        leading axis: theta1's then theta2's for denoisers.*, the bank's own
        for bank.*; moments in their parameter's shape."""
        out: dict[str, list[np.ndarray]] = {}
        for name, p in self.params.items():
            group, leaf = name.split(".", 1)
            key = name if group == "bank" else f"denoisers.{leaf}"
            out.setdefault(key, []).append(p.data)
            out.setdefault(f"moment1.{key}", []).append(self.moment1[name].reshape(p.shape))
            out.setdefault(f"moment2.{key}", []).append(self.moment2[name].reshape(p.shape))
        return out

    def assert_saved(self, saved: dict[str, np.ndarray]) -> None:
        """saved, a checkpoint's entries, holds this reference's parameters,
        moments and step count."""
        want = self.entries()
        extras = {"trainer.step", "optim.step_counter", "norm.mean", "norm.std", "embedder.table"}
        assert set(saved) - set(want) == extras
        for key, members in want.items():
            assert np.array_equal(saved[key], np.concatenate(members)), key
        assert saved["optim.step_counter"] == self.steps


class TestMemberTrainStep:
    @pytest.mark.parametrize("style_condition", [True, False], ids=["styled", "no-style-condition"])
    def test_matches_two_model_reference_bitwise(self, style_condition, tmp_path):
        seed = 3
        corpus, bundle = tiny_setup(seed, style_condition)
        reference = TwoModelReference(seed, style_condition, bundle.schedule)
        initial = {name: p.data.copy() for name, p in reference.params.items()}
        cfg = TrainConfig(steps=3, batch_size=4)
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, cfg.batch_size)
        members = (bundle.member(0), bundle.member(1))
        for step in range(1, cfg.steps + 1):
            got = []
            for member in members:
                gen = rng_mod.substream(seed, rng_mod.TRAIN_STREAM, step)
                got.append(train_step(member, sampler.next_batch(gen), cfg, gen, step))
            gen = rng_mod.substream(seed, rng_mod.TRAIN_STREAM, step)
            assert tuple(got) == reference.step(sampler.next_batch(gen), cfg, gen, step)
        assert members[0].adam.step_counter == members[1].adam.step_counter == cfg.steps

        bundle.adam.step_counter = members[0].adam.step_counter
        save_checkpoint(bundle, cfg.steps, tmp_path / "state.bin")
        saved = load_entries(tmp_path / "state.bin")
        reference.assert_saved(saved)
        if style_condition:  # theta1's null vector is dead weight: it and its moments stay as initialised
            assert np.array_equal(saved["denoisers.null_condition"][0], initial["theta1.null_condition"][0])
            for moment in ("moment1", "moment2"):
                assert not np.any(saved[f"{moment}.denoisers.null_condition"][0])
        else:  # the bank is dead weight
            for name in reference.bank.params:
                assert np.array_equal(saved[f"bank.{name}"], initial[f"bank.{name}"]), name


def run_files(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.fixture
def cli_inputs(tmp_path):
    """A saved TINY corpus and a 6-step config file for it, as train arguments."""
    corpus, _ = tiny_setup()
    save_corpus(corpus, tmp_path / "corpus")
    run = run_config(TINY_DENOISER, TINY_STYLE, 12, 3, corpus=TINY_CORPUS, steps=6, batch_size=4, log_every=2)
    run.save(tmp_path / "config.json")
    return ["--config", str(tmp_path / "config.json"), "--corpus", str(tmp_path / "corpus")]


class TestSplitTraining:
    """With two usable CPUs, theta2's loop runs in a forked child while this
    process trains theta1 and the bank; on one, both loops run here."""

    @pytest.mark.parametrize("style_condition", [True, False], ids=["styled", "no-style-condition"])
    def test_outputs_do_not_depend_on_cpu_count(self, style_condition, tmp_path, monkeypatch):
        cfg = TrainConfig(steps=9, batch_size=4, log_every=2, checkpoint_every=3)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            corpus, bundle = tiny_setup(style_condition=style_condition)
            train(bundle, corpus, cfg, tmp_path / f"run{cpus}")
            save_checkpoint(bundle, cfg.steps, tmp_path / f"returned{cpus}.bin")  # the returned bundle is whole
            # resumed from an intermediate checkpoint into a copy of the run's own directory
            shutil.copytree(tmp_path / f"run{cpus}", tmp_path / f"resumed{cpus}")
            corpus, resumed = tiny_setup(style_condition=style_condition)
            start = load_checkpoint(resumed, tmp_path / f"resumed{cpus}" / "ckpt_000003.bin")
            train(resumed, corpus, cfg, tmp_path / f"resumed{cpus}", start_step=start)
            runs.append((run_files(tmp_path / f"run{cpus}"), run_files(tmp_path / f"resumed{cpus}")))
            assert_no_child_process()
        (one, one_resumed), (two, two_resumed) = runs
        assert list(one) == ["ckpt_000003.bin", "ckpt_000006.bin", "final.bin", "loss.csv"]
        assert one == two == one_resumed == two_resumed
        assert (tmp_path / "returned1.bin").read_bytes() == (tmp_path / "returned2.bin").read_bytes() == one["final.bin"]

        corpus, bundle = tiny_setup(style_condition=style_condition)
        reference = TwoModelReference(3, style_condition, bundle.schedule)
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, cfg.batch_size)
        logged = []
        for step in range(1, cfg.steps + 1):
            gen = rng_mod.substream(3, rng_mod.TRAIN_STREAM, step)
            losses = reference.step(sampler.next_batch(gen), cfg, gen, step)
            if step in (1, 2, 4, 6, 8, 9):
                logged.append([step, *losses])
        rows = list(csv.reader(io.StringIO(one["loss.csv"].decode())))[1:]
        assert [[int(row[0]), float(row[1]), float(row[2])] for row in rows] == logged
        reference.assert_saved(load_entries(tmp_path / "run1" / "final.bin"))

    def test_non_finite_loss_in_the_child_names_both_losses(self, tmp_path, monkeypatch):
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            corpus, bundle = tiny_setup()
            bundle.denoisers.params["output_proj.bias"].data[1] = [np.nan, 0.0, 0.0]  # theta2's half
            with pytest.raises(ValueError, match="non-finite training loss at step 1: loss_c=") as raised:
                train(bundle, corpus, TrainConfig(steps=3, batch_size=4), tmp_path / f"run{cpus}")
            messages.append(str(raised.value))
            assert_no_child_process()
        assert messages[0] == messages[1] and messages[0].endswith(", loss_nc=nan")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_non_finite_loss_is_the_cli_json_error(self, cli_inputs, tmp_path, monkeypatch, capsys, cpus):
        def poisoned(run, stats):
            bundle = training.build_models(run, stats)
            bundle.denoisers.params["output_proj.bias"].data[1] = [np.nan, 0.0, 0.0]  # theta2's half
            return bundle

        monkeypatch.setattr(cli, "build_models", poisoned)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert cli.main(["train", *cli_inputs, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert error.startswith("non-finite training loss at step 1: loss_c=") and error.endswith(", loss_nc=nan")
        assert_no_child_process()

    def test_child_ending_without_a_result(self, tmp_path, monkeypatch):
        parent, step = os.getpid(), training.train_step

        def spy(*args):
            if os.getpid() != parent:
                os._exit(3)
            return step(*args)

        monkeypatch.setattr(training, "train_step", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        corpus, bundle = tiny_setup()
        with pytest.raises(ChildProcessError, match="exit code 3"):
            train(bundle, corpus, TrainConfig(steps=3, batch_size=4), tmp_path)
        assert_no_child_process()

    def test_interrupt_in_this_process_ends_the_child(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def spy(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)  # the child still training when this process stops

        monkeypatch.setattr(training, "train_step", spy)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        corpus, bundle = tiny_setup()
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            train(bundle, corpus, TrainConfig(steps=3, batch_size=4), tmp_path)
        assert time.perf_counter() - start < 15
        assert_no_child_process()

    def test_child_prints_nothing(self, cli_inputs, tmp_path, monkeypatch, capfd):
        stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w")))  # buffered, unlike capture's own
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        try:
            print("printed before train")
            assert cli.main(["train", *cli_inputs, "--out", str(tmp_path / "out")]) == 0
        finally:
            stdout.close()
        out, err = capfd.readouterr()
        lines = out.splitlines()
        assert lines[0] == "printed before train" and lines[-1] == f"checkpoint: {tmp_path / 'out' / 'final.bin'}"
        assert [line.split()[:2] for line in lines[1:-1]] == [["step", f"{k}/6"] for k in (1, 2, 4, 6)]
        assert err == ""
        assert_no_child_process()


class TestBatchSampler:
    def test_batches_are_length_homogeneous(self):
        corpus, bundle = tiny_setup()
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 6)
        for step in range(1, 20):
            batch = sampler.next_batch(rng_mod.substream(0, rng_mod.TRAIN_STREAM, step))
            assert batch.x0.shape[0] == 6
            assert batch.y.shape == (6, batch.x0.shape[2], 6)

    def test_normalization_applied(self):
        corpus, bundle = tiny_setup()
        sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, 4)
        batch = sampler.next_batch(rng_mod.substream(0, rng_mod.TRAIN_STREAM, 1))
        assert np.all(np.abs(batch.x0) < 10)  # standardized scale, not raw energy ~65

    def test_empty_split_rejected(self):
        corpus, bundle = tiny_setup()
        with pytest.raises(ValueError):
            LengthBucketSampler([], bundle.stats, bundle.embedder, 4)
