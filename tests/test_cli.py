import ctypes
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from prosodiff import evaluate, inference, parallel
from prosodiff import rng as rng_mod
from prosodiff.checkpoint import load_entries, save_entries
from prosodiff.cli import _resolve_mode_conditions, build_parser, main
from prosodiff.config import RunConfig
from prosodiff.corpus import load_corpus, read_utterance_csv, write_utterance_csv
from prosodiff.schedule import cosine_schedule
from prosodiff.training import build_models, load_checkpoint

TINY_CONFIG = {
    "seed": 5,
    "corpus": {
        "style_count": 2,
        "utterances_per_style": 8,
        "length_range": [5, 7],
        "vocab_size": 12,
    },
    "denoiser": {
        "residual_layers": 2,
        "dilation_cycle": [1, 2],
        "hidden_channels": 6,
        "time_embedding_dim": 8,
        "condition_dim": 6,
    },
    "style": {"token_count": 3, "token_dim": 8, "attention_heads": 2, "ref_channels": 4},
    "schedule": {"steps": 12},
    "train": {"steps": 12, "batch_size": 4, "log_every": 4, "checkpoint_every": 0},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["gen-data", "--config", str(config), "--out", str(root / "data")]) == 0
    corpus = root / "data" / "corpus"
    assert (
        main(
            [
                "train",
                "--config",
                str(config),
                "--corpus",
                str(corpus),
                "--out",
                str(root / "model"),
                "--quiet",
            ]
        )
        == 0
    )
    return {"root": root, "config": config, "corpus": corpus, "checkpoint": root / "model" / "final.bin"}


class TestGenData:
    def test_outputs_and_idempotence(self, workspace, tmp_path):
        corpus = workspace["corpus"]
        assert (corpus / "manifest.json").exists()
        utts = sorted(corpus.glob("utt_*.csv"))
        assert len(utts) == 16
        assert main(["gen-data", "--config", str(workspace["config"]), "--out", str(tmp_path / "again")]) == 0
        again = tmp_path / "again" / "corpus"
        assert (corpus / "manifest.json").read_bytes() == (again / "manifest.json").read_bytes()
        assert (corpus / "utt_00003.csv").read_bytes() == (again / "utt_00003.csv").read_bytes()

    def test_archives_resolved_config(self, workspace):
        archived = workspace["root"] / "data" / "resolved_config.json"
        assert archived.exists()
        assert json.loads(archived.read_text())["corpus"]["style_count"] == 2


class TestTrain:
    def test_loss_log_and_checkpoint(self, workspace):
        loss = (workspace["root"] / "model" / "loss.csv").read_text().splitlines()
        assert loss[0] == "step,loss_c,loss_nc"
        steps = [int(line.split(",")[0]) for line in loss[1:]]
        assert steps == sorted(steps)
        assert workspace["checkpoint"].exists()

    def test_resume_continues_the_archived_run(self, workspace, tmp_path):
        # no --config: the schedule (12 steps), the seed (5) and the rest come from the checkpoint's archive
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "checkpoint_every": 6}}))
        inputs = ["--corpus", str(workspace["corpus"]), "--quiet"]
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "full"), *inputs]) == 0
        resume = ["--resume", str(tmp_path / "full" / "ckpt_000006.bin")]
        assert main(["train", *resume, "--out", str(tmp_path / "resumed"), *inputs]) == 0
        for name in ("final.bin", "resolved_config.json"):
            assert (tmp_path / "resumed" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        full = (tmp_path / "full" / "loss.csv").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "loss.csv").read_text().splitlines()
        assert resumed == [full[0]] + [row for row in full[1:] if int(row.split(",")[0]) > 6]

    def test_resume_into_its_own_directory_logs_each_step_once(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "checkpoint_every": 6}}))
        inputs = ["--corpus", str(workspace["corpus"]), "--quiet"]
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "full"), *inputs]) == 0
        shutil.copytree(tmp_path / "full", tmp_path / "run")
        resume = ["--resume", str(tmp_path / "run" / "ckpt_000006.bin")]
        assert main(["train", *resume, "--out", str(tmp_path / "run"), *inputs]) == 0
        for name in ("loss.csv", "ckpt_000006.bin", "final.bin"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


    def test_only_train_reopens_a_checkpoint_with_adam_state(self, workspace, tmp_path, monkeypatch):
        opened = []

        def recording(bundle, path):
            opened.append(bundle.adam is not None)
            return load_checkpoint(bundle, path)

        monkeypatch.setattr("prosodiff.cli.load_checkpoint", recording)
        inputs = ["--corpus", str(workspace["corpus"])]
        for command in ("sample", "eval"):
            argv = [command, "--checkpoint", str(workspace["checkpoint"]), "--out", str(tmp_path / command)]
            assert main(argv + inputs) == 0
        argv = ["train", "--resume", str(workspace["checkpoint"]), "--steps", "13", "--out", str(tmp_path / "t")]
        assert main(argv + inputs + ["--quiet"]) == 0
        assert opened == [False, False, True]


class TestSample:
    def run_sample(self, workspace, out, *extra):
        argv = [
            "sample",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--corpus",
            str(workspace["corpus"]),
            "--out",
            str(out),
            "--num-samples",
            "3",
            "--seed",
            "9",
            *extra,
        ]
        return main(argv)

    def test_diversified_deterministic(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "a") == 0
        assert self.run_sample(workspace, tmp_path / "b") == 0
        a = sorted((tmp_path / "a" / "samples").glob("*.csv"))
        b = sorted((tmp_path / "b" / "samples").glob("*.csv"))
        assert len(a) == 3
        for fa, fb in zip(a, b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_control_one_hot_token(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "c", "--mode", "control", "--token-id", "1") == 0
        files = list((tmp_path / "c" / "samples").glob("control_*.csv"))
        assert len(files) == 3

    def test_control_requires_token_arguments(self, workspace, tmp_path, capsys):
        assert self.run_sample(workspace, tmp_path / "d", "--mode", "control") == 1
        err = capsys.readouterr().err
        assert "token" in json.loads(err.strip())["error"]

    def test_token_id_out_of_range(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "e", "--mode", "control", "--token-id", "7") == 1

    def test_transfer_requires_reference(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "f", "--mode", "transfer") == 1

    @pytest.mark.parametrize(
        "mode", [["--mode", "diversified"], ["--mode", "control", "--token-id", "1"]], ids=["diversified", "control"]
    )
    def test_reference_outside_transfer_rejected(self, workspace, tmp_path, capsys, mode):
        ref = workspace["corpus"] / "utt_00000.csv"
        code = self.run_sample(workspace, tmp_path / "o", *mode, "--reference", str(ref))
        assert_json_error(code, capsys, "--reference", "transfer")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, fragments",
        [
            (["--mode", "diversified", "--token-id", "1"], ["--token-id", "control", "diversified"]),
            (["--token-weights", "1,0,0"], ["--token-weights", "control", "diversified"]),
            (["--mode", "transfer", "--reference", "REF", "--token-weights", "1,0,0"], ["--token-weights", "transfer"]),
            (["--mode", "transfer", "--reference", "REF", "--raw-weights"], ["--raw-weights", "transfer"]),
            (["--unconditional", "--mode", "transfer", "--reference", "REF"], ["--mode", "--unconditional"]),
            (["--unconditional", "--mode", "diversified"], ["--mode", "--unconditional"]),
            (["--unconditional", "--reference", "REF"], ["--reference", "--unconditional"]),
            (["--unconditional", "--token-id", "1"], ["--token-id", "--unconditional"]),
            (["--mode", "control", "--token-id", "1", "--token-weights", "0,0,1"], ["--token-weights", "--token-id"]),
            (["--mode", "control", "--token-id", "1", "--raw-weights"], ["--raw-weights", "--token-id"]),
            (["--unconditional", "--diagnostics"], ["--diagnostics", "--unconditional"]),
        ],
        ids=[
            "token-id-diversified", "token-weights-default-mode", "token-weights-transfer", "raw-weights-transfer",
            "unconditional-transfer", "unconditional-mode", "unconditional-reference", "unconditional-token-id",
            "token-weights-with-token-id", "raw-weights-with-token-id", "unconditional-diagnostics",
        ],
    )
    def test_flags_outside_their_mode_rejected(self, workspace, tmp_path, capsys, flags, fragments):
        ref = str(workspace["corpus"] / "utt_00000.csv")
        code = self.run_sample(workspace, tmp_path / "o", *[ref if f == "REF" else f for f in flags])
        assert_json_error(code, capsys, *fragments)
        assert not (tmp_path / "o").exists()

    def test_transfer_with_reference(self, workspace, tmp_path):
        ref = workspace["corpus"] / "utt_00000.csv"
        assert self.run_sample(workspace, tmp_path / "g", "--mode", "transfer", "--reference", str(ref)) == 0

    def test_scaling_factor_doubles_pitch(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "s1") == 0
        assert self.run_sample(workspace, tmp_path / "s2", "--scale-pitch", "2.0") == 0
        _, base = read_utterance_csv(next((tmp_path / "s1" / "samples").glob("*.csv")))
        _, scaled = read_utterance_csv(next((tmp_path / "s2" / "samples").glob("*.csv")))
        assert np.array_equal(scaled[0], 2.0 * base[0])  # multiplication is exact
        assert np.array_equal(scaled[1], base[1])

    def test_unconditional_flag(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "u", "--unconditional") == 0
        files = list((tmp_path / "u" / "samples").glob("unconditional_*.csv"))
        assert len(files) == 3

    def test_diagnostics_csv(self, workspace, tmp_path):
        out = tmp_path / "diag"
        assert self.run_sample(workspace, out, "--diagnostics", "--eta", "2.0", "--num-samples", "5") == 0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "t,example,sigma_cond,sigma_cfg,applied_ratio"
        lengths = {len(read_utterance_csv(f)[0]) for f in (out / "samples").glob("*.csv")}
        assert len(lengths) > 1  # several length groups, padded into one chain
        # example is the index i of the sample file diversified_{i:04d}.csv, not the row within a group
        keys = [tuple(int(v) for v in line.split(",")[:2]) for line in lines[1:]]
        assert len(keys) == len(set(keys)) == 12 * 5  # 12 steps, one row per example per step
        assert {example for _, example in keys} == set(range(5))

    def test_sample_archive_rebuilds_the_trained_text_embedder(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "a") == 0
        archive = tmp_path / "a" / "resolved_config.json"
        assert json.loads(archive.read_text())["seed"] == 9  # training ran at seed 5
        corpus = load_corpus(workspace["corpus"])

        def embedding(config_path):
            bundle = build_models(RunConfig.load(config_path), corpus.stats)
            load_checkpoint(bundle, workspace["checkpoint"])
            return bundle.embedder.embed(np.arange(12))

        assert np.array_equal(embedding(archive), embedding(workspace["root"] / "model" / "resolved_config.json"))

    def test_text_picks_share_no_stream_with_noise(self, workspace, tmp_path, monkeypatch):
        # a corpus whose texts all have length 999, so their noise is keyed by length 999
        config = tmp_path / "long.json"
        long_corpus = {**TINY_CONFIG["corpus"], "utterances_per_style": 4, "length_range": [999, 999]}
        config.write_text(json.dumps({**TINY_CONFIG, "corpus": long_corpus}))
        assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        keys = []
        substream = rng_mod.substream

        def spy(seed, *key):
            keys.append((seed, *key))
            return substream(seed, *key)

        monkeypatch.setattr(rng_mod, "substream", spy)
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(tmp_path / "data" / "corpus")]
        assert main(argv + ["--out", str(tmp_path / "o"), "--num-samples", "2"]) == 0
        sampling = [key for key in keys if key[1] == rng_mod.SAMPLE_STREAM]
        assert (5, rng_mod.SAMPLE_STREAM, 999) in sampling
        assert len(sampling) == len(set(sampling))

    def test_guidance_overrides_archived(self, workspace, tmp_path):
        def archived(out):
            return json.loads((tmp_path / out / "resolved_config.json").read_text())

        assert self.run_sample(workspace, tmp_path / "ov", "--eta", "3.0", "--gamma", "0.4", "--tau", "0.8") == 0
        assert archived("ov")["guidance"] == {"eta": 3.0, "gamma": 0.4, "tau": 0.8}
        assert archived("ov")["seed"] == 9
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "ev"), "--eta", "2.5", "--gamma", "0.3", "--seed", "4"]
        assert main(argv) == 0
        assert archived("ev")["guidance"] == {"eta": 2.5, "gamma": 0.3, "tau": 1.0}
        assert archived("ev")["schedule"] == archived(workspace["root"] / "model")["schedule"]
        assert archived("ev")["seed"] == 4

    def test_config_flags_archived(self, workspace, tmp_path):
        config = ["--config", str(workspace["config"])]
        assert main(["gen-data", *config, "--out", str(tmp_path / "gd"), "--seed", "7"]) == 0
        assert json.loads((tmp_path / "gd" / "resolved_config.json").read_text())["seed"] == 7
        argv = ["train", *config, "--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "tr"), "--quiet"]
        argv += ["--seed", "8", "--steps", "2", "--batch-size", "3", "--learning-rate", "0.002"]
        assert main(argv + ["--no-style-condition", "--no-text-condition"]) == 0
        archived = json.loads((tmp_path / "tr" / "resolved_config.json").read_text())
        assert archived["seed"] == 8
        assert archived["train"] == {
            **TINY_CONFIG["train"],
            "steps": 2,
            "batch_size": 3,
            "learning_rate": 0.002,
            "lr_decay": True,
            "style_condition": False,
            "text_condition": False,
        }


class TestEval:
    def test_report_and_reproducibility(self, workspace, tmp_path):
        argv = [
            "eval",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--corpus",
            str(workspace["corpus"]),
            "--seed",
            "3",
            "--eta-sweep",
            "1,3",
            "--sweep-utterances",
            "4",
            "--charts",
        ]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        report = (tmp_path / "r1" / "report.csv").read_text().splitlines()
        assert report[0] == "metric,channel,value"
        js_rows = [r for r in report[1:] if r.startswith("js_divergence")]
        assert len(js_rows) == 3
        for row in js_rows:
            value = float(row.split(",")[2])
            assert 0.0 <= value <= math.log(2.0)
        sweep = (tmp_path / "r1" / "cv_sweep.csv").read_text().splitlines()
        assert sweep[0] == "eta,cv_pitch,cv_energy,cv_duration"
        assert len(sweep) == 3
        assert (tmp_path / "r1" / "charts" / "js_divergence.svg").exists()
        for name in ("report.csv", "cv_sweep.csv", "charts/cv_sweep.svg"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_report_does_not_depend_on_share_count(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(inference, "CHAIN_ROWS", 1)  # the val texts, of lengths 5, 6 and 7, in three chains
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        argv += ["--eta", "2", "--eta-sweep", "1,3", "--sweep-utterances", "4"]
        for cpus in (1, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            assert main(argv + ["--out", str(tmp_path / str(cpus))]) == 0
        for name in ("report.csv", "cv_sweep.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    def test_empty_sweep_rejected(self, workspace, tmp_path, capsys):
        argv = [
            "eval",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--corpus",
            str(workspace["corpus"]),
            "--out",
            str(tmp_path / "x"),
            "--eta-sweep",
            "",
        ]
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "24"])
    def test_sweep_utterances_without_eta_sweep_rejected(self, workspace, tmp_path, capsys, count):
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "o"), "--sweep-utterances", count]
        assert_json_error(main(argv), capsys, "--sweep-utterances", "--eta-sweep")
        assert not (tmp_path / "o").exists()


class TestMallocPolicy:
    def test_main_keeps_freed_memory_where_the_c_library_has_mallopt(self, tmp_path, monkeypatch):
        calls = []

        class Library:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Library())
        assert main(["dump-schedule", "--steps", "4", "--out", str(tmp_path / "s.csv")]) == 0
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD

    @pytest.mark.parametrize("library", ["absent", "without-mallopt"])
    def test_another_c_library_keeps_its_own_policy(self, tmp_path, monkeypatch, library):
        def load(name):
            if library == "absent":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", load)
        assert main(["dump-schedule", "--steps", "4", "--out", str(tmp_path / "s.csv")]) == 0


class TestPlotAndSchedule:
    def test_plot_from_loss_csv(self, workspace, tmp_path):
        loss = workspace["root"] / "model" / "loss.csv"
        out = tmp_path / "loss.svg"
        assert main(["plot", "--input", str(loss), "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_dump_schedule(self, tmp_path):
        out = tmp_path / "sched.csv"
        assert main(["dump-schedule", "--steps", "16", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,beta,alpha,alpha_bar"
        assert len(lines) == 17
        assert main(["dump-schedule", "--steps", "16", "--offset", "0.02", "--out", str(tmp_path / "offset.csv")]) == 0
        cosine_schedule(16, 0.02).dump_csv(tmp_path / "expected.csv")
        assert (tmp_path / "offset.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "offset.csv").read_bytes() != out.read_bytes()

    def test_plot_escapes_markup(self, tmp_path):
        src = tmp_path / "r&d.csv"
        src.write_text("step,loss<c>&d\n1,0.5\n2,0.25\n")
        out = tmp_path / "r.svg"
        assert main(["plot", "--input", str(src), "--out", str(out)]) == 0
        texts = [el.text for el in ElementTree.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "r&d"
        assert "loss<c>&d" in texts and "step" in texts

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["plot", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")]) == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ablated(workspace):
    """A checkpoint trained with --no-style-condition on the workspace corpus."""
    out = workspace["root"] / "ablated"
    argv = ["train", "--config", str(workspace["config"]), "--corpus", str(workspace["corpus"])]
    assert main(argv + ["--out", str(out), "--quiet", "--no-style-condition"]) == 0
    return out / "final.bin"


@pytest.fixture(scope="module")
def text_ablated(workspace):
    """A checkpoint trained with --no-text-condition on the workspace corpus."""
    out = workspace["root"] / "text_ablated"
    argv = ["train", "--config", str(workspace["config"]), "--corpus", str(workspace["corpus"])]
    assert main(argv + ["--out", str(out), "--quiet", "--no-text-condition"]) == 0
    return out / "final.bin"


def trained_bundle(workspace, checkpoint, archive):
    corpus = load_corpus(workspace["corpus"])
    run = RunConfig.load(archive)
    bundle = build_models(run, corpus.stats)
    load_checkpoint(bundle, checkpoint)
    return corpus, bundle, run


class TestTextAblatedCheckpoint:
    @pytest.mark.parametrize(
        "mode", [["--mode", "diversified"], ["--mode", "control", "--token-id", "1"]], ids=["diversified", "control"]
    )
    def test_sample_zeroes_text(self, workspace, text_ablated, tmp_path, mode):
        argv = ["sample", "--checkpoint", str(text_ablated), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "o"), "--num-samples", "3", "--eta", "2", *mode]
        assert main(argv) == 0
        corpus, bundle, run = trained_bundle(workspace, text_ablated, tmp_path / "o" / "resolved_config.json")
        assert not run.train.text_condition
        texts, conditions, tag = _resolve_mode_conditions(build_parser().parse_args(argv), bundle, corpus, run, 3)
        assert not any(np.any(bundle.embedder.embed(ids)) for ids in texts)
        expected = inference.generate(bundle, texts, conditions, run.guidance, run.seed)
        for i, x in enumerate(expected):
            _, prosody = read_utterance_csv(tmp_path / "o" / "samples" / f"{tag}_{i:04d}.csv")
            assert np.array_equal(prosody, bundle.stats.denormalize(x)), i

    def test_eval_zeroes_text(self, workspace, text_ablated, tmp_path):
        argv = ["eval", "--checkpoint", str(text_ablated), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "o"), "--eta", "2", "--eta-sweep", "3", "--sweep-utterances", "4"]
        assert main(argv) == 0
        corpus, bundle, run = trained_bundle(workspace, text_ablated, tmp_path / "o" / "resolved_config.json")
        val = corpus.split("val")
        assert not any(np.any(bundle.embedder.embed(u.phoneme_ids)) for u in val)
        js = evaluate.js_report(inference.reconstruct(bundle, val, run.guidance, run.seed), val)
        report = (tmp_path / "o" / "report.csv").read_text().splitlines()
        assert [r for r in report if r.startswith("js_divergence")] == [
            f"js_divergence,{name},{float(value)!r}" for name, value in js.items()
        ]
        swept = replace(run.guidance, eta=3.0)
        cv = evaluate.mean_cv(inference.reconstruct(bundle, val[:4], swept, run.seed))
        sweep = (tmp_path / "o" / "cv_sweep.csv").read_text().splitlines()
        assert sweep[1] == ",".join(repr(float(v)) for v in (3.0, *cv))


class TestStyleAblatedCheckpoint:
    @pytest.mark.parametrize(
        "command",
        [["sample"], ["sample", "--eta", "1"], ["sample", "--eta", "2"], ["eval"]],
        ids=["sample", "sample-eta-1", "sample-eta-2", "eval"],
    )
    def test_styled_use_rejected_before_archiving(self, workspace, ablated, tmp_path, capsys, command):
        argv = [command[0], "--checkpoint", str(ablated), "--corpus", str(workspace["corpus"])]
        code = main(argv + ["--out", str(tmp_path / "o"), *command[1:]])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])["error"]
        assert "train.style_condition" in error and "--unconditional" in error
        assert not (tmp_path / "o").exists()

    def test_unconditional_sample_works(self, workspace, ablated, tmp_path):
        argv = ["sample", "--checkpoint", str(ablated), "--corpus", str(workspace["corpus"]), "--num-samples", "3"]
        assert main(argv + ["--out", str(tmp_path / "o"), "--unconditional"]) == 0
        samples = sorted((tmp_path / "o" / "samples").glob("unconditional_*.csv"))
        assert len(samples) == 3
        assert all(np.all(np.isfinite(read_utterance_csv(f)[1])) for f in samples)


# edits of a corpus manifest, each of which loading rejects (see edited_manifest_copy)
MANIFEST_EDITS = [
    lambda m: m["config"].update(colour=1),
    lambda m: m["archetypes"][0].update(colour=1),
    lambda m: m["train_indices"].append(len(m["utterances"])),
    lambda m: m["val_indices"].append(-1),
    lambda m: m.__delitem__("seed"),
    lambda m: m.update(seed="abc"),
    lambda m: m["config"].update(vocab_size=12.5),
    lambda m: m["config"].update(utterances_per_style=8.0),
    lambda m: m["val_indices"].append(m["train_indices"][0]),
    lambda m: m["val_indices"].append(m["val_indices"][0]),
    lambda m: m["utterances"][0].update(file="../elsewhere.csv"),
    lambda m: m["archetypes"][0].update(pitch_base=5.0),
    lambda m: m.update(config=[1]),
    lambda m: [],
    lambda m: m.update(colour=1),
    lambda m: m.update(seed=-1),
]
MANIFEST_EDIT_IDS = [
    "config-key",
    "archetype-key",
    "train-index",
    "val-index",
    "seed-missing",
    "seed-string",
    "vocab-size-float",
    "utterances-per-style-float",
    "val-overlaps-train",
    "val-duplicate",
    "file-outside-corpus",
    "archetype-value",
    "config-not-object",
    "manifest-not-object",
    "unknown-key",
    "seed-negative",
]


def edited_manifest_copy(workspace, tmp_path, edit):
    """A copy of the workspace corpus whose manifest edit changed in place, or
    replaced by the document edit returned, next to a readable utterance file
    outside it."""
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace["corpus"], corpus)
    shutil.copy(corpus / "utt_00000.csv", tmp_path / "elsewhere.csv")
    manifest = json.loads((corpus / "manifest.json").read_text())
    replaced = edit(manifest)
    (corpus / "manifest.json").write_text(json.dumps(manifest if replaced is None else replaced))
    return corpus


def assert_json_error(code, capsys, *fragments):
    """Exit code 1 and exactly one JSON line on stderr whose error mentions every fragment."""
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    for fragment in fragments:
        assert fragment in json.loads(lines[0])["error"]


class TestErrors:
    def test_bad_corpus_path(self, workspace, tmp_path, capsys):
        argv = [
            "sample",
            "--checkpoint",
            str(workspace["checkpoint"]),
            "--corpus",
            str(tmp_path / "void"),
            "--out",
            str(tmp_path / "o"),
        ]
        assert main(argv) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "manifest" in payload["error"]

    @pytest.mark.parametrize("command", ["sample", "eval", "train"])
    def test_bad_magic_checkpoint(self, workspace, tmp_path, capsys, command):
        junk = tmp_path / "model" / "final.bin"
        junk.parent.mkdir()
        junk.write_bytes(b"definitely not a checkpoint")
        (tmp_path / "model" / "resolved_config.json").write_bytes(
            (workspace["root"] / "model" / "resolved_config.json").read_bytes()
        )
        if command == "train":
            argv = ["train", "--resume", str(junk), "--quiet"]
        else:
            argv = [command, "--checkpoint", str(junk)]
        code = main(argv + ["--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert_json_error(code, capsys, "bad magic")

    @pytest.mark.parametrize("command", ["sample", "eval", "train"])
    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("moment1.denoisers.output_proj.weight", np.nan, "holds non-finite values"),
            ("moment2.denoisers.layers.0.cond_proj.weight", -1e-3, "holds negative values"),
        ],
        ids=["nan-moment", "negative-second-moment"],
    )
    def test_bad_moment_rejected(self, workspace, tmp_path, capsys, command, key, value, fragment):
        # sample and eval keep no moments, but check each one as train --resume does
        model = tmp_path / "model"
        model.mkdir()
        entries = load_entries(workspace["checkpoint"])
        entries[key].flat[-1] = value
        save_entries(model / "final.bin", entries)
        archive = workspace["root"] / "model" / "resolved_config.json"
        (model / "resolved_config.json").write_bytes(archive.read_bytes())
        if command == "train":
            argv = ["train", "--resume", str(model / "final.bin"), "--steps", "16", "--quiet"]
        else:
            argv = [command, "--checkpoint", str(model / "final.bin")]
        code = main(argv + ["--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert_json_error(code, capsys, f"final.bin: entry {key} {fragment}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, field",
        [("--no-style-condition", "train.style_condition"), ("--no-text-condition", "train.text_condition")],
        ids=["style", "text"],
    )
    def test_resume_with_other_style_condition_rejected(self, workspace, tmp_path, capsys, flag, field):
        # --out is the checkpoint's own directory, so the check must read the archive before it is rewritten
        model = tmp_path / "model"
        model.mkdir()
        (model / "ckpt_000012.bin").write_bytes(workspace["checkpoint"].read_bytes())
        archive = (workspace["root"] / "model" / "resolved_config.json").read_bytes()
        (model / "resolved_config.json").write_bytes(archive)
        argv = ["train", "--corpus", str(workspace["corpus"]), "--steps", "16"]
        argv += ["--resume", str(model / "ckpt_000012.bin"), "--out", str(model), "--quiet", flag]
        assert_json_error(main(argv), capsys, field)
        assert not (model / "final.bin").exists()
        assert (model / "resolved_config.json").read_bytes() == archive

    def test_resume_from_fractional_step_rejected(self, workspace, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        entries = load_entries(workspace["checkpoint"])
        entries["trainer.step"] = np.array(2.5)
        save_entries(model / "ckpt.bin", entries)
        archive = workspace["root"] / "model" / "resolved_config.json"
        (model / "resolved_config.json").write_bytes(archive.read_bytes())
        argv = ["train", "--resume", str(model / "ckpt.bin"), "--corpus", str(workspace["corpus"]), "--quiet"]
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert_json_error(code, capsys, "trainer.step must be a non-negative integer, got 2.5")
        assert not (tmp_path / "o" / "final.bin").exists()

    def test_sample_with_zero_std_rejected(self, workspace, tmp_path, capsys):
        model = tmp_path / "model"
        model.mkdir()
        entries = load_entries(workspace["checkpoint"])
        entries["norm.std"][0] = 0.0
        save_entries(model / "final.bin", entries)
        archive = workspace["root"] / "model" / "resolved_config.json"
        (model / "resolved_config.json").write_bytes(archive.read_bytes())
        argv = ["sample", "--checkpoint", str(model / "final.bin"), "--corpus", str(workspace["corpus"])]
        argv += ["--mode", "transfer", "--reference", str(workspace["corpus"] / "utt_00001.csv")]
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert_json_error(code, capsys, "final.bin: norm.std must be at least 1e-12")
        assert not (tmp_path / "o" / "samples").exists()

    @pytest.mark.parametrize("offset", ["-1", "-2", "nan"])
    @pytest.mark.parametrize("command", ["dump-schedule", "train"])
    def test_schedule_offset_below_zero_or_not_finite_rejected(self, workspace, tmp_path, capsys, command, offset):
        out = tmp_path / "o"
        if command == "dump-schedule":
            argv = ["dump-schedule", "--steps", "10", f"--offset={offset}", "--out", str(out)]
        else:
            config = json.loads(workspace["config"].read_text())
            config.setdefault("schedule", {})["offset"] = float(offset)
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = ["train", "--config", str(tmp_path / "config.json"), "--corpus", str(workspace["corpus"])]
            argv += ["--out", str(out), "--quiet"]
        assert_json_error(main(argv), capsys, f"schedule offset must be finite and >= 0, got {float(offset)}")
        assert not out.exists()

    @pytest.mark.parametrize("margin", ["NaN", "Infinity", "-1.0"])
    def test_separation_margin_below_zero_or_not_finite_rejected(self, tmp_path, capsys, margin):
        config = tmp_path / "config.json"  # Python's json reads NaN and Infinity
        text = json.dumps(TINY_CONFIG).replace('"vocab_size": 12', f'"vocab_size": 12, "separation_margin": {margin}')
        config.write_text(text)
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")])
        fragment = f"separation_margin must be finite and >= 0, got {float(margin)}"
        assert_json_error(code, capsys, f"{config}: ", fragment)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_corpus_without_val_utterances_rejected(self, tmp_path, capsys, command):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["corpus"]["utterances_per_style"] = 1  # too few to leave any for the val split
        config["train"]["steps"] = 2
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["gen-data", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "data")]) == 0
        corpus = tmp_path / "data" / "corpus"
        argv = ["train", "--config", str(tmp_path / "config.json"), "--corpus", str(corpus), "--quiet"]
        assert main(argv + ["--out", str(tmp_path / "model")]) == 0
        capsys.readouterr()
        argv = [command, "--checkpoint", str(tmp_path / "model" / "final.bin"), "--corpus", str(corpus)]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, f"{corpus} has an empty val split")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("length", [22, 3000])
    def test_truncated_checkpoint(self, workspace, tmp_path, capsys, length):
        model = tmp_path / "model"
        model.mkdir()
        (model / "final.bin").write_bytes(workspace["checkpoint"].read_bytes()[:length])
        (model / "resolved_config.json").write_bytes(
            (workspace["root"] / "model" / "resolved_config.json").read_bytes()
        )
        argv = ["sample", "--checkpoint", str(model / "final.bin"), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, "truncated")

    def test_checkpoint_with_extra_entry(self, workspace, tmp_path, capsys):
        model = tmp_path / "model"
        entries = load_entries(workspace["checkpoint"])
        entries["denoisers.layers.9.conv.weight"] = np.zeros((2, 6, 6, 3))
        save_entries(model / "final.bin", entries)
        (model / "resolved_config.json").write_bytes(
            (workspace["root"] / "model" / "resolved_config.json").read_bytes()
        )
        argv = ["sample", "--checkpoint", str(model / "final.bin"), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, "denoisers.layers.9.conv.weight")
        assert not (tmp_path / "o").exists()

    def test_out_is_existing_file(self, workspace, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(taken)]), capsys, "taken")

    def test_non_finite_reference_rejected(self, workspace, tmp_path, capsys):
        ids, prosody = read_utterance_csv(workspace["corpus"] / "utt_00000.csv")
        prosody[2, 0] = np.nan
        write_utterance_csv(tmp_path / "ref.csv", ids, prosody)
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "o"), "--mode", "transfer", "--reference", str(tmp_path / "ref.csv")]
        assert_json_error(main(argv), capsys, "non-finite")
        assert not (tmp_path / "o" / "samples").exists()
        assert not (tmp_path / "o" / "resolved_config.json").exists()

    def test_bad_eta_sweep_leaves_no_archive(self, workspace, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o"), "--eta-sweep", "abc"]), capsys, "abc")
        assert not (tmp_path / "o" / "resolved_config.json").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("eval", ["--eta-sweep", "1,x"]),
            ("sample", ["--mode", "control", "--token-weights", "1,x,0"]),
        ],
        ids=["eta-sweep", "token-weights"],
    )
    def test_number_list_item_not_a_number_names_the_flag(self, workspace, tmp_path, capsys, command, flags):
        argv = [command, "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o"), *flags]), capsys, flags[-2], "'x'")
        assert not (tmp_path / "o").exists()

    def test_pre_digest_manifest_rejected(self, workspace, tmp_path, capsys):
        # the layout before per-file digests: no sha256 in any entry, and each split's pooled statistics
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        manifest = json.loads((corpus / "manifest.json").read_text())
        loaded = load_corpus(corpus)

        def pooled(split):
            values = np.concatenate([u.prosody for u in loaded.split(split)], axis=1)
            return {"mean": values.mean(axis=1).tolist(), "std": values.std(axis=1).tolist()}

        for entry in manifest["utterances"]:
            entry.pop("sha256", None)
        old = {key: manifest[key] for key in ("config", "seed", "archetypes", "train_indices", "val_indices")}
        old |= {"stats": pooled("train"), "utterances": manifest["utterances"], "val_stats": pooled("val")}
        (corpus / "manifest.json").write_text(json.dumps(old, indent=2) + "\n")
        # named as the old layout, with the way to rebuild it, whether one split is read or both
        old_layout = ("layout written before per-file digests", "rerun gen-data with the same config and seed")
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(corpus)]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, str(corpus), *old_layout)
        assert not (tmp_path / "o").exists()
        argv = ["train", "--config", str(workspace["config"]), "--corpus", str(corpus), "--quiet"]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, str(corpus), *old_layout)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["stats", "sha256"])
    def test_one_old_layout_mark_rejected(self, workspace, tmp_path, capsys, key):
        # either mark of the old layout alone, in an entry of a file that sample does not read
        train_index = load_corpus(workspace["corpus"]).train_indices[0]

        def edit(manifest):
            if key == "stats":
                manifest["stats"] = {"mean": [0.0] * 3, "std": [1.0] * 3}
            else:
                del manifest["utterances"][train_index]["sha256"]

        corpus = edited_manifest_copy(workspace, tmp_path, edit)
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(corpus)]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, "before per-file digests", "gen-data")

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_sample_and_eval_open_no_train_file(self, workspace, tmp_path, monkeypatch, command):
        corpus = load_corpus(workspace["corpus"])
        train_files = {f"utt_{i:05d}.csv" for i in corpus.train_indices}
        val_files = {f"utt_{i:05d}.csv" for i in corpus.val_indices}
        opened = []
        real_open = open

        def spy(file, *args, **kwargs):
            opened.append(Path(str(file)).name)  # a forked child's pipe opens an int descriptor
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        argv = [command, "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert val_files <= set(opened) and not train_files & set(opened)

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_file_edit_rejected_by_each_command_that_reads_it(self, workspace, tmp_path, capsys, split):
        # train reads both splits, sample and eval the val split alone
        corpus = tmp_path / "corpus"
        shutil.copytree(workspace["corpus"], corpus)
        loaded = load_corpus(corpus)
        name = f"utt_{(loaded.train_indices if split == 'train' else loaded.val_indices)[0]:05d}.csv"
        ids, prosody = read_utterance_csv(corpus / name)
        prosody[1, 0] += 1.0
        write_utterance_csv(corpus / name, ids, prosody)
        for command in ("train", "sample", "eval"):
            if command == "train":
                argv = ["train", "--config", str(workspace["config"]), "--quiet"]
            else:
                argv = [command, "--checkpoint", str(workspace["checkpoint"])]
            code = main(argv + ["--corpus", str(corpus), "--out", str(tmp_path / command)])
            if command == "train" or split == "val":
                assert_json_error(code, capsys, str(corpus), f"{name}: the manifest has")
                assert not (tmp_path / command).exists()
            else:
                assert code == 0

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "step,loss_c,loss_nc\n1,0.5\n",
            "step,loss_c,loss_nc\n1,0.5,0.4\n2,nan,0.3\n",
            "step,loss_c\ninf,0.4\n",
            "step,loss_c\n1,abc\n",
        ],
        ids=["empty", "short-row", "nan", "inf", "non-numeric"],
    )
    def test_plot_malformed_csv(self, tmp_path, capsys, content):
        src = tmp_path / "loss.csv"
        src.write_text(content)
        code = main(["plot", "--input", str(src), "--out", str(tmp_path / "x.svg")])
        assert_json_error(code, capsys, "loss.csv")

    @pytest.mark.parametrize("edit", MANIFEST_EDITS, ids=MANIFEST_EDIT_IDS)
    def test_malformed_manifest(self, workspace, tmp_path, capsys, edit):
        corpus = edited_manifest_copy(workspace, tmp_path, edit)
        argv = ["train", "--config", str(workspace["config"]), "--corpus", str(corpus), "--out", str(tmp_path / "o")]
        assert_json_error(main(argv + ["--quiet"]), capsys, str(corpus))

    @pytest.mark.parametrize("edit", MANIFEST_EDITS, ids=MANIFEST_EDIT_IDS)
    def test_malformed_manifest_rejected_by_sample(self, workspace, tmp_path, capsys, edit):
        # sample reads only the val files, yet every manifest edit is still found
        corpus = edited_manifest_copy(workspace, tmp_path, edit)
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(corpus)]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, str(corpus))
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1", "0"])
    def test_bad_learning_rate(self, workspace, tmp_path, capsys, rate):
        argv = ["train", "--config", str(workspace["config"]), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "o"), "--quiet", "--learning-rate", rate]
        assert_json_error(main(argv), capsys, "learning_rate")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--eta", "nan"],
            ["--tau", "inf"],
            ["--mode", "control", "--token-weights", "nan,1,0"],
            ["--scale-pitch", "nan"],
            ["--scale-energy", "inf"],
            ["--scale-duration=-inf"],
        ],
    )
    def test_non_finite_flag_rejected(self, workspace, tmp_path, capsys, flags):
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o"), *flags]), capsys, "finite")
        assert not (tmp_path / "o" / "resolved_config.json").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sample_count_below_one_rejected(self, workspace, tmp_path, capsys, count):
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o"), "--num-samples", count]), capsys, "--num-samples")
        assert not (tmp_path / "o" / "resolved_config.json").exists()

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"stepz": 3}}))
        assert_json_error(main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")]), capsys, "stepz")

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"style": {"attention_heads": 0}}, "attention_heads"),
            ({"seed": 1.5}, "seed"),
            ({"seed": -1}, "seed"),
            ({"train": {"lr_decay": "no"}}, "train.lr_decay"),
            ({"denoiser": {"dilation_cycle": [1.5, 2]}}, "denoiser.dilation_cycle"),
            ({"corpus": {"style_token_bias": 2}}, "style_token_bias"),
            ({"denoiser": {"kernel_size": -1}}, "kernel size must be positive and odd"),
        ],
    )
    def test_malformed_config_value(self, tmp_path, capsys, data, fragment):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")])
        assert_json_error(code, capsys, fragment, f"{config}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", ['{"train": {"stepz": 3}}', "{train"], ids=["unknown-field", "syntax"])
    def test_malformed_archived_config(self, workspace, tmp_path, capsys, content):
        model = tmp_path / "model"
        model.mkdir()
        (model / "final.bin").write_bytes(workspace["checkpoint"].read_bytes())
        (model / "resolved_config.json").write_text(content)
        argv = ["sample", "--checkpoint", str(model / "final.bin"), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o")]), capsys, f"{model / 'resolved_config.json'}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["train", "--corpus", "c", "--out", "o", "--bogus"], "--bogus"),
            (["sample", "--checkpoint", "k", "--corpus", "c", "--out", "o", "--num-samples", "abc"], "--num-samples"),
            (["eval", "--checkpoint", "k", "--corpus", "c"], "--out"),
            (["no-such-command"], "no-such-command"),
            (["sample", "--checkpoint", "k", "--corpus", "c", "--out", "o", "--steps", "8"], "--steps"),
            (["eval", "--checkpoint", "k", "--corpus", "c", "--out", "o", "--steps", "8"], "--steps"),
            (["train", "--config", "a", "--resume", "b", "--corpus", "c", "--out", "d"], "--config"),
        ],
    )
    def test_usage_error_is_json(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert fragment in json.loads(lines[0])["error"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--no-style-condition" in capsys.readouterr().out

    def test_empty_sweep_subset_rejected(self, workspace, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        argv += ["--out", str(tmp_path / "o"), "--eta-sweep", "1", "--sweep-utterances", "0"]
        assert_json_error(main(argv), capsys, "sweep-utterances")

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prosodiff.cli", "dump-schedule", "--steps", "8", "--out", "/dev/null"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
