import json
import math
import subprocess
import sys

import numpy as np
import pytest

from prosodiff.cli import main
from prosodiff.corpus import read_utterance_csv, write_utterance_csv

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
    "style": {"token_count": 3, "token_dim": 8, "attention_heads": 2, "condition_dim": 6, "ref_channels": 4},
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
        assert self.run_sample(workspace, tmp_path / "diag", "--diagnostics", "--eta", "2.0") == 0
        lines = (tmp_path / "diag" / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "t,example,sigma_cond,sigma_cfg,applied_ratio"
        assert len(lines) > 12  # 12 steps, one row per example per step

    def test_guidance_overrides_archived(self, workspace, tmp_path):
        assert self.run_sample(workspace, tmp_path / "ov", "--eta", "3.0", "--gamma", "0.4") == 0
        archived = json.loads((tmp_path / "ov" / "resolved_config.json").read_text())
        assert archived["guidance"]["eta"] == 3.0
        assert archived["guidance"]["gamma"] == 0.4
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert main(argv + ["--out", str(tmp_path / "ev"), "--eta", "2.5", "--gamma", "0.3", "--steps", "6"]) == 0
        archived = json.loads((tmp_path / "ev" / "resolved_config.json").read_text())
        assert archived["guidance"] == {"eta": 2.5, "gamma": 0.3, "tau": 1.0}
        assert archived["schedule"]["steps"] == 6


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

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["plot", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")]) == 1
        assert "error" in capsys.readouterr().err


def assert_json_error(code, capsys, fragment):
    """Exit code 1 and exactly one JSON line on stderr whose error mentions fragment."""
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
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
            argv = ["train", "--config", str(workspace["config"]), "--resume", str(junk), "--quiet"]
        else:
            argv = [command, "--checkpoint", str(junk)]
        code = main(argv + ["--corpus", str(workspace["corpus"]), "--out", str(tmp_path / "o")])
        assert_json_error(code, capsys, "bad magic")

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

    @pytest.mark.parametrize("flags", [["--eta", "nan"], ["--tau", "inf"], ["--mode", "control", "--token-weights", "nan,1,0"]])
    def test_non_finite_flag_rejected(self, workspace, tmp_path, capsys, flags):
        argv = ["sample", "--checkpoint", str(workspace["checkpoint"]), "--corpus", str(workspace["corpus"])]
        assert_json_error(main(argv + ["--out", str(tmp_path / "o"), *flags]), capsys, "finite")

    def test_malformed_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"stepz": 3}}))
        assert_json_error(main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")]), capsys, "stepz")

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
