import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prosodiff
from prosodiff.config import RunConfig, ScheduleSettings
from prosodiff.corpus import CorpusConfig
from prosodiff.denoiser import DenoiserConfig
from prosodiff.guidance import GuidanceParams
from prosodiff.style import StyleConfig
from prosodiff.training import TrainConfig


class TestRunConfig:
    def test_round_trip_lossless(self, tmp_path):
        run = RunConfig(
            seed=42,
            corpus=CorpusConfig(style_count=3, utterances_per_style=11, length_range=(4, 9)),
            denoiser=DenoiserConfig(residual_layers=4, dilation_cycle=(1, 3)),
            style=StyleConfig(token_count=5, token_dim=32),
            schedule=ScheduleSettings(steps=64, offset=0.01),
            train=TrainConfig(steps=123, learning_rate=3e-4, style_condition=False),
            guidance=GuidanceParams(eta=2.5, gamma=0.4, tau=1.5),
        )
        path = tmp_path / "run.json"
        run.save(path)
        loaded = RunConfig.load(path)
        assert loaded == run
        # a second save produces identical bytes
        loaded.save(tmp_path / "run2.json")
        assert path.read_bytes() == (tmp_path / "run2.json").read_bytes()

    def test_defaults_construct(self):
        run = RunConfig()
        assert run.schedule.steps == 200
        assert run.denoiser.residual_layers == 12
        assert run.corpus.style_count == 4

    def test_partial_dict_uses_defaults(self):
        run = RunConfig.from_dict({"seed": 5, "train": {"steps": 10}})
        assert run.seed == 5
        assert run.train.steps == 10
        assert run.train.batch_size == TrainConfig().batch_size

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            {"sched": {}},
            {"train": {"stepz": 3}},
            {"corpus": [1]},
            {"guidance": {"eta": float("nan")}},
            # fixed or derived values that are not settable
            {"denoiser": {"residual_channels": 3}},
            {"style": {"condition_dim": 64}},
            {"train": {"adam_beta1": 0.9}},
            {"train": {"adam_beta2": 0.999}},
            {"train": {"adam_epsilon": 1e-8}},
            # values that would divide by zero, never act, or fail late
            {"style": {"attention_heads": 0}},
            {"style": {"token_dim": 0}},
            {"style": {"ref_channels": 0}},
            {"denoiser": {"hidden_channels": 0}},
            {"denoiser": {"condition_dim": 0}},
            {"denoiser": {"time_embedding_dim": 0}},
            {"train": {"log_every": 0}},
            {"train": {"checkpoint_every": -1}},
            {"corpus": {"train_fraction": 1.5}},
            {"corpus": {"style_token_bias": 2}},
            {"seed": -1},
            # values of the wrong JSON kind
            {"seed": 1.5},
            {"seed": True},
            {"train": {"lr_decay": "no"}},
            {"train": {"style_condition": 0}},
            {"denoiser": {"residual_layers": 2.0}},
            {"denoiser": {"dilation_cycle": [1.5, 2]}},
            {"denoiser": {"dilation_cycle": 2}},
            {"train": {"batch_size": 2.0}},
            {"corpus": {"utterances_per_style": 10.0}},
            {"guidance": {"eta": None}},
            # a kernel that is not a positive odd size
            {"denoiser": {"kernel_size": -1}},
            {"denoiser": {"kernel_size": -3}},
        ],
    )
    def test_malformed_config_rejected(self, data):
        with pytest.raises(ValueError):
            RunConfig.from_dict(data)

    @pytest.mark.parametrize("offset", [-1.0, -2.0, float("nan")])
    def test_schedule_offset_below_zero_or_not_finite_rejected(self, offset):
        with pytest.raises(ValueError, match="schedule offset must be finite and >= 0"):
            RunConfig.from_dict({"schedule": {"offset": offset}})
        with pytest.raises(ValueError, match="schedule offset must be finite and >= 0"):
            ScheduleSettings(offset=offset)
        assert ScheduleSettings(offset=0.0).offset == 0.0

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), -1.0])
    def test_separation_margin_below_zero_or_not_finite_rejected(self, margin):
        with pytest.raises(ValueError, match="separation_margin must be finite and >= 0"):
            RunConfig.from_dict({"corpus": {"separation_margin": margin}})
        with pytest.raises(ValueError, match="separation_margin must be finite and >= 0"):
            CorpusConfig(separation_margin=margin)
        assert CorpusConfig(separation_margin=0.0).separation_margin == 0.0

    def test_int_stands_for_float(self):
        run = RunConfig.from_dict({"train": {"learning_rate": 1}, "guidance": {"eta": 2}})
        assert run.train.learning_rate == 1 and run.guidance.eta == 2

    def test_tuples_restored_from_json(self, tmp_path):
        run = RunConfig()
        run.save(tmp_path / "c.json")
        raw = json.loads((tmp_path / "c.json").read_text())
        assert isinstance(raw["denoiser"]["dilation_cycle"], list)
        loaded = RunConfig.load(tmp_path / "c.json")
        assert isinstance(loaded.denoiser.dilation_cycle, tuple)
        assert isinstance(loaded.corpus.length_range, tuple)


PACKAGE = Path(prosodiff.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"))
def test_module_imports_first(module):
    # the JSON rule is shared by config and corpus; an import cycle between them shows only in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", f"import prosodiff.{module}"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
