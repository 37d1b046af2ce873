import json

import pytest

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
            style=StyleConfig(token_count=5, token_dim=32, condition_dim=64),
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

    def test_condition_dims_must_agree(self):
        with pytest.raises(ValueError):
            RunConfig(style=StyleConfig(condition_dim=32), denoiser=DenoiserConfig(condition_dim=64))

    def test_partial_dict_uses_defaults(self):
        run = RunConfig.from_dict({"seed": 5, "train": {"steps": 10}})
        assert run.seed == 5
        assert run.train.steps == 10
        assert run.train.batch_size == TrainConfig().batch_size

    @pytest.mark.parametrize(
        "data",
        [[1, 2], {"sched": {}}, {"train": {"stepz": 3}}, {"corpus": [1]}, {"guidance": {"eta": float("nan")}}],
    )
    def test_malformed_config_rejected(self, data):
        with pytest.raises(ValueError):
            RunConfig.from_dict(data)

    def test_tuples_restored_from_json(self, tmp_path):
        run = RunConfig()
        run.save(tmp_path / "c.json")
        raw = json.loads((tmp_path / "c.json").read_text())
        assert isinstance(raw["denoiser"]["dilation_cycle"], list)
        loaded = RunConfig.load(tmp_path / "c.json")
        assert isinstance(loaded.denoiser.dilation_cycle, tuple)
        assert isinstance(loaded.corpus.length_range, tuple)
