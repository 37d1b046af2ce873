"""Run configuration: one JSON document drives every command.

CLI flags override file values; each command archives its resolved config
into the output directory so any run can be reproduced bit-exactly from
the archive plus the seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .corpus import CorpusConfig
from .denoiser import DenoiserConfig
from .guidance import GuidanceParams
from .schedule import COSINE_OFFSET
from .style import StyleConfig
from .training import TrainConfig


@dataclass(frozen=True)
class ScheduleSettings:
    steps: int = 200
    offset: float = COSINE_OFFSET

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("need at least 2 diffusion steps")


@dataclass
class RunConfig:
    seed: int = 0
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    style: StyleConfig = field(default_factory=StyleConfig)
    schedule: ScheduleSettings = field(default_factory=ScheduleSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    guidance: GuidanceParams = field(default_factory=GuidanceParams)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Every present section is built from its JSON object, absent ones
        and absent fields keep their defaults."""
        return _from_json(cls(), data, "")

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _from_json(default, value, name: str):
    """value as default's type, by one rule for every field: a dataclass from
    an object of its fields, a tuple from a list, and a number of its
    default's kind (an int may stand for a float, only a bool for a bool)."""
    if is_dataclass(default):
        if not isinstance(value, dict):
            raise ValueError(f"{name or 'a run config'} must be a JSON object")
        unknown = sorted(set(value) - {f.name for f in fields(default)})
        if unknown:
            raise ValueError(f"unknown fields in {name or 'the run config'}: {', '.join(unknown)}")
        given = {k: _from_json(getattr(default, k), v, f"{name}.{k}".lstrip(".")) for k, v in value.items()}
        return type(default)(**given)
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(_from_json(default[0], v, name) for v in value)
    kind = (int, float) if type(default) is float else type(default)
    if not isinstance(value, kind) or isinstance(value, bool) != isinstance(default, bool):
        raise ValueError(f"{name} must be of type {type(default).__name__}, got {json.dumps(value)}")
    return value
