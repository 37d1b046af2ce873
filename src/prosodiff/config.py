"""Run configuration: one JSON document drives every command.

CLI flags override file values; each command archives its resolved config
into the output directory so any run can be reproduced bit-exactly from
the archive plus the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .corpus import CorpusConfig
from .denoiser import DenoiserConfig
from .guidance import GuidanceParams
from .jsonrule import from_json
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
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError(f"schedule offset must be finite and >= 0, got {self.offset}")


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
        return from_json(cls(), data, "")

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:  # a JSON syntax error or a value the rule rejects
                raise ValueError(f"{path}: {exc}") from None

