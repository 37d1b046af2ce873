"""Run configuration: one JSON document drives every command.

CLI flags override file values; each command archives its resolved config
into the output directory so any run can be reproduced bit-exactly from
the archive plus the seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["corpus"]["length_range"] = list(self.corpus.length_range)
        d["denoiser"]["dilation_cycle"] = list(self.denoiser.dilation_cycle)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ValueError("a run config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown run config sections: {', '.join(unknown)}")
        try:
            corpus = dict(data.get("corpus", {}))
            if "length_range" in corpus:
                corpus["length_range"] = tuple(corpus["length_range"])
            denoiser = dict(data.get("denoiser", {}))
            if "dilation_cycle" in denoiser:
                denoiser["dilation_cycle"] = tuple(denoiser["dilation_cycle"])
            return cls(
                seed=data.get("seed", 0),
                corpus=CorpusConfig(**corpus),
                denoiser=DenoiserConfig(**denoiser),
                style=StyleConfig(**data.get("style", {})),
                schedule=ScheduleSettings(**data.get("schedule", {})),
                train=TrainConfig(**data.get("train", {})),
                guidance=GuidanceParams(**data.get("guidance", {})),
            )
        except TypeError as exc:  # a section that is not an object, or an unknown field
            raise ValueError(f"malformed run config: {exc}") from None

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
