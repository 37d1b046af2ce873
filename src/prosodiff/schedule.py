"""Noise schedule and the closed-form forward (noising) process.

Step indices are 1-based at the API surface: t runs over 1..T, and t=0
means clean data (rejected by ``forward_diffuse``). Internally the tables
are 0-indexed arrays of length T.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COSINE_OFFSET = 0.008
BETA_CLIP = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable beta/alpha tables for a T-step diffusion chain."""

    betas: np.ndarray
    alphas: np.ndarray = field(init=False)
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        betas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        alphas = 1.0 - betas
        alphas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        alpha_bars = np.cumprod(alphas)
        alpha_bars.setflags(write=False)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        if not np.all((betas > 0.0) & (betas < 1.0)):
            raise ValueError("every beta must lie in (0, 1)")

    @property
    def step_count(self) -> int:
        return len(self.betas)

    def beta(self, t: int) -> float:
        return float(self.betas[self._index(t)])

    def alpha(self, t: int) -> float:
        return float(self.alphas[self._index(t)])

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[self._index(t)])

    def posterior_variance(self, t: int) -> float:
        """Variance of q(x_{t-1} | x_t, x_0): (1 - abar_{t-1}) / (1 - abar_t) * beta_t."""
        i = self._index(t)
        prev = self.alpha_bars[i - 1] if i > 0 else 1.0
        return float((1.0 - prev) / (1.0 - self.alpha_bars[i]) * self.betas[i])

    def _index(self, t: int) -> int:
        if not 1 <= t <= self.step_count:
            raise ValueError(f"step index {t} outside 1..{self.step_count}")
        return t - 1

    def dump_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "beta", "alpha", "alpha_bar"])
            for i in range(self.step_count):
                writer.writerow(
                    [i + 1, repr(float(self.betas[i])), repr(float(self.alphas[i])), repr(float(self.alpha_bars[i]))]
                )


def cosine_schedule(step_count: int, offset: float = COSINE_OFFSET) -> NoiseSchedule:
    """Offset-cosine schedule: abar(t) = f(t)/f(0), f(t) = cos^2(((t/T + s)/(1 + s)) * pi/2).

    Betas derive from consecutive abar ratios and are clipped at 0.999 to
    keep the terminal steps finite.
    """
    if step_count < 2:
        raise ValueError(f"need at least 2 steps, got {step_count}")
    t = np.arange(step_count + 1, dtype=np.float64)
    f = np.cos(((t / step_count + offset) / (1.0 + offset)) * (math.pi / 2.0)) ** 2
    alpha_bars = f / f[0]
    betas = 1.0 - alpha_bars[1:] / alpha_bars[:-1]
    betas = np.minimum(betas, BETA_CLIP)
    return NoiseSchedule(betas=betas)


def forward_diffuse(x0: np.ndarray, t, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form noising: x_t = sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps.

    t is one step for the whole array, or a [B] array holding one step per
    example (row of the leading axis).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"noise shape {eps.shape} must match data shape {x0.shape}")
    t_arr = np.asarray(t)
    if np.any(t_arr < 1) or np.any(t_arr > schedule.step_count):
        raise ValueError(f"step index {t} outside 1..{schedule.step_count}")
    abar = schedule.alpha_bars[t_arr - 1]
    if abar.ndim:
        abar = abar.reshape(abar.shape + (1,) * (x0.ndim - 1))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
