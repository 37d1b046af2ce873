"""Training objective, classifier-free guidance, std-rescale correction,
and the reverse-process sampler.

Guidance combines a style-conditioned and a style-unconditioned noise
prediction, eps_nc + eta * (eps_c - eps_nc). Large eta exaggerates the
conditional direction but inflates the prediction's standard deviation;
the rescale step pulls it back toward the conditional prediction's std,
blended by gamma. The terminal draw x_T uses covariance (1/tau) * I.

There is one reverse loop, ``reverse_process``: it draws x_T and applies
``reverse_step`` for t = T..1 with whatever per-step noise predictor it is
given. ``sample`` hands it the guided predictor (theta1, then theta2
unless eta = 1, combine, rescale); a single denoiser's forward pass drives
the same loop unguided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .denoiser import Denoiser, predict_noise
from .engine import Tensor
from .schedule import NoiseSchedule, forward_diffuse

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class GuidanceParams:
    eta: float = 1.0  # guiding scale; 0 = unconditional, 1 = conditional, >1 extrapolates
    gamma: float = 0.7  # std-correction blend in [0, 1]
    tau: float = 1.0  # terminal temperature; x_T ~ N(0, I/tau)

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError("eta must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")


@dataclass
class RescaleDiagnostics:
    sigma_cond: np.ndarray  # [B] std of the conditional prediction
    sigma_cfg: np.ndarray  # [B] std of the combined prediction
    applied_ratio: np.ndarray  # [B] net multiplier that produced the final estimate


def diffusion_loss(model: Denoiser, schedule: NoiseSchedule, x0, t, eps, y, c=None) -> Tensor:
    """Mean squared error between drawn and predicted noise at step(s) t."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    t_arr = np.atleast_1d(t)
    if t_arr.size == 1:
        x_t = forward_diffuse(x0, int(t_arr[0]), eps, schedule)
    else:
        abar = schedule.alpha_bars[t_arr - 1][:, None, None]
        x_t = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
    predicted = predict_noise(model, x_t, t, y, c)
    return engine.mse(Tensor(eps), predicted)


def cfg_combine(eps_c: np.ndarray, eps_nc: np.ndarray, eta: float) -> np.ndarray:
    """eps_nc + eta * (eps_c - eps_nc); endpoints return exact copies."""
    if eps_c.shape != eps_nc.shape:
        raise ValueError(f"prediction shapes differ: {eps_c.shape} vs {eps_nc.shape}")
    if eta == 1.0:
        return eps_c.copy()
    if eta == 0.0:
        return eps_nc.copy()
    return eps_nc + eta * (eps_c - eps_nc)


def rescale(combined: np.ndarray, eps_c: np.ndarray, gamma: float) -> tuple[np.ndarray, RescaleDiagnostics]:
    """Pull the combined prediction's per-example std toward the conditional one.

    final = gamma * combined * (std(eps_c) / std(combined)) + (1 - gamma) * combined.
    Stds are per example over all channels and positions. A vanishing
    std(combined) disables the correction for that example (ratio 1).
    """
    if combined.shape != eps_c.shape:
        raise ValueError(f"shapes differ: {combined.shape} vs {eps_c.shape}")
    if combined.ndim != 3:
        raise ValueError(f"expected [B, C, L], got {combined.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    reduce_axes = (1, 2)
    sigma_cond = eps_c.std(axis=reduce_axes)
    sigma_cfg = combined.std(axis=reduce_axes)
    safe = sigma_cfg > SIGMA_FLOOR
    ratio = np.where(safe, sigma_cond / np.where(safe, sigma_cfg, 1.0), 1.0)
    applied = gamma * ratio + (1.0 - gamma)
    final = combined * applied[:, None, None]
    return final, RescaleDiagnostics(sigma_cond=sigma_cond, sigma_cfg=sigma_cfg, applied_ratio=applied)


def reverse_step(
    x_t: np.ndarray, t: int, eps_hat: np.ndarray, schedule: NoiseSchedule, rng: np.random.Generator
) -> np.ndarray:
    """One posterior step x_t -> x_{t-1}; deterministic at t=1."""
    beta = schedule.beta(t)
    alpha = schedule.alpha(t)
    abar = schedule.alpha_bar(t)
    mean = (x_t - (beta / math.sqrt(1.0 - abar)) * eps_hat) / math.sqrt(alpha)
    if t == 1:
        return mean
    sigma = math.sqrt(schedule.posterior_variance(t))
    return mean + sigma * rng.standard_normal(x_t.shape)


def draw_terminal(shape: tuple[int, ...], tau: float, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) / math.sqrt(tau)


def reverse_process(
    predict: Callable[[np.ndarray, int], np.ndarray],
    shape: tuple[int, ...],
    tau: float,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw x_T ~ N(0, I/tau) and step it to x_0; predict(x_t, t) gives eps_hat."""
    x = draw_terminal(shape, tau, rng)
    with engine.no_grad():
        for t in range(schedule.step_count, 0, -1):
            x = reverse_step(x, t, predict(x, t), schedule, rng)
    return x


def sample(
    theta1: Denoiser,
    theta2: Denoiser,
    y: np.ndarray,
    c: np.ndarray | None,
    params: GuidanceParams,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    diagnostics: list | None = None,
) -> np.ndarray:
    """Full guided reverse process; returns the x_0 estimate [B, 3, L].

    y: [B, L, D] text embeddings; c: [B, D] style conditions or None for
    the style-unconditional path (theta2 only). With eta=0 there is no
    guidance direction to correct, so the combine/rescale stages are
    skipped and the trajectory matches theta2-only sampling exactly; the
    same holds at eta=1 for theta1-only sampling because the combined
    prediction is a bit-exact copy of the conditional one. That is also
    why theta2 does not run at eta=1: its prediction would not be used.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 3:
        raise ValueError(f"sample() wants batched text embeddings [B, L, D], got {y.shape}")
    unconditional = c is None or params.eta == 0.0

    def guided(x: np.ndarray, t: int) -> np.ndarray:
        if unconditional:
            return predict_noise(theta2, x, t, y).data
        eps_c = predict_noise(theta1, x, t, y, c).data
        eps_nc = eps_c if params.eta == 1.0 else predict_noise(theta2, x, t, y).data
        combined = cfg_combine(eps_c, eps_nc, params.eta)
        eps_hat, diag = rescale(combined, eps_c, params.gamma)
        if diagnostics is not None:
            diagnostics.append((t, diag))
        return eps_hat

    shape = (y.shape[0], theta1.config.residual_channels, y.shape[1])
    return reverse_process(guided, shape, params.tau, schedule, rng)
