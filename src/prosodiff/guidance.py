"""Training objective, classifier-free guidance, std-rescale correction,
and the reverse-process sampler.

Guidance combines a style-conditioned and a style-unconditioned noise
prediction, eps_nc + eta * (eps_c - eps_nc). Large eta exaggerates the
conditional direction but inflates the prediction's standard deviation;
the rescale step pulls it back toward the conditional prediction's std,
blended by gamma. The terminal draw x_T uses covariance (1/tau) * I.

There is one reverse loop, ``reverse_process``: it draws x_T and applies
``reverse_step`` for t = T..1 with whatever per-step noise predictor it is
given. ``sample`` hands it the guided predictor (a forward pass of theta1,
then one of theta2; combine, rescale); one denoiser's forward pass drives
it unguided. Every ``sample`` chain runs masked: its rows may be padded to
its longest, and each row's valid positions are masked into the denoiser
and the rescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .corpus import CHANNEL_NAMES
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
    x_t = forward_diffuse(x0, t, eps, schedule)
    return engine.mse(Tensor(eps), predict_noise(model, x_t, t, y, c))


def cfg_combine(eps_c: np.ndarray, eps_nc: np.ndarray, eta: float) -> np.ndarray:
    """eps_nc + eta * (eps_c - eps_nc); endpoints return exact copies."""
    if eps_c.shape != eps_nc.shape:
        raise ValueError(f"prediction shapes differ: {eps_c.shape} vs {eps_nc.shape}")
    if eta == 1.0:
        return eps_c.copy()
    if eta == 0.0:
        return eps_nc.copy()
    return eps_nc + eta * (eps_c - eps_nc)


def rescale(
    combined: np.ndarray, eps_c: np.ndarray, gamma: float, lengths: np.ndarray | None = None
) -> tuple[np.ndarray, RescaleDiagnostics]:
    """Pull the combined prediction's per-example std toward the conditional one.

    final = gamma * combined * (std(eps_c) / std(combined)) + (1 - gamma) * combined.
    Stds are per example over all channels and positions, or over the
    first lengths[b] positions of example b when lengths is given (the
    rest is padding). A vanishing std(combined) disables the correction
    for that example (ratio 1).
    """
    if combined.shape != eps_c.shape:
        raise ValueError(f"shapes differ: {combined.shape} vs {eps_c.shape}")
    if combined.ndim != 3:
        raise ValueError(f"expected [B, C, L], got {combined.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    sigma_cond = _row_std(eps_c, lengths)
    sigma_cfg = _row_std(combined, lengths)
    safe = sigma_cfg > SIGMA_FLOOR
    ratio = np.where(safe, sigma_cond / np.where(safe, sigma_cfg, 1.0), 1.0)
    applied = gamma * ratio + (1.0 - gamma)
    final = combined * applied[:, None, None]
    return final, RescaleDiagnostics(sigma_cond=sigma_cond, sigma_cfg=sigma_cfg, applied_ratio=applied)


def _row_std(x: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """Each row's std over channels and its first lengths[b] positions (all
    of them without lengths); rows of one length share one reduction."""
    lengths = np.full(x.shape[0], x.shape[2]) if lengths is None else np.asarray(lengths)
    if lengths.shape != x.shape[:1] or np.any(lengths < 1) or np.any(lengths > x.shape[2]):
        raise ValueError(f"need one length in 1..{x.shape[2]} per row, got {lengths}")
    out = np.empty(x.shape[0])
    for n in np.unique(lengths):
        rows = lengths == n
        out[rows] = x[rows][:, :, :n].std(axis=(1, 2))
    return out


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
    denoisers: tuple[Denoiser, Denoiser],
    schedule: NoiseSchedule,
    y: np.ndarray,
    c: np.ndarray | None,
    params: GuidanceParams,
    rng: np.random.Generator,
    diagnostics: list | None = None,
    lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Full guided reverse process over one chain; returns the x_0 estimate [B, 3, L].

    denoisers: (theta1, theta2). y: [B, L, D] text embeddings; c: [B, D]
    style conditions or None for the style-unconditional path (theta2
    only). With eta=0 there is no guidance direction to correct, so the
    combine/rescale stages are skipped and the trajectory matches
    theta2-only sampling exactly; the same holds at eta=1 for theta1-only
    sampling because the combined prediction is a bit-exact copy of the
    conditional one. That is also why theta2 does not run at eta=1: its
    prediction would not be used. Otherwise each step runs theta1, then
    theta2.

    lengths: each row's valid length, L for every row when None. The
    denoiser masks positions beyond it, rescale leaves them out of its
    stds, and eps_hat is zero there, so padded positions of x stay zero
    when rng draws zeros there. rng is anything with a numpy Generator's
    standard_normal(shape).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 3:
        raise ValueError(f"sample() wants batched text embeddings [B, L, D], got {y.shape}")
    theta1, theta2 = denoisers
    unconditional = c is None or params.eta == 0.0
    lengths = np.full(y.shape[0], y.shape[1]) if lengths is None else np.asarray(lengths)
    mask = (np.arange(y.shape[1]) < lengths[:, None, None]) * 1.0

    def guided(x: np.ndarray, t: int) -> np.ndarray:
        if unconditional:
            eps_hat = predict_noise(theta2, x, t, y, None, mask).data
        else:
            eps_c = predict_noise(theta1, x, t, y, c, mask).data
            eps_nc = eps_c if params.eta == 1.0 else predict_noise(theta2, x, t, y, None, mask).data
            combined = cfg_combine(eps_c, eps_nc, params.eta)
            eps_hat, diag = rescale(combined, eps_c, params.gamma, lengths)
            if diagnostics is not None:
                diagnostics.append((t, diag))
        return eps_hat * mask

    shape = (y.shape[0], len(CHANNEL_NAMES), y.shape[1])
    return reverse_process(guided, shape, params.tau, schedule, rng)
