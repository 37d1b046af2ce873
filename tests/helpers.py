"""Shared test utilities: the central finite-difference oracle, and run
configs built from component configs.

The numeric gradient is computed entirely outside the autodiff engine so
every comparison is against an independent path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from prosodiff import engine
from prosodiff.config import RunConfig, ScheduleSettings
from prosodiff.corpus import CorpusConfig
from prosodiff.training import TrainConfig

FD_STEP = 1e-4
FD_TOL = 1e-4


def numeric_gradient(scalar_fn, array: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences of scalar_fn() with respect to ``array`` (perturbed in place)."""
    grad = np.zeros_like(array)
    flat, gflat = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        f_plus = scalar_fn()
        flat[i] = original - step
        f_minus = scalar_fn()
        flat[i] = original
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def assert_gradients_match(build_loss, arrays: list[np.ndarray], tol: float = FD_TOL) -> None:
    """build_loss(*tensors) must return a scalar Tensor; checks every input's gradient."""
    tensors = [engine.Tensor(a) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()

    def evaluate() -> float:
        return float(build_loss(*[engine.Tensor(a) for a in arrays]).data)

    for idx, (tensor, array) in enumerate(zip(tensors, arrays)):
        numeric = numeric_gradient(evaluate, array)
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(array)
        scale = np.maximum(1.0, np.maximum(np.abs(numeric), np.abs(analytic)))
        worst = np.max(np.abs(numeric - analytic) / scale)
        assert worst < tol, f"input {idx}: finite-difference mismatch {worst:.3e}"


def run_config(denoiser, style, schedule_steps: int, seed: int, corpus: CorpusConfig | None = None, **train) -> RunConfig:
    """A RunConfig around component configs, for building models with
    ``build_models``; ``train`` overrides TrainConfig fields."""
    return RunConfig(
        seed=seed,
        corpus=corpus or CorpusConfig(),
        denoiser=denoiser,
        style=style,
        schedule=ScheduleSettings(steps=schedule_steps),
        train=TrainConfig(**train),
    )


def assert_no_child_process():
    with pytest.raises(ChildProcessError):  # waitpid finds no child, running or exited
        os.waitpid(-1, os.WNOHANG)
