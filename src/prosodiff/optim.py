"""Adaptive-moment (Adam) parameter updates."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .engine import Parameter


class AdamState:
    """Adam's optimiser state: flat (row-major) first and second moments per
    parameter, and one step counter shared by every update."""

    def __init__(self, params: Iterable[Parameter]):
        params = list(params)
        self.moment1 = {p: np.zeros(p.tensor.size) for p in params}
        self.moment2 = {p: np.zeros(p.tensor.size) for p in params}
        self.step_counter = 0


def optimizer_step(
    params: Iterable[Parameter],
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> None:
    """Apply one Adam update to every parameter, then clear gradients.

    Raises if any parameter is missing its gradient; a partial update
    would silently desynchronise the moment estimates.
    """
    params = list(params)
    missing = [p.name for p in params if p.grad is None]
    if missing:
        raise ValueError(f"missing gradients for: {', '.join(missing)}")

    state.step_counter += 1
    t = state.step_counter
    for p in params:
        g = p.grad.reshape(-1)
        m = state.moment1[p] = beta1 * state.moment1[p] + (1.0 - beta1) * g
        v = state.moment2[p] = beta2 * state.moment2[p] + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        update = learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
        p.data = p.data - update.reshape(p.tensor.shape)
        p.zero_grad()


def grad_global_norm(params: Iterable[Parameter]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)
