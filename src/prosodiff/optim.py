"""Adaptive-moment (Adam) parameter updates. They are elementwise: each
member's slice of a stacked theta1/theta2 parameter moves exactly as a
tensor of its own would, and a slice whose gradient is exactly zero does
not move at all."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .engine import Tensor


class AdamState:
    """Adam's optimiser state: first and second moments per parameter, in
    the parameter's shape and keyed by its name, and one step counter
    shared by every update."""

    def __init__(self, params: dict[str, Tensor]):
        self.moment1 = {name: np.zeros(p.shape) for name, p in params.items()}
        self.moment2 = {name: np.zeros(p.shape) for name, p in params.items()}
        self.step_counter = 0


def optimizer_step(
    params: Iterable[tuple[str, Tensor]],
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> None:
    """Apply one Adam update to every (name, parameter) pair, then clear gradients.

    Raises if any parameter is missing its gradient; a partial update
    would silently desynchronise the moment estimates.
    """
    params = list(params)
    missing = [name for name, p in params if p.grad is None]
    if missing:
        raise ValueError(f"missing gradients for: {', '.join(missing)}")

    state.step_counter += 1
    t = state.step_counter
    for name, p in params:
        g = p.grad
        m, v = state.moment1[name], state.moment2[name]  # updated in place: they may be views of a stack
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        update = learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
        p.data -= update
        p.zero_grad()
