"""Adaptive-moment (Adam) parameter updates, elementwise and in place.

The state is two moments per parameter, and no step count: the caller
passes the step that bias correction uses (training, its training step).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .engine import Tensor

BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPSILON = 1e-8  # added to the root of the second moment


class AdamState:
    """Adam's optimiser state: first and second moments per parameter, in
    the parameter's shape and keyed by its name."""

    def __init__(self, params: dict[str, Tensor]):
        self.moment1 = {name: np.zeros(p.shape) for name, p in params.items()}
        self.moment2 = {name: np.zeros(p.shape) for name, p in params.items()}


def optimizer_step(params: Iterable[tuple[str, Tensor]], state: AdamState, learning_rate: float, step: int) -> None:
    """Apply Adam update number ``step`` (counted from 1) to every (name,
    parameter) pair, then clear gradients.

    Raises if any parameter is missing its gradient; a partial update
    would silently desynchronise the moment estimates.
    """
    params = list(params)
    missing = [name for name, p in params if p.grad is None]
    if missing:
        raise ValueError(f"missing gradients for: {', '.join(missing)}")

    for name, p in params:
        g = p.grad
        m, v = state.moment1[name], state.moment2[name]  # updated in place
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1**step)
        v_hat = v / (1.0 - BETA2**step)
        update = learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
        p.data -= update
        p.zero_grad()
