"""Minimal reverse-mode autodiff core over float64 numpy arrays.

Every op records its inputs and a vector-Jacobian closure on the output
tensor; ``Tensor.backward`` replays the recorded graph in reverse
topological order. The op set is deliberately small: exactly what a
dilated-convolution denoiser and a token-attention style encoder need.

Shapes follow the [B, C, L] convention for sequence tensors (batch,
channels, positions).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (pure inference)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A float64 array plus an optional gradient and graph record."""

    __slots__ = ("data", "grad", "_parents", "_vjp", "_backward_done")

    def __init__(self, data, parents: tuple = (), vjp: Callable | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self._parents = parents if _GRAD_ENABLED else ()
        self._vjp = vjp if _GRAD_ENABLED else None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every tensor reachable from this scalar."""
        if self.size != 1:
            raise ValueError(f"backward requires a scalar root, got shape {self.shape}")
        if self._backward_done:
            raise RuntimeError("backward already ran for this graph; rerun the forward pass")
        self._backward_done = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is None or node.grad is None:
                continue
            for parent, contribution in zip(node._parents, node._vjp(node.grad)):
                if contribution is None:
                    continue
                # accumulation always allocates, so aliasing g is harmless
                if parent.grad is None:
                    parent.grad = contribution
                else:
                    parent.grad = parent.grad + contribution

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# elementwise ------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out_data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out_data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out_data, (a, b), vjp)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out_data * out_data),)

    return Tensor(out_data, (x,), vjp)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    with np.errstate(over="ignore"):  # exp overflows to inf below about -709, where 1 / inf is the exact limit 0
        out_data = 1.0 / (1.0 + np.exp(-x.data))

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, (x,), vjp)


def relu(x) -> Tensor:
    x = as_tensor(x)
    dead = x.data <= 0.0  # false for NaN, which passes through
    out_data = np.where(dead, 0.0, x.data)

    def vjp(g):
        return (g * ~dead,)

    return Tensor(out_data, (x,), vjp)


def gated_activation(a, b) -> Tensor:
    """tanh(a) * sigmoid(b), elementwise; the WaveNet-style gate."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"gate halves must match: {a.shape} vs {b.shape}")
    return mul(tanh(a), sigmoid(b))


# reductions and shape ops ------------------------------------------------


def sum_(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    out_data = x.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return Tensor(out_data, (x,), vjp)


def mean(x, axis: int | None = None) -> Tensor:
    x = as_tensor(x)
    n = x.size if axis is None else x.shape[axis]
    return mul(sum_(x, axis=axis), 1.0 / n)


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    out_data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return Tensor(out_data, (x,), vjp)


def transpose2d(x) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"transpose2d expects a matrix, got {x.shape}")
    out_data = x.data.T

    def vjp(g):
        return (g.T,)

    return Tensor(out_data, (x,), vjp)


def narrow(x, axis: int, start: int, stop: int) -> Tensor:
    """Slice ``x`` to [start, stop) along ``axis`` (negative counts from the
    end); gradient scatters back into zeros."""
    x = as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise ValueError(f"axis {axis} out of range for a {x.ndim}-d input")
    axis %= x.ndim
    if not 0 <= start <= stop <= x.shape[axis]:
        raise ValueError(f"range [{start}, {stop}) outside 0..{x.shape[axis]} on axis {axis}")
    index = (slice(None),) * axis + (slice(start, stop),)
    out_data = x.data[index]

    def vjp(g):
        full = np.zeros(x.shape)
        full[index] = g
        return (full,)

    return Tensor(out_data, (x,), vjp)


def downsample(x, step: int) -> Tensor:
    """Keep every ``step``-th position along the last axis."""
    x = as_tensor(x)
    if step < 1:
        raise ValueError("step must be >= 1")
    out_data = x.data[..., ::step]

    def vjp(g):
        full = np.zeros(x.shape)
        full[..., ::step] = g
        return (full,)

    return Tensor(out_data, (x,), vjp)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - inner),)

    return Tensor(out_data, (x,), vjp)


# linear maps -------------------------------------------------------------


def matmul(a, b, bias=None) -> Tensor:
    """a @ b (+ bias) for a: [n, d], b: [d, k], bias: [k] or None."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects [n,d] @ [d,k], got {a.shape} @ {b.shape}")
    parents = (a, b)
    out_data = np.matmul(a.data, b.data)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (b.shape[1],):
            raise ValueError(f"bias must be {(b.shape[1],)}, got {bias.shape}")
        parents += (bias,)
        out_data += bias.data

    def vjp(g):
        grad_a = np.matmul(g, b.data.T)
        grad_b = np.matmul(a.data.T, g)
        if bias is None:
            return grad_a, grad_b
        return grad_a, grad_b, g.sum(axis=0)

    return Tensor(out_data, parents, vjp)


def conv1d(x, weight, bias=None, dilation: int = 1) -> Tensor:
    """Non-causal dilated 1-D convolution, output length == input length.

    x: [B, Cin, L]; weight: [Cout, Cin, K] with K odd; bias: [Cout] or None.
    Symmetric zero padding of dilation*(K-1)//2 on both sides, so every
    output position sees context to its left and right.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 3 or weight.ndim != 3:
        raise ValueError(f"conv1d expects [B,Cin,L] and [Cout,Cin,K], got {x.shape}, {weight.shape}")
    cout, cin, kernel_size = weight.shape
    if kernel_size % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {kernel_size}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if x.shape[1] != cin:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {cin}")
    parents = (x, weight)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (cout,):
            raise ValueError(f"bias must be {(cout,)}, got {bias.shape}")
        parents += (bias,)
    batch, _, length = x.shape
    pad = dilation * (kernel_size - 1) // 2
    span = length + 2 * pad

    # im2col: column row i*K + k is input channel i read at tap k, matching
    # the [Cout, Cin*K] view of the weight; for K == 1 it is the input itself
    w2 = weight.data.reshape(cout, cin * kernel_size)
    if kernel_size == 1:
        cols = x.data
    else:
        padded = np.zeros((batch, cin, span))
        padded[..., pad : pad + length] = x.data
        taps = dilation * np.arange(kernel_size)[:, None] + np.arange(length)  # [K, L] padded positions
        cols = padded.take(taps, axis=-1).reshape(batch, cin * kernel_size, length)
    out_data = np.matmul(w2, cols)
    if bias is not None:
        out_data += bias.data[:, None]

    def vjp(g):
        grad_w = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(weight.shape)  # over batch and positions
        grad_x = np.matmul(w2.T, g)
        if kernel_size > 1:
            grad_taps = grad_x.reshape(batch, cin, kernel_size, length)
            grad_padded = np.zeros((batch, cin, span))
            for k in range(kernel_size):
                grad_padded[..., k * dilation : k * dilation + length] += grad_taps[..., k, :]
            grad_x = grad_padded[..., pad : pad + length]
        if bias is None:
            return grad_x, grad_w
        return grad_x, grad_w, g.sum(axis=(0, 2))

    return Tensor(out_data, parents, vjp)


def mse(a, b) -> Tensor:
    """Mean of squared differences over all elements."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mse shapes differ: {a.shape} vs {b.shape}")
    d = sub(a, b)
    return mean(mul(d, d))


def uniform_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Zero-mean uniform weights scaled by fan-in: U(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
