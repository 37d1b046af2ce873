"""Noise-prediction network: a stack of bidirectional dilated-convolution
residual layers with gated activations.

Two instances with identical architectures form the guided module: one is
conditioned on text plus a style vector, the other on text plus its own
learned null-condition vector. Conditioning enters each layer's gate as a
1x1-projected condition sequence; the diffusion step enters as a projected
sinusoidal embedding added to the layer input.

Data layout is [B, C, L] with C=3 prosody channels (log-pitch, energy,
log-duration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, rng as rng_mod
from .engine import Parameter, Tensor


@dataclass(frozen=True)
class DenoiserConfig:
    residual_layers: int = 12
    residual_channels: int = 3  # the explicit prosody channels flowing through the stack
    kernel_size: int = 3
    dilation_cycle: tuple[int, ...] = (1, 2, 4, 8)
    hidden_channels: int = 64  # gate width; absorbs the condition projection
    time_embedding_dim: int = 64
    condition_dim: int = 64

    def __post_init__(self):
        if self.residual_layers < 1:
            raise ValueError("need at least one residual layer")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd")
        if self.time_embedding_dim % 2 != 0:
            raise ValueError("time embedding dim must be even")
        if not self.dilation_cycle or any(d < 1 for d in self.dilation_cycle):
            raise ValueError("dilation cycle must be positive")

    def dilations(self) -> list[int]:
        cycle = self.dilation_cycle
        return [cycle[i % len(cycle)] for i in range(self.residual_layers)]

    def receptive_field(self) -> int:
        """Total impulse-response support of the stack (in positions)."""
        return 1 + (self.kernel_size - 1) * sum(self.dilations())


def embed_time(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of diffusion step(s); [B, dim] for array t, [1, dim] for scalar.

    Distinct integer steps map to distinct vectors (integers never collide
    modulo the transcendental periods involved).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(t_arr < 1):
        raise ValueError("step index must be >= 1")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t_arr[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


class Denoiser:
    """One noise predictor eps(x_t, t, condition) over [B, 3, L] sequences."""

    def __init__(self, config: DenoiserConfig, accepts_style: bool, init_rng: np.random.Generator):
        self.config = config
        self.accepts_style = accepts_style
        self.params: dict[str, Parameter] = {}
        c = config.residual_channels
        h = config.hidden_channels
        k = config.kernel_size
        d_cond = config.condition_dim
        d_time = config.time_embedding_dim

        def add_conv(name: str, cout: int, cin: int, width: int):
            self._add(name + ".weight", engine.uniform_init((cout, cin, width), cin * width, init_rng))
            self._add(name + ".bias", np.zeros(cout))

        def add_dense(name: str, din: int, dout: int):
            self._add(name + ".weight", engine.uniform_init((din, dout), din, init_rng))
            self._add(name + ".bias", np.zeros(dout))

        add_conv("input_proj", c, c, 1)
        for i in range(config.residual_layers):
            add_dense(f"layers.{i}.time_proj", d_time, c)
            add_conv(f"layers.{i}.conv", 2 * h, c, k)
            add_conv(f"layers.{i}.cond_proj", 2 * h, d_cond, 1)
            # residual half stays data-width, skip half keeps the gate width
            add_conv(f"layers.{i}.out_proj", c + h, h, 1)
        add_conv("skip_proj", h, h, 1)
        add_conv("output_proj", c, h, 1)
        # time-gated linear passthrough: the optimal predictor is close to
        # sqrt(1-abar_t) * x_t at high noise, which bounded gates cannot
        # reach with the precision the terminal (clipped-beta) reverse
        # steps demand; a learned scalar gate of t absorbs that part
        self._add("passthrough.weight", np.zeros((d_time, 1)))
        self._add("passthrough.bias", np.zeros(1))
        # stands in for an absent style vector; only consulted when
        # accepts_style is False, so both instances share one name set
        self._add("null_condition", np.zeros(d_cond))

    def _add(self, name: str, value: np.ndarray) -> None:
        self.params[name] = Parameter(name, value)

    def parameters(self) -> dict[str, Parameter]:
        return self.params

    def trainable_parameters(self) -> list[Parameter]:
        """Parameters that participate in the forward pass (the null vector
        is dead weight while an external style condition is supplied)."""
        return [p for name, p in self.params.items() if name != "null_condition" or not self.accepts_style]

    def _p(self, name: str) -> Tensor:
        return self.params[name].tensor


def predict_noise(model: Denoiser, x_t, t, y: np.ndarray, c=None) -> Tensor:
    """Run the denoiser; returns the noise estimate as a [B, 3, L] tensor.

    x_t: [B, 3, L] array or Tensor. y: text embedding, [L, D] (shared) or
    [B, L, D]. c: style condition [B, D] array/Tensor, required iff
    model.accepts_style. t: scalar step or per-example [B] steps.
    """
    cfg = model.config
    x = engine.as_tensor(x_t)
    if x.ndim != 3 or x.shape[1] != cfg.residual_channels:
        raise ValueError(f"expected [B, {cfg.residual_channels}, L] input, got {x.shape}")
    batch, channels, length = x.shape

    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 2:
        y = y[None]
    if y.shape[1] != length:
        raise ValueError(f"text embedding covers {y.shape[1]} phonemes, input has {length}")
    if y.shape[2] != cfg.condition_dim:
        raise ValueError(f"text embedding dim {y.shape[2]} != condition dim {cfg.condition_dim}")
    cond_base = Tensor(np.ascontiguousarray(np.broadcast_to(y, (batch, length, cfg.condition_dim)).transpose(0, 2, 1)))

    if model.accepts_style:
        if c is None:
            raise ValueError("this denoiser is style-conditioned; pass c")
        c_t = engine.as_tensor(c)
        if c_t.ndim == 1:
            c_t = engine.reshape(c_t, (1, cfg.condition_dim))
        if c_t.shape[1] != cfg.condition_dim:
            raise ValueError(f"style condition dim {c_t.shape[1]} != {cfg.condition_dim}")
        cond = engine.add(cond_base, engine.reshape(c_t, (c_t.shape[0], cfg.condition_dim, 1)))
    else:
        if c is not None:
            raise ValueError("this denoiser is unconditional in style; c must be absent")
        null = engine.reshape(model._p("null_condition"), (1, cfg.condition_dim, 1))
        cond = engine.add(cond_base, null)

    t_emb = Tensor(embed_time(t, cfg.time_embedding_dim))  # [B or 1, d_time]

    # linear input mixing: a relu here would destroy sign information in a
    # stream this narrow, and high-noise steps need the identity map
    h = engine.conv1d(x, model._p("input_proj.weight"), model._p("input_proj.bias"))

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    skip_total = None
    for i, dilation in enumerate(cfg.dilations()):
        t_proj = engine.add(
            engine.matmul(t_emb, model._p(f"layers.{i}.time_proj.weight")),
            model._p(f"layers.{i}.time_proj.bias"),
        )
        t_proj = engine.reshape(t_proj, (t_proj.shape[0], channels, 1))
        gate_in = engine.conv1d(
            engine.add(h, t_proj),
            model._p(f"layers.{i}.conv.weight"),
            model._p(f"layers.{i}.conv.bias"),
            dilation=dilation,
        )
        gate_in = engine.add(
            gate_in,
            engine.conv1d(cond, model._p(f"layers.{i}.cond_proj.weight"), model._p(f"layers.{i}.cond_proj.bias")),
        )
        width = cfg.hidden_channels
        gated = engine.gated_activation(
            engine.narrow(gate_in, 1, 0, width), engine.narrow(gate_in, 1, width, 2 * width)
        )
        out = engine.conv1d(gated, model._p(f"layers.{i}.out_proj.weight"), model._p(f"layers.{i}.out_proj.bias"))
        residual = engine.narrow(out, 1, 0, channels)
        skip = engine.narrow(out, 1, channels, channels + width)
        h = engine.mul(engine.add(h, residual), inv_sqrt2)
        skip_total = skip if skip_total is None else engine.add(skip_total, skip)

    s = engine.mul(skip_total, 1.0 / math.sqrt(cfg.residual_layers))
    s = engine.relu(engine.conv1d(s, model._p("skip_proj.weight"), model._p("skip_proj.bias")))
    out = engine.conv1d(s, model._p("output_proj.weight"), model._p("output_proj.bias"))

    gate = engine.add(engine.matmul(t_emb, model._p("passthrough.weight")), model._p("passthrough.bias"))
    gate = engine.reshape(gate, (gate.shape[0], 1, 1))
    return engine.add(out, engine.mul(gate, x))


class TextEmbedder:
    """Fixed, seed-derived phoneme-identity + position embedding.

    Stands in for a trained text encoder: rows are near-orthogonal random
    vectors, so the (trained) per-layer condition projections can extract
    whatever identity/position signal they need. Not a Parameter on
    purpose; the two denoisers must share no trainable state.
    """

    def __init__(self, vocab_size: int, dim: int, seed: int):
        gen = rng_mod.substream(seed, rng_mod.MISC_STREAM, 1)
        self.vocab_size = vocab_size
        self.dim = dim
        # the text pathway must carry real signal energy relative to the
        # style vector, otherwise conditioning degenerates to style alone
        self.table = 1.5 * gen.standard_normal((vocab_size, dim))

    def _positional(self, length: int) -> np.ndarray:
        half = self.dim // 2
        pos = np.arange(length, dtype=np.float64)[:, None]
        freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
        angles = pos * freqs[None, :]
        return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)

    def embed(self, phoneme_ids: np.ndarray) -> np.ndarray:
        """[L] ids -> [L, dim]; [B, L] ids -> [B, L, dim]."""
        ids = np.asarray(phoneme_ids)
        if np.any(ids < 0) or np.any(ids >= self.vocab_size):
            raise ValueError("phoneme id outside vocabulary")
        return self.table[ids] + self._positional(ids.shape[-1])
