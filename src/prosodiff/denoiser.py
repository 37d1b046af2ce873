"""Noise-prediction network: a stack of bidirectional dilated-convolution
residual layers with gated activations.

Two members with identical architectures form the guided module: theta1 is
conditioned on text plus a style vector, theta2 on text plus its own
learned null-condition vector. Conditioning enters each layer's gate as a
1x1-projected condition sequence; the diffusion step enters as a projected
sinusoidal embedding added to the layer input. A ``Denoiser`` holds M such
members stacked (theta1 and theta2 are members 0 and 1 of one): one forward
pass yields every member's prediction, and ``Denoiser.member`` views one
member as a one-member model, to sample or to train it alone.

Data layout is [B, C, L] with C=3 prosody channels (log-pitch, energy,
log-duration).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import engine, rng as rng_mod
from .corpus import CHANNEL_NAMES
from .engine import Tensor


@dataclass(frozen=True)
class DenoiserConfig:
    residual_layers: int = 12
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
        if min(self.hidden_channels, self.time_embedding_dim, self.condition_dim) < 1:
            raise ValueError("hidden_channels, time_embedding_dim and condition_dim must be positive")
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


def sinusoid(positions: np.ndarray, dim: int) -> np.ndarray:
    """[N] float positions -> [N, dim] table: sines then cosines at geometric frequencies 1 .. 1/10000."""
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = positions[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def embed_time(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of diffusion step(s); [B, dim] for array t, [1, dim] for scalar.

    Distinct integer steps map to distinct vectors (integers never collide
    modulo the transcendental periods involved).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(t_arr < 1):
        raise ValueError("step index must be >= 1")
    return sinusoid(t_arr, dim)


class Denoiser:
    """M same-architecture noise predictors eps(x_t, t, condition) over
    [B, 3, L] sequences, stacked: each parameter is the [M, ...] stack of
    the members' own, so one forward pass serves every member. Member i is
    drawn from ``init_rngs[i]``. Member 0 takes the style vector when
    ``accepts_style``; every other member takes its own null vector."""

    def __init__(self, config: DenoiserConfig, accepts_style: bool, *init_rngs: np.random.Generator):
        self.config = config
        self.accepts_style = accepts_style
        drawn = [_initial_params(config, init_rng) for init_rng in init_rngs]
        self.params = {name: Tensor(np.stack([member[name] for member in drawn])) for name in drawn[0]}

    def member(self, index: int) -> Denoiser:
        """Member ``index`` as a one-member denoiser over views of its slices.
        Its gradients land on the view's own tensors, not on this model's,
        and an in-place update of its parameters updates this model's."""
        view = copy.copy(self)
        view.accepts_style = self.accepts_style and index == 0
        view.params = {name: Tensor(p.data[index : index + 1]) for name, p in self.params.items()}
        return view


def _initial_params(config: DenoiserConfig, init_rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One member's freshly drawn parameters, by name."""
    params: dict[str, np.ndarray] = {}
    c = len(CHANNEL_NAMES)  # the residual stream is the prosody channels themselves
    h = config.hidden_channels
    k = config.kernel_size
    d_cond = config.condition_dim
    d_time = config.time_embedding_dim

    def add_conv(name: str, cout: int, cin: int, width: int):
        params[name + ".weight"] = engine.uniform_init((cout, cin, width), cin * width, init_rng)
        params[name + ".bias"] = np.zeros(cout)

    def add_dense(name: str, din: int, dout: int):
        params[name + ".weight"] = engine.uniform_init((din, dout), din, init_rng)
        params[name + ".bias"] = np.zeros(dout)

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
    params["passthrough.weight"] = np.zeros((d_time, 1))
    params["passthrough.bias"] = np.zeros(1)
    # stands in for an absent style vector; every member has one, so all
    # members share one name set, but member 0 ignores it when accepts_style
    params["null_condition"] = np.zeros(d_cond)
    return params


def predict_noise(model: Denoiser, x_t, t, y: np.ndarray, c=None, mask=None) -> Tensor:
    """Run every member of the denoiser; returns the noise estimates as an
    [M, B, 3, L] tensor, member i's at index i, each bit-identical to a
    one-member forward pass over its slice of the weights.

    x_t: [B, 3, L] array or Tensor. y: text embedding, [L, D] (shared) or
    [B, L, D]. c: style condition [B, D] array/Tensor for member 0, required
    iff model.accepts_style. t: scalar step or per-example [B] steps.
    mask: optional [B, 1, L] 0/1 array marking each row's valid positions in
    a padded batch. Each dilated conv reads its input times the mask, so it
    sees zeros past a row's end as it would without the padding; every
    other op is position-local, so padded positions never reach valid ones.
    """
    cfg = model.config
    p = model.params
    x = engine.as_tensor(x_t)
    if x.ndim != 3 or x.shape[1] != len(CHANNEL_NAMES):
        raise ValueError(f"expected [B, {len(CHANNEL_NAMES)}, L] input, got {x.shape}")
    batch, channels, length = x.shape
    if mask is not None and np.shape(mask) != (batch, 1, length):
        raise ValueError(f"mask must be {(batch, 1, length)}, got {np.shape(mask)}")

    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 2:
        y = y[None]
    if y.shape[1] != length:
        raise ValueError(f"text embedding covers {y.shape[1]} phonemes, input has {length}")
    if y.shape[2] != cfg.condition_dim:
        raise ValueError(f"text embedding dim {y.shape[2]} != condition dim {cfg.condition_dim}")
    cond_base = Tensor(np.ascontiguousarray(np.broadcast_to(y, (batch, length, cfg.condition_dim)).transpose(0, 2, 1)))

    # every member on its own null vector, except member 0 on the style vector
    null = p["null_condition"]  # [M, D]
    offsets = [engine.narrow(null, 0, i, i + 1) for i in range(null.shape[0])]  # [1, D] each
    if model.accepts_style:
        if c is None:
            raise ValueError("this denoiser is style-conditioned; pass c")
        c_t = engine.as_tensor(c)
        if c_t.shape[-1] != cfg.condition_dim:
            raise ValueError(f"style condition dim {c_t.shape[-1]} != {cfg.condition_dim}")
        offsets[0] = engine.reshape(c_t, (-1, cfg.condition_dim))  # [B or 1, D]
    elif c is not None:
        raise ValueError("this denoiser is unconditional in style; c must be absent")
    cond = engine.stack([engine.add(cond_base, engine.reshape(o, o.shape + (1,))) for o in offsets])  # [M, B, D, L]

    t_emb = Tensor(embed_time(t, cfg.time_embedding_dim))  # [B or 1, d_time]

    # linear input mixing: a relu here would destroy sign information in a
    # stream this narrow, and high-noise steps need the identity map
    h = engine.conv1d(x, p["input_proj.weight"], p["input_proj.bias"])

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    skip_total = None
    for i, dilation in enumerate(cfg.dilations()):
        t_proj = engine.matmul(t_emb, p[f"layers.{i}.time_proj.weight"], p[f"layers.{i}.time_proj.bias"])
        t_proj = engine.reshape(t_proj, t_proj.shape[:-1] + (channels, 1))
        conv_in = engine.add(h, t_proj)
        if mask is not None:
            conv_in = engine.mul(conv_in, mask)
        gate_in = engine.conv1d(
            conv_in,
            p[f"layers.{i}.conv.weight"],
            p[f"layers.{i}.conv.bias"],
            dilation=dilation,
        )
        gate_in = engine.add(
            gate_in,
            engine.conv1d(cond, p[f"layers.{i}.cond_proj.weight"], p[f"layers.{i}.cond_proj.bias"]),
        )
        width = cfg.hidden_channels
        gated = engine.gated_activation(
            engine.narrow(gate_in, -2, 0, width), engine.narrow(gate_in, -2, width, 2 * width)
        )
        out = engine.conv1d(gated, p[f"layers.{i}.out_proj.weight"], p[f"layers.{i}.out_proj.bias"])
        residual = engine.narrow(out, -2, 0, channels)
        skip = engine.narrow(out, -2, channels, channels + width)
        h = engine.mul(engine.add(h, residual), inv_sqrt2)
        skip_total = skip if skip_total is None else engine.add(skip_total, skip)

    s = engine.mul(skip_total, 1.0 / math.sqrt(cfg.residual_layers))
    s = engine.relu(engine.conv1d(s, p["skip_proj.weight"], p["skip_proj.bias"]))
    out = engine.conv1d(s, p["output_proj.weight"], p["output_proj.bias"])

    gate = engine.matmul(t_emb, p["passthrough.weight"], p["passthrough.bias"])
    gate = engine.reshape(gate, gate.shape[:-1] + (1, 1))
    return engine.add(out, engine.mul(gate, x))


class TextEmbedder:
    """Fixed, seed-derived phoneme-identity + position embedding.

    Stands in for a trained text encoder: rows are near-orthogonal random
    vectors, so the (trained) per-layer condition projections can extract
    whatever identity/position signal they need. Not in any model's
    ``params`` on purpose; the two denoisers must share no trainable state.
    Checkpoints store ``table``, so a trained model keeps its embedding
    whatever seed later loads it. An ``ablated`` embedder (the
    text-conditioning ablation) embeds every valid text as zeros; it still
    draws and checkpoints its table.
    """

    def __init__(self, vocab_size: int, dim: int, seed: int, ablated: bool = False):
        gen = rng_mod.substream(seed, rng_mod.MISC_STREAM, 1)
        self.vocab_size = vocab_size
        self.dim = dim
        self.ablated = ablated
        # the text pathway must carry real signal energy relative to the
        # style vector, otherwise conditioning degenerates to style alone
        self.table = 1.5 * gen.standard_normal((vocab_size, dim))

    def embed(self, phoneme_ids: np.ndarray) -> np.ndarray:
        """[L] ids -> [L, dim]; [B, L] ids -> [B, L, dim]."""
        ids = np.asarray(phoneme_ids)
        if np.any(ids < 0) or np.any(ids >= self.vocab_size):
            raise ValueError("phoneme id outside vocabulary")
        if self.ablated:
            return np.zeros(ids.shape + (self.dim,))
        return self.table[ids] + sinusoid(np.arange(ids.shape[-1], dtype=np.float64), self.dim)
