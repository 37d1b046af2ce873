"""Style-token bank: reference encoder, token attention, weight-driven control.

A reference prosody sequence is encoded to a query vector; multi-head
scaled-dot-product scores against a bank of learnable tokens yield one
softmax distribution w over tokens, and the style condition is the
w-weighted sum of value-projected tokens. At inference w can instead be
supplied directly (one-hot or any mixture) to control generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .corpus import CHANNEL_NAMES
from .engine import Tensor

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class StyleConfig:
    token_count: int = 4  # desk-scale default: one per corpus archetype
    token_dim: int = 64
    attention_heads: int = 4
    ref_channels: int = 32

    def __post_init__(self):
        if self.token_count < 2:
            raise ValueError("need at least 2 style tokens")
        if min(self.token_dim, self.attention_heads, self.ref_channels) < 1:
            raise ValueError("token_dim, attention_heads and ref_channels must be positive")
        if self.token_dim % self.attention_heads != 0:
            raise ValueError("attention heads must divide token dim")


class StyleBank:
    """Learnable tokens plus the reference-encoder and attention parameters;
    token values have the denoiser's ``condition_dim`` width."""

    def __init__(self, config: StyleConfig, condition_dim: int, init_rng: np.random.Generator):
        self.config = config
        self.params: dict[str, Tensor] = {}
        k, d, rc = config.token_count, config.token_dim, config.ref_channels
        channels = len(CHANNEL_NAMES)

        def add(name, value):
            self.params[name] = Tensor(value)

        add("tokens", engine.uniform_init((k, d), d, init_rng))
        # wider-than-fan-in init: with a tanh-bounded query, fan-in-scaled
        # scores start so flat that attention stays near-uniform and the
        # tokens never specialise
        add("attn.query.weight", 3.0 * engine.uniform_init((d, d), d, init_rng))
        add("attn.key.weight", 3.0 * engine.uniform_init((d, d), d, init_rng))
        add("value.weight", engine.uniform_init((d, condition_dim), d, init_rng))
        add("ref.conv1.weight", engine.uniform_init((rc, channels, 3), channels * 3, init_rng))
        add("ref.conv1.bias", np.zeros(rc))
        add("ref.conv2.weight", engine.uniform_init((rc, rc, 3), rc * 3, init_rng))
        add("ref.conv2.bias", np.zeros(rc))
        add("ref.proj.weight", engine.uniform_init((rc, d), rc, init_rng))
        add("ref.proj.bias", np.zeros(d))

    def _token_values(self) -> Tensor:
        # [K, condition_dim]; the projected embeddings that weights mix
        return engine.matmul(self.params["tokens"], self.params["value.weight"])


def encode_reference(bank: StyleBank, reference) -> Tensor:
    """Strided-conv + mean-pool encoder: [B, 3, L] prosody -> [B, token_dim] query."""
    x = engine.as_tensor(reference)
    if x.ndim == 2:
        x = engine.reshape(x, (1, *x.shape))
    if x.ndim != 3 or x.shape[1] != len(CHANNEL_NAMES):
        raise ValueError(f"reference must be [B, {len(CHANNEL_NAMES)}, L], got {x.shape}")
    if x.shape[2] < 1:
        raise ValueError("reference is empty")
    x = engine.relu(engine.conv1d(x, bank.params["ref.conv1.weight"], bank.params["ref.conv1.bias"]))
    x = engine.downsample(x, 2)
    x = engine.relu(engine.conv1d(x, bank.params["ref.conv2.weight"], bank.params["ref.conv2.bias"]))
    x = engine.downsample(x, 2)
    pooled = engine.mean(x, axis=2)  # [B, ref_channels]
    query = engine.matmul(pooled, bank.params["ref.proj.weight"], bank.params["ref.proj.bias"])
    return engine.tanh(query)


def attend(bank: StyleBank, query: Tensor) -> Tensor:
    """Multi-head scores against the token bank, averaged into one [B, K] softmax."""
    cfg = bank.config
    head_dim = cfg.token_dim // cfg.attention_heads
    scale = 1.0 / math.sqrt(head_dim)
    q_all = engine.matmul(query, bank.params["attn.query.weight"])  # [B, D]
    k_all = engine.matmul(bank.params["tokens"], bank.params["attn.key.weight"])  # [K, D]
    scores = None
    for head in range(cfg.attention_heads):
        lo, hi = head * head_dim, (head + 1) * head_dim
        part = engine.matmul(engine.narrow(q_all, 1, lo, hi), engine.transpose2d(engine.narrow(k_all, 1, lo, hi)))
        scores = part if scores is None else engine.add(scores, part)
    scores = engine.mul(scores, scale / cfg.attention_heads)
    return engine.softmax(scores, axis=-1)


def encode_style(bank: StyleBank, reference) -> tuple[Tensor, Tensor]:
    """Reference prosody -> (style condition c [B, Dc], token weights w [B, K])."""
    query = encode_reference(bank, reference)
    w = attend(bank, query)
    c = engine.matmul(w, bank._token_values())
    return c, w


def check_simplex(weights: np.ndarray, tol: float = SIMPLEX_TOL) -> None:
    if np.any(weights < -tol):
        raise ValueError("token weights must be nonnegative")
    sums = weights.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise ValueError(f"token weights must sum to 1 (got {sums})")


def condition_from_weights(bank: StyleBank, weights, raw: bool = False) -> Tensor:
    """Mix value-projected tokens with explicit weights.

    weights: [K] or [B, K]. Unless ``raw``, they must lie on the simplex;
    raw weights (negative or >1 entries) deliberately over/under-drive a
    style direction.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim == 1:
        w = w[None]
    if w.shape[1] != bank.config.token_count:
        raise ValueError(f"expected {bank.config.token_count} weights, got {w.shape[1]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("token weights must be finite")
    if not raw:
        check_simplex(w)
    return engine.matmul(Tensor(w), bank._token_values())


def one_hot_weights(token_id: int, token_count: int) -> np.ndarray:
    if not 0 <= token_id < token_count:
        raise ValueError(f"token id {token_id} outside 0..{token_count - 1}")
    w = np.zeros(token_count)
    w[token_id] = 1.0
    return w


def normalize_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum to be normalised")
    return w / total
