"""Batched generation helpers on top of the sampler.

Texts are grouped by length, and whole groups, in ascending length, are
packed into chains of at most ``CHAIN_ROWS`` rows (a larger group runs
alone). Each chain is one masked reverse process over its rows padded to
its longest text. Every group draws x_T and each step's noise from its own
rng substream keyed by (seed, length), in the shapes and order of a chain
of that group alone, so a text's draws do not depend on which other
lengths share its request or its chain.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import rng as rng_mod
from .config import RunConfig
from .corpus import Utterance
from .engine import no_grad
from .guidance import GuidanceParams, sample
from .style import encode_style
from .training import ModelBundle

CHAIN_ROWS = 16  # rows per chain, unless one length group alone has more


def archived_config(checkpoint_path: str | Path) -> RunConfig:
    """The run config that training archived next to a checkpoint."""
    config_path = Path(checkpoint_path).parent / "resolved_config.json"
    if not config_path.exists():
        raise FileNotFoundError(f"no resolved_config.json next to {checkpoint_path}")
    return RunConfig.load(config_path)


def style_conditions(bundle: ModelBundle, references: list[np.ndarray]) -> list[np.ndarray]:
    """Encode raw [3, L] references (natural units) into style vectors."""
    out = []
    with no_grad():
        for ref in references:
            c, _ = encode_style(bundle.bank, bundle.stats.normalize(ref)[None])
            out.append(c.data[0])
    return out


def token_weights_of(bundle: ModelBundle, reference: np.ndarray) -> np.ndarray:
    with no_grad():
        _, w = encode_style(bundle.bank, bundle.stats.normalize(reference)[None])
    return w.data[0]


def generate(
    bundle: ModelBundle,
    texts: list[np.ndarray],
    conditions: list[np.ndarray] | None,
    guidance: GuidanceParams,
    seed: int,
    zero_text: bool = False,
    diagnostics: list | None = None,
) -> list[np.ndarray]:
    """Sample one normalized [3, L_i] sequence per text.

    conditions: one style vector per text, or None for the
    style-unconditional path. zero_text replaces text embeddings with
    zeros, to probe a text-conditioned model without its text (a
    text-ablated model's embedder returns zeros by itself). diagnostics, if
    given, receives (t, text indices, RescaleDiagnostics) per guided step of
    each chain, one diagnostics row per listed text, in chain row order.
    """
    if conditions is not None and len(conditions) != len(texts):
        raise ValueError("need one style condition per text")
    by_length: dict[int, list[int]] = {}
    for i, ids in enumerate(texts):
        by_length.setdefault(len(ids), []).append(i)

    results: list[np.ndarray | None] = [None] * len(texts)
    for chain in _pack_chains(by_length):
        indices = [i for length in chain for i in by_length[length]]
        lengths = np.array([len(texts[i]) for i in indices])
        ids = np.zeros((len(indices), chain[-1]), dtype=np.int64)  # padded with id 0
        for row, i in enumerate(indices):
            ids[row, : lengths[row]] = texts[i]
        y = bundle.embedder.embed(ids)
        if zero_text:
            y = np.zeros_like(y)
        c = np.stack([conditions[i] for i in indices]) if conditions is not None else None
        noise = ChainNoise(
            [(rng_mod.substream(seed, rng_mod.SAMPLE_STREAM, n), len(by_length[n]), n) for n in chain]
        )
        steps: list | None = None if diagnostics is None else []
        batch = sample(bundle.denoisers, bundle.schedule, y, c, guidance, noise, steps, lengths)
        if diagnostics is not None:
            diagnostics.extend((t, indices, diag) for t, diag in steps)
        for row, i in enumerate(indices):
            results[i] = batch[row, :, : lengths[row]]
    return results  # type: ignore[return-value]


def _pack_chains(by_length: dict[int, list[int]]) -> list[list[int]]:
    """The lengths of each chain: whole groups in ascending length, at most
    CHAIN_ROWS rows per chain unless one group alone has more."""
    chains: list[list[int]] = []
    rows = 0
    for length in sorted(by_length):
        if not chains or rows + len(by_length[length]) > CHAIN_ROWS:
            chains.append([])
            rows = 0
        chains[-1].append(length)
        rows += len(by_length[length])
    return chains


class ChainNoise:
    """Standard normal draws for a padded chain of whole length groups.

    groups: (generator, rows, length) per group, in row order. Each
    standard_normal([B, C, L]) call fills each group's rows and first
    ``length`` positions from that group's own generator, in the shape an
    unpadded chain of that group would draw; padded positions are zero.
    """

    def __init__(self, groups: list[tuple[np.random.Generator, int, int]]):
        self.groups = groups

    def standard_normal(self, shape: tuple[int, int, int]) -> np.ndarray:
        out = np.zeros(shape)
        row = 0
        for gen, rows, length in self.groups:
            out[row : row + rows, :, :length] = gen.standard_normal((rows, shape[1], length))
            row += rows
        return out


def reconstruct(
    bundle: ModelBundle,
    utterances: list[Utterance],
    guidance: GuidanceParams,
    seed: int,
    conditional: bool = True,
    zero_text: bool = False,
) -> list[np.ndarray]:
    """Regenerate each utterance from its own text and style reference;
    returns denormalized [3, L] sequences (natural units)."""
    texts = [u.phoneme_ids for u in utterances]
    conditions = style_conditions(bundle, [u.prosody for u in utterances]) if conditional else None
    normalized = generate(bundle, texts, conditions, guidance, seed, zero_text=zero_text)
    return [bundle.stats.denormalize(x) for x in normalized]
