"""Batched generation helpers on top of the sampler.

Utterances are grouped by length so each group runs as one [B, 3, L]
batch; every group draws from an rng substream keyed by (seed, length),
making results reproducible regardless of how many groups there are.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import rng as rng_mod
from .config import RunConfig
from .corpus import Corpus, Utterance
from .engine import no_grad
from .guidance import GuidanceParams, sample
from .schedule import cosine_schedule
from .style import encode_style
from .training import ModelBundle, build_models


def bundle_from_config(run: RunConfig, corpus: Corpus) -> ModelBundle:
    """Freshly initialised models for ``run``; the only place a run's
    schedule settings become a NoiseSchedule."""
    return build_models(
        run.denoiser,
        run.style,
        cosine_schedule(run.schedule.steps, run.schedule.offset),
        run.corpus.vocab_size,
        corpus.stats,
        run.seed,
        style_condition=run.train.style_condition,
    )


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
    zeros (text-conditioning ablation).
    """
    if conditions is not None and len(conditions) != len(texts):
        raise ValueError("need one style condition per text")
    by_length: dict[int, list[int]] = {}
    for i, ids in enumerate(texts):
        by_length.setdefault(len(ids), []).append(i)

    results: list[np.ndarray | None] = [None] * len(texts)
    for length in sorted(by_length):
        indices = by_length[length]
        ids = np.stack([texts[i] for i in indices])
        y = bundle.embedder.embed(ids)
        if zero_text:
            y = np.zeros_like(y)
        c = np.stack([conditions[i] for i in indices]) if conditions is not None else None
        gen = rng_mod.substream(seed, rng_mod.SAMPLE_STREAM, length)
        batch = sample(bundle.denoisers, bundle.schedule, y, c, guidance, gen, diagnostics)
        for row, i in enumerate(indices):
            results[i] = batch[row]
    return results  # type: ignore[return-value]


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
