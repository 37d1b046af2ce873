"""Batched generation helpers on top of the sampler.

Texts are grouped by length, and whole groups, in ascending length, are
packed into chains of at most ``CHAIN_ROWS`` rows (a larger group runs
alone). Each chain, one length or several, is one masked reverse process
over its rows padded to its longest text. Every group draws x_T and each
step's noise from its own rng substream keyed by (seed, length), in the
shapes and order of a chain of that group alone, so a text's draws do not
depend on which other lengths share its request or its chain.

A chain runs as one or more pieces. While a request has fewer pieces than
usable CPUs, its costliest piece (rows times its chain's longest length)
that holds two or more length groups is split at the group boundary
nearest half its rows; so a request with at least as many chains as CPUs
runs each chain whole, and no request has more pieces than length groups.
Every piece stays padded to its chain's longest text and keeps each
group's own generator, so each row meets the same array shapes and draws
as in the whole chain, and its result is the same to the bit (padded to
its own longest text instead, a piece's samples moved in the last bits).

The pieces run in shares, one per usable CPU (at most one per piece),
each share a loop that ``parallel.apart`` runs: share 0 in this process
and each other share in a forked child, which yields its outcomes once,
when its pieces are done. No piece reads what another writes, and results
and diagnostics are gathered in chain and row order, a split chain's
diagnostics merged per step, so the outputs do not depend on the CPU
count. One share forks nothing.
"""

from __future__ import annotations

from dataclasses import astuple
from pathlib import Path
from typing import Iterator

import numpy as np

from . import parallel
from . import rng as rng_mod
from .config import RunConfig
from .corpus import Utterance
from .engine import no_grad
from .guidance import GuidanceParams, RescaleDiagnostics, sample
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


def generate(
    bundle: ModelBundle,
    texts: list[np.ndarray],
    conditions: list[np.ndarray] | None,
    guidance: GuidanceParams,
    seed: int,
    diagnostics: list | None = None,
) -> list[np.ndarray]:
    """Sample one normalized [3, L_i] sequence per text; an empty text is rejected.

    conditions: one style vector per text, or None for the
    style-unconditional path. Texts are embedded by the bundle's own
    embedder, so a text-ablated bundle samples without its text.
    diagnostics, if given, receives (t, text indices, RescaleDiagnostics)
    per guided step of each chain, one diagnostics row per listed text, in
    chain row order, a split chain's pieces merged. A request is split
    into pieces, each padded to its chain's longest text, until every
    usable CPU has one or every piece is one length group; a request of at
    least as many chains as CPUs runs each chain whole (see the module
    docstring). Samples and diagnostics are the same to the bit whatever
    the CPU count.
    """
    if conditions is not None and len(conditions) != len(texts):
        raise ValueError("need one style condition per text")
    by_length: dict[int, list[int]] = {}
    for i, ids in enumerate(texts):
        if len(ids) == 0:
            raise ValueError(f"text {i} is empty")
        by_length.setdefault(len(ids), []).append(i)
    cpus = parallel.usable_cpus()
    chains = _pack_chains(by_length)
    pieces = _split_chains(chains, by_length, cpus)

    def rows(lengths: list[int]) -> list[int]:
        return [i for n in lengths for i in by_length[n]]

    def run_piece(p: int) -> tuple[np.ndarray, list | None]:
        k, piece = pieces[p]
        indices = rows(piece)
        lengths = np.array([len(texts[i]) for i in indices])
        ids = np.zeros((len(indices), chains[k][-1]), dtype=np.int64)  # padded with id 0 to its chain's longest
        for row, i in enumerate(indices):
            ids[row, : lengths[row]] = texts[i]
        y = bundle.embedder.embed(ids)
        c = np.stack([conditions[i] for i in indices]) if conditions is not None else None
        noise = ChainNoise(
            [(rng_mod.substream(seed, rng_mod.SAMPLE_STREAM, n), len(by_length[n]), n) for n in piece]
        )
        steps: list | None = None if diagnostics is None else []
        return sample(bundle.denoisers, bundle.schedule, y, c, guidance, noise, steps, lengths), steps

    costs = [len(rows(piece)) * chains[k][-1] for k, piece in pieces]
    shares = _balanced_shares(costs, cpus)

    def run_share(share: list[int]) -> Iterator[dict]:  # one value: a child never waits on a full pipe
        yield {p: run_piece(p) for p in share}

    with parallel.apart([run_share(share) for share in shares]) as loops:
        outcomes = {p: outcome for loop in loops for part in loop for p, outcome in part.items()}
    results: list[np.ndarray | None] = [None] * len(texts)
    for k, chain in enumerate(chains):
        parts = [outcomes[p] for p, (kp, _) in enumerate(pieces) if kp == k]
        indices = rows(chain)
        if diagnostics is not None:
            for per_piece in zip(*(steps for _, steps in parts)):  # one (t, diagnostics) per piece
                merged = [np.concatenate(arrays) for arrays in zip(*(astuple(diag) for _, diag in per_piece))]
                diagnostics.append((per_piece[0][0], indices, RescaleDiagnostics(*merged)))
        batch = np.concatenate([batch for batch, _ in parts])
        for row, i in enumerate(indices):
            results[i] = batch[row, :, : len(texts[i])]
    return results  # type: ignore[return-value]


def _balanced_shares(costs: list[int], count: int) -> list[list[int]]:
    """Piece indices in min(count, pieces) shares, at least one: largest cost
    first, each to the least-loaded share (ties to the earlier piece and the
    lower share); each share lists its pieces in piece order."""
    shares: list[list[int]] = [[] for _ in range(max(1, min(count, len(costs))))]
    loads = [0] * len(shares)
    for k in sorted(range(len(costs)), key=lambda k: -costs[k]):
        share = loads.index(min(loads))
        shares[share].append(k)
        loads[share] += costs[k]
    return [sorted(share) for share in shares]


def _split_chains(chains: list[list[int]], by_length: dict[int, list[int]], count: int) -> list[tuple[int, list[int]]]:
    """(chain index, lengths) of each piece, in chain and row order: each
    chain whole, then, while fewer than count pieces, the costliest piece of
    two or more groups (the earlier on a tie) split at the group boundary
    nearest half its rows (the earlier on a tie)."""
    pieces = [(k, chain) for k, chain in enumerate(chains)]

    def row_count(lengths: list[int]) -> int:
        return sum(len(by_length[n]) for n in lengths)

    while len(pieces) < count:
        splittable = [p for p, (_, lengths) in enumerate(pieces) if len(lengths) > 1]
        if not splittable:
            break
        p = max(splittable, key=lambda p: row_count(pieces[p][1]) * chains[pieces[p][0]][-1])
        k, lengths = pieces[p]
        cut = min(range(1, len(lengths)), key=lambda b: abs(2 * row_count(lengths[:b]) - row_count(lengths)))
        pieces[p : p + 1] = [(k, lengths[:cut]), (k, lengths[cut:])]
    return pieces


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
    bundle: ModelBundle, utterances: list[Utterance], guidance: GuidanceParams, seed: int
) -> list[np.ndarray]:
    """Regenerate each utterance from its own text and style reference;
    returns denormalized [3, L] sequences (natural units)."""
    texts = [u.phoneme_ids for u in utterances]
    conditions = style_conditions(bundle, [u.prosody for u in utterances])
    normalized = generate(bundle, texts, conditions, guidance, seed)
    return [bundle.stats.denormalize(x) for x in normalized]
