"""Batched generation helpers on top of the sampler.

One function, ``_plan``, plans a request from the row count of each text
length, with one cost model, a piece's rows times its width (its chain's
longest length). Whole length groups, in ascending length, are packed into
chains of at most ``CHAIN_ROWS`` rows (a larger group runs alone). While
there are fewer pieces than usable CPUs, the costliest piece that holds two
or more groups is split at the group boundary nearest half its rows; so a
request with at least as many chains as CPUs runs each chain whole, and no
request has more pieces than length groups. The pieces are dealt into
shares, one per usable CPU (at most one per piece), largest first, each to
the least-loaded share.

Each piece is one masked reverse process over its rows padded to its
width. Every group draws x_T and each step's noise from its own rng
substream keyed by (seed, length), in the shapes and order of a chain of
that group alone, so a text's draws do not depend on which other lengths
share its request, its chain or its piece. Since a piece keeps its chain's
padding, each row meets the same array shapes and draws as in the whole
chain, and its result is the same to the bit (padded to its own longest
text instead, a piece's samples moved in the last bits).

Each share is a loop that ``parallel.apart`` runs: share 0 in this process
and each other share in a forked child, which yields its outcomes once,
when its pieces are done. No piece reads what another writes, and the
pieces of a chain, which share its width, are gathered in row order, a
split chain's diagnostics merged per step, so the outputs do not depend on
the CPU count. One share forks nothing.
"""

from __future__ import annotations

import itertools
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
    chain row order, a split chain's pieces merged. The request runs as the
    pieces and shares that ``_plan`` gives it (see the module docstring).
    Samples and diagnostics are the same to the bit whatever the CPU count.
    """
    if conditions is not None and len(conditions) != len(texts):
        raise ValueError("need one style condition per text")
    by_length: dict[int, list[int]] = {}
    for i, ids in enumerate(texts):
        if len(ids) == 0:
            raise ValueError(f"text {i} is empty")
        by_length.setdefault(len(ids), []).append(i)
    shares = _plan({n: len(rows) for n, rows in by_length.items()}, parallel.usable_cpus())

    def rows(lengths: list[int]) -> list[int]:
        return [i for n in lengths for i in by_length[n]]

    def run_piece(width: int, lengths: list[int]) -> tuple[np.ndarray, list | None]:
        indices = rows(lengths)
        row_lengths = np.array([len(texts[i]) for i in indices])
        ids = np.zeros((len(indices), width), dtype=np.int64)  # padded with id 0 to its chain's longest
        for row, i in enumerate(indices):
            ids[row, : row_lengths[row]] = texts[i]
        y = bundle.embedder.embed(ids)
        c = np.stack([conditions[i] for i in indices]) if conditions is not None else None
        noise = ChainNoise([(rng_mod.substream(seed, rng_mod.SAMPLE_STREAM, n), len(by_length[n]), n) for n in lengths])
        steps: list | None = None if diagnostics is None else []
        return sample(bundle.denoisers, bundle.schedule, y, c, guidance, noise, steps, row_lengths), steps

    def run_share(share: list) -> Iterator[list]:  # one value: a child never waits on a full pipe
        yield [run_piece(width, lengths) for width, lengths in share]

    done = []  # (width, lengths, batch, steps) per piece
    with parallel.apart([run_share(share) for share in shares]) as loops:
        for share, loop in zip(shares, loops):
            for outcomes in loop:
                done += [(*piece, *outcome) for piece, outcome in zip(share, outcomes)]
    done.sort(key=lambda part: part[1][0])  # chain and row order: each piece is an ascending run of lengths
    results: list[np.ndarray | None] = [None] * len(texts)
    for _, chain in itertools.groupby(done, key=lambda part: part[0]):  # a chain's pieces share its width
        _, lengths, batches, steps = zip(*chain)
        indices = rows([n for piece in lengths for n in piece])
        if diagnostics is not None:
            for per_piece in zip(*steps):  # one (t, diagnostics) per piece
                merged = [np.concatenate(arrays) for arrays in zip(*(astuple(diag) for _, diag in per_piece))]
                diagnostics.append((per_piece[0][0], indices, RescaleDiagnostics(*merged)))
        batch = np.concatenate(batches)
        for row, i in enumerate(indices):
            results[i] = batch[row, :, : len(texts[i])]
    return results  # type: ignore[return-value]


def _plan(group_rows: dict[int, int], cpus: int) -> list[list[tuple[int, list[int]]]]:
    """A request's shares, from the row count of each length group: at least
    one and at most min(cpus, pieces), each listing its pieces (width,
    lengths) in chain and row order (see the module docstring). A tie goes
    to the earlier piece, the earlier group boundary and the lower share."""
    chains: list[list[int]] = []
    packed = 0
    for length in sorted(group_rows):
        if not chains or packed + group_rows[length] > CHAIN_ROWS:
            chains.append([])
            packed = 0
        chains[-1].append(length)
        packed += group_rows[length]
    pieces = [(chain[-1], chain) for chain in chains]

    def row_count(lengths: list[int]) -> int:
        return sum(group_rows[n] for n in lengths)

    def cost(p: int) -> int:
        return row_count(pieces[p][1]) * pieces[p][0]

    while len(pieces) < cpus:
        splittable = [p for p, (_, lengths) in enumerate(pieces) if len(lengths) > 1]
        if not splittable:
            break
        p = max(splittable, key=cost)
        width, lengths = pieces[p]
        cut = min(range(1, len(lengths)), key=lambda b: abs(2 * row_count(lengths[:b]) - row_count(lengths)))
        pieces[p : p + 1] = [(width, lengths[:cut]), (width, lengths[cut:])]
    shares: list[list[int]] = [[] for _ in range(max(1, min(cpus, len(pieces))))]
    loads = [0] * len(shares)
    for p in sorted(range(len(pieces)), key=lambda p: -cost(p)):
        share = loads.index(min(loads))
        shares[share].append(p)
        loads[share] += cost(p)
    return [[pieces[p] for p in sorted(share)] for share in shares]


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
