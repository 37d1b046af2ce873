"""Synthetic phoneme-level prosody corpus with known style archetypes.

Each utterance carries three channels per phoneme: log-pitch, energy and
log-duration (channel order 0/1/2). Styles are parametric archetypes, so
every downstream distribution claim can be checked against ground truth.
Generation is a pure function of (config, seed); each utterance draws from
its own rng substream.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import rng as rng_mod
from .jsonrule import from_json

CHANNEL_NAMES = ("log_pitch", "energy", "log_duration")
MIN_STD = 1e-12  # the least channel std that standardises: compute_stats and load_checkpoint reject less

PITCH_NOISE_STD = 0.05


@dataclass(frozen=True)
class StyleArchetype:
    id: int
    pitch_base: float  # log-Hz level
    pitch_amplitude: float  # contour swing, log-Hz
    pitch_frequency: float  # radians per phoneme position
    energy_mean: float
    energy_spread: float
    duration_log_mean: float  # log-seconds
    duration_log_spread: float


def default_archetypes(count: int) -> list[StyleArchetype]:
    """Deterministic archetype grid: calm/expressive alternation over a pitch ladder."""
    amplitudes = [0.08, 0.35, 0.18, 0.50]
    frequencies = [0.4, 0.9, 0.6, 1.3]
    energy_spreads = [1.5, 3.5, 2.0, 4.5]
    duration_spreads = [0.10, 0.25, 0.15, 0.30]
    styles = []
    for k in range(count):
        styles.append(
            StyleArchetype(
                id=k,
                pitch_base=4.75 + 0.30 * k,
                pitch_amplitude=amplitudes[k % 4],
                pitch_frequency=frequencies[k % 4],
                energy_mean=55.0 + 7.0 * k,
                energy_spread=energy_spreads[k % 4],
                duration_log_mean=-2.30 + 0.30 * k,
                duration_log_spread=duration_spreads[k % 4],
            )
        )
    return styles


@dataclass
class Utterance:
    phoneme_ids: np.ndarray  # [L] int
    prosody: np.ndarray  # [3, L] float64, natural (unnormalized) units
    style_id: int

    @property
    def length(self) -> int:
        return len(self.phoneme_ids)


@dataclass
class NormStats:
    """Per-channel standardisation statistics (computed on the training split)."""

    mean: np.ndarray  # [3]
    std: np.ndarray  # [3]

    def normalize(self, prosody: np.ndarray) -> np.ndarray:
        return (prosody - self.mean[:, None]) / self.std[:, None]

    def denormalize(self, prosody: np.ndarray) -> np.ndarray:
        return prosody * self.std[:, None] + self.mean[:, None]


@dataclass
class CorpusConfig:
    style_count: int = 4
    utterances_per_style: int = 250
    length_range: tuple[int, int] = (8, 24)
    vocab_size: int = 40
    style_token_bias: float = 0.4  # share of phoneme mass put on the style's band
    separation_margin: float = 0.5
    train_fraction: float = 0.8

    def __post_init__(self):
        lo, hi = self.length_range
        if self.style_count < 2 or self.utterances_per_style < 1:
            raise ValueError("need style_count >= 2 and utterances_per_style >= 1")
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid length range {self.length_range}")
        if self.vocab_size < self.style_count:
            raise ValueError("vocabulary smaller than style count")
        if not (0.0 <= self.style_token_bias <= 1.0 and 0.0 < self.train_fraction <= 1.0):
            raise ValueError("need style_token_bias in [0, 1] and train_fraction in (0, 1]")
        if not (math.isfinite(self.separation_margin) and self.separation_margin >= 0):
            raise ValueError(f"separation_margin must be finite and >= 0, got {self.separation_margin}")


@dataclass
class Corpus:
    config: CorpusConfig
    seed: int
    utterances: list[Utterance | None]  # None where load_corpus read one split only
    train_indices: list[int]
    val_indices: list[int]

    def split(self, name: str) -> list[Utterance]:
        indices = {"train": self.train_indices, "val": self.val_indices}[name]
        chosen = [self.utterances[i] for i in indices]
        if None in chosen:
            raise ValueError(f"the {name} split of this corpus was not loaded")
        return chosen  # type: ignore[return-value]

    @functools.cached_property
    def stats(self) -> NormStats:
        """The train split's statistics."""
        return compute_stats(self.split("train"))


def _style_phoneme_probs(style_id: int, config: CorpusConfig) -> np.ndarray:
    v, k = config.vocab_size, config.style_count
    band = np.arange(v) * k // v == style_id  # contiguous band of ~V/K tokens
    probs = np.full(v, (1.0 - config.style_token_bias) / v)
    probs[band] += config.style_token_bias / band.sum()
    return probs / probs.sum()


def _draw_utterance(style: StyleArchetype, config: CorpusConfig, gen: np.random.Generator) -> Utterance:
    lo, hi = config.length_range
    length = int(gen.integers(lo, hi + 1))
    ids = gen.choice(config.vocab_size, size=length, p=_style_phoneme_probs(style.id, config))
    positions = np.arange(length, dtype=np.float64)
    phase = gen.uniform(0.0, 2.0 * np.pi)
    pitch = (
        style.pitch_base
        + style.pitch_amplitude * np.sin(style.pitch_frequency * positions + phase)
        + gen.normal(0.0, PITCH_NOISE_STD, size=length)
    )
    energy = gen.normal(style.energy_mean, style.energy_spread, size=length)
    log_dur = gen.normal(style.duration_log_mean, style.duration_log_spread, size=length)
    return Utterance(
        phoneme_ids=ids.astype(np.int64),
        prosody=np.stack([pitch, energy, log_dur]),
        style_id=style.id,
    )


def generate_corpus(config: CorpusConfig, seed: int) -> Corpus:
    """Generate the full corpus plus a stratified, seed-stable train/val split."""
    archetypes = default_archetypes(config.style_count)
    utterances = []
    for idx in range(config.style_count * config.utterances_per_style):
        style = archetypes[idx // config.utterances_per_style]
        gen = rng_mod.substream(seed, rng_mod.CORPUS_STREAM, idx)
        utterances.append(_draw_utterance(style, config, gen))
    corpus = Corpus(config, seed, utterances, *_split(config, seed))
    _assert_separation(corpus)
    return corpus


def _split(config: CorpusConfig, seed: int) -> tuple[list[int], list[int]]:
    """The stratified, seed-stable (train, val) indices, each sorted."""
    split_gen = rng_mod.substream(seed, rng_mod.MISC_STREAM, 0)
    train_indices: list[int] = []
    val_indices: list[int] = []
    n = config.utterances_per_style
    n_train = max(1, int(round(config.train_fraction * n)))
    if n_train >= n and n > 1:
        n_train = n - 1
    for k in range(config.style_count):
        order = np.arange(k * n, (k + 1) * n)
        split_gen.shuffle(order)
        train_indices.extend(int(i) for i in order[:n_train])
        val_indices.extend(int(i) for i in order[n_train:])
    return sorted(train_indices), sorted(val_indices)


def _assert_separation(corpus: Corpus) -> None:
    """Between-style mean gaps must exceed margin * within-style std somewhere per style pair."""
    k = corpus.config.style_count
    margin = corpus.config.separation_margin
    means = np.zeros((k, 3))
    stds = np.zeros((k, 3))
    for s in range(k):
        pooled = np.concatenate([u.prosody for u in corpus.utterances if u.style_id == s], axis=1)
        means[s] = pooled.mean(axis=1)
        stds[s] = pooled.std(axis=1)
    for a in range(k):
        for b in range(a + 1, k):
            gap = np.abs(means[a] - means[b])
            scale = np.maximum(stds[a], stds[b])
            if not np.any(gap >= margin * scale):
                raise ValueError(
                    f"styles {a} and {b} are not separated by margin {margin} on any channel"
                )


def compute_stats(utterances: list[Utterance]) -> NormStats:
    if not utterances:
        raise ValueError("cannot compute statistics of an empty corpus")
    pooled = np.concatenate([u.prosody for u in utterances], axis=1)
    stats = NormStats(mean=pooled.mean(axis=1), std=pooled.std(axis=1))
    if np.any(stats.std < MIN_STD):
        bad = CHANNEL_NAMES[int(np.argmin(stats.std))]
        raise ValueError(f"channel {bad} has zero variance; cannot standardise")
    return stats


# persistence --------------------------------------------------------------


def _manifest(corpus: Corpus) -> dict:
    """The manifest.json document of corpus: save_corpus writes it, load_corpus requires it.
    An utterance that was not loaded gives only its file and style_id."""

    def entry(i: int, u: Utterance | None) -> dict:
        named = {"file": _utt_filename(i), "style_id": i // corpus.config.utterances_per_style}
        return named if u is None else named | {"length": u.length, "sha256": _sha256(u)}

    return {
        "config": asdict(corpus.config),
        "seed": corpus.seed,
        "archetypes": [asdict(a) for a in default_archetypes(corpus.config.style_count)],
        "train_indices": corpus.train_indices,
        "val_indices": corpus.val_indices,
        "utterances": [entry(i, u) for i, u in enumerate(corpus.utterances)],
    }


def _sha256(utt: Utterance) -> str:
    """sha256 of utt's phoneme ids as little-endian int64, then its [3, L] prosody as little-endian float64."""
    return hashlib.sha256(utt.phoneme_ids.astype("<i8").tobytes() + utt.prosody.astype("<f8").tobytes()).hexdigest()


def save_corpus(corpus: Corpus, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "manifest.json", "w") as fh:
        json.dump(_manifest(corpus), fh, indent=2)
        fh.write("\n")
    for i, utt in enumerate(corpus.utterances):
        write_utterance_csv(directory / _utt_filename(i), utt.phoneme_ids, utt.prosody)


def _utt_filename(index: int) -> str:
    return f"utt_{index:05d}.csv"


def write_utterance_csv(path: str | Path, phoneme_ids: np.ndarray, prosody: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phoneme_id", *CHANNEL_NAMES])
        for j in range(len(phoneme_ids)):
            writer.writerow(
                [int(phoneme_ids[j])] + [repr(float(prosody[c, j])) for c in range(3)]
            )


def read_utterance_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["phoneme_id", *CHANNEL_NAMES]:
        raise ValueError(f"{path}: not an utterance file")
    if len(rows) == 1:
        raise ValueError(f"{path}: no utterance rows")
    try:
        if any(len(r) != len(rows[0]) for r in rows[1:]):
            raise ValueError
        ids = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
        prosody = np.array([[float(r[c + 1]) for r in rows[1:]] for c in range(3)])
    except ValueError:
        raise ValueError(f"{path}: malformed utterance row") from None
    if not np.all(np.isfinite(prosody)):
        raise ValueError(f"{path}: non-finite prosody value")
    return ids, prosody


def load_corpus(directory: str | Path, split: str | None = None) -> Corpus:
    """The corpus save_corpus wrote to directory, rebuilt from the manifest's config and seed
    and the files they name; an edit to the manifest or the files read is rejected.

    split "train" or "val" reads, hashes and parses only that split's files
    (the others stay None); None reads every file. Every manifest key, and
    every entry's file and style_id, is checked either way; an entry's
    length and sha256 only when its file is read."""
    directory = Path(directory)
    try:
        with open(directory / "manifest.json") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError("manifest.json must be a JSON object")
        if _pre_digest(manifest):
            raise ValueError(
                "manifest.json is in the layout written before per-file digests (no sha256 in its entries); "
                "rerun gen-data with the same config and seed to rebuild the corpus"
            )
        config = from_json(CorpusConfig(), manifest.get("config"), "config")
        seed = from_json(0, manifest.get("seed"), "seed")
        if seed < 0:
            raise ValueError("seed must be >= 0")
    except ValueError as exc:
        raise ValueError(f"{directory}: {exc}") from None
    train_indices, val_indices = _split(config, seed)
    utterances: list[Utterance | None] = [None] * (config.style_count * config.utterances_per_style)
    read = range(len(utterances)) if split is None else {"train": train_indices, "val": val_indices}[split]
    for i in read:
        path = directory / _utt_filename(i)
        ids, prosody = read_utterance_csv(path)
        if ids.min() < 0 or ids.max() >= config.vocab_size:
            raise ValueError(f"{path}: phoneme id outside 0..{config.vocab_size - 1}")
        utterances[i] = Utterance(phoneme_ids=ids, prosody=prosody, style_id=i // config.utterances_per_style)
    corpus = Corpus(config, seed, utterances, train_indices, val_indices)
    try:
        _require_same(manifest, _manifest(corpus))
    except ValueError as exc:
        raise ValueError(f"{directory}: {exc}") from None
    return corpus


def _pre_digest(manifest: dict) -> bool:
    """Whether manifest has the layout written before per-file digests: the
    stats and val_stats keys, or an utterance entry without sha256."""
    entries = manifest.get("utterances")
    old_entry = isinstance(entries, list) and any(isinstance(e, dict) and "sha256" not in e for e in entries)
    return old_entry or "stats" in manifest or "val_stats" in manifest


def _require_same(manifest: dict, expected: dict) -> None:
    """Raises naming the first key, or utterance file, where manifest is not
    expected; an entry that gives only file and style_id (its file was not
    read) is compared on those two keys."""
    def canonical(value) -> str:  # JSON with sorted keys, in which 1, 1.0 and true stay distinct
        return json.dumps(value, sort_keys=True)

    for key in expected | manifest:  # expected's keys in order, then any unknown ones
        got, want = manifest.get(key), expected.get(key)
        entries = key == "utterances" and isinstance(got, list) and len(got) == len(want)
        if entries:
            got = [{k: g.get(k) for k in w} if isinstance(g, dict) and "sha256" not in w else g for g, w in zip(got, want)]
        if canonical(got) == canonical(want):
            continue
        if entries:
            got, want = next((g, w) for g, w in zip(got, want) if canonical(g) != canonical(w))
            source = "the file gives" if "sha256" in want else "its config and seed give"
            raise ValueError(f"{want['file']}: the manifest has {json.dumps(got)}, {source} {json.dumps(want)}")
        raise ValueError(f"manifest key {key} is not what its config, seed and utterance files give")
