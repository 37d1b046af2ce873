"""Joint training of the two denoisers and the style bank.

Per step: draw a length-homogeneous mini-batch, one diffusion step t and
one noise draw per example. The style-conditioned loss trains theta1 and
the style bank, the unconditional loss trains theta2, and an
adaptive-moment update applies to each. The two members share no state,
so each trains in a loop of its own (``ModelBundle.member``), drawing the
same batch, t and noise from the step's substream. ``parallel.apart``
runs theta1's loop in this process and theta2's in a forked child with two
usable CPUs, which sends its loss each step and its weights and moments at
each checkpoint, or in this process after theta1's step on one. Either way
the losses and checkpoints are bit-identical.

Every step draws from its own rng substream keyed by the step index, so a
resumed run continues exactly where the checkpoint left off. A checkpoint
names each parameter once, under its bundle name (``denoisers.*`` as the
stacked [2, ...] arrays, ``bank.*``), with its Adam moments in the same
shape (``moment1.*``, ``moment2.*``), next to the text embedder's table.
"""

from __future__ import annotations

import copy
import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from . import checkpoint as ckpt
from . import rng as rng_mod
from .corpus import MIN_STD, Corpus, NormStats, Utterance
from .denoiser import Denoiser, TextEmbedder
from .engine import Tensor
from .guidance import diffusion_loss
from .optim import AdamState, optimizer_step
from .parallel import apart
from .schedule import NoiseSchedule, cosine_schedule
from .style import StyleBank, encode_style

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig


@dataclass
class TrainConfig:
    steps: int = 5000
    batch_size: int = 16
    learning_rate: float = 1e-3
    lr_decay: bool = True  # cosine decay to 10% of the base rate over the run
    log_every: int = 50
    checkpoint_every: int = 1000
    style_condition: bool = True  # False: train the conditional denoiser without its style pathway
    text_condition: bool = True  # False: the text embedder embeds every text as zeros

    def __post_init__(self):
        if min(self.steps, self.batch_size, self.log_every) < 1 or self.checkpoint_every < 0:
            raise ValueError("steps, batch_size and log_every must be positive and checkpoint_every >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")

    def rate_at(self, step: int) -> float:
        if not self.lr_decay:
            return self.learning_rate
        progress = min(max(step - 1, 0) / max(self.steps - 1, 1), 1.0)
        return self.learning_rate * (0.1 + 0.45 * (1.0 + math.cos(math.pi * progress)))


@dataclass
class ModelBundle:
    """Everything a trained run needs to predict: the stacked theta1/theta2
    denoiser, the style bank, the frozen text embedder, the schedule and the
    channel statistics; plus the Adam state that training updates them with."""

    denoisers: Denoiser
    bank: StyleBank
    embedder: TextEmbedder
    schedule: NoiseSchedule
    stats: NormStats
    seed: int
    adam: AdamState = field(init=False)

    def __post_init__(self):
        self.adam = AdamState(self.named_parameters())

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter under its bundle name: denoisers.* (stacked theta1/theta2), bank.*."""
        groups = (("denoisers", self.denoisers), ("bank", self.bank))
        return {f"{prefix}.{name}": p for prefix, model in groups for name, p in model.params.items()}

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        """(name, parameter) pairs of a one-member bundle (``member``) that
        take part in its forward pass: theta1 with a style vector leaves out
        its null vector, and a member without one leaves out the bank."""
        dead = "denoisers.null_condition" if self.denoisers.accepts_style else "bank."
        return [(name, p) for name, p in self.named_parameters().items() if not name.startswith(dead)]

    def member(self, index: int) -> ModelBundle:
        """Member ``index`` of the guided pair as a bundle of its own, to train
        it apart from the other: its denoiser (``Denoiser.member``) and Adam
        moments are views of this bundle's, so every update lands in this
        bundle's arrays. It shares the bank and counts its own Adam steps."""
        part = copy.copy(self)
        part.denoisers = self.denoisers.member(index)
        part.adam = copy.copy(self.adam)
        part.adam.moment1, part.adam.moment2 = (
            {name: m[index : index + 1] if name.startswith("denoisers.") else m for name, m in moments.items()}
            for moments in (self.adam.moment1, self.adam.moment2)
        )
        return part


def build_models(run: RunConfig, stats: NormStats) -> ModelBundle:
    """Freshly initialised models for ``run``: the only place a run's
    schedule settings become a NoiseSchedule and its two training ablations
    are applied. Without ``train.style_condition`` theta1 takes no style
    vector; without ``train.text_condition`` the embedder embeds every text
    as zeros, for training batches and sampling alike."""
    seed, cfg = run.seed, run.denoiser
    init_rngs = (rng_mod.substream(seed, rng_mod.INIT_STREAM, 0), rng_mod.substream(seed, rng_mod.INIT_STREAM, 1))
    return ModelBundle(
        denoisers=Denoiser(cfg, run.train.style_condition, *init_rngs),
        bank=StyleBank(run.style, cfg.condition_dim, rng_mod.substream(seed, rng_mod.INIT_STREAM, 2)),
        embedder=TextEmbedder(run.corpus.vocab_size, cfg.condition_dim, seed, ablated=not run.train.text_condition),
        schedule=cosine_schedule(run.schedule.steps, run.schedule.offset),
        stats=stats,
        seed=seed,
    )


@dataclass
class Batch:
    x0: np.ndarray  # [B, 3, L] normalized prosody
    y: np.ndarray  # [B, L, D] text embeddings


class LengthBucketSampler:
    """Draws batches of equal-length utterances (conv semantics stay exact,
    no padding/masking needed)."""

    def __init__(self, utterances: list[Utterance], stats: NormStats, embedder: TextEmbedder, batch_size: int):
        if not utterances:
            raise ValueError("empty training split")
        self.stats = stats
        self.embedder = embedder
        self.batch_size = batch_size
        self.buckets: dict[int, list[Utterance]] = {}
        for utt in utterances:
            self.buckets.setdefault(utt.length, []).append(utt)
        self.lengths = sorted(self.buckets)
        counts = np.array([len(self.buckets[ln]) for ln in self.lengths], dtype=np.float64)
        self.length_probs = counts / counts.sum()

    def next_batch(self, gen: np.random.Generator) -> Batch:
        length = int(gen.choice(np.array(self.lengths), p=self.length_probs))
        bucket = self.buckets[length]
        picks = gen.integers(0, len(bucket), size=self.batch_size)
        chosen = [bucket[i] for i in picks]
        x0 = np.stack([self.stats.normalize(u.prosody) for u in chosen])
        ids = np.stack([u.phoneme_ids for u in chosen])
        return Batch(x0=x0, y=self.embedder.embed(ids))


def train_step(bundle: ModelBundle, batch: Batch, cfg: TrainConfig, gen: np.random.Generator, step: int = 1) -> float:
    """One optimization step of the one-member bundle (``ModelBundle.member``):
    theta1 with the bank, or theta2. Returns its loss; a non-finite loss
    updates nothing."""
    if batch.x0.shape[0] == 0:
        raise ValueError("empty batch")
    t = gen.integers(1, bundle.schedule.step_count + 1, size=batch.x0.shape[0])
    eps = gen.standard_normal(batch.x0.shape)

    c = None
    if bundle.denoisers.accepts_style:
        c, _ = encode_style(bundle.bank, batch.x0)  # reference is the target utterance itself
    (loss,) = diffusion_loss(bundle.denoisers, bundle.schedule, batch.x0, t, eps, batch.y, c)
    value = loss.item()
    if math.isfinite(value):
        loss.backward()
        optimizer_step(bundle.trainable_parameters(), bundle.adam, cfg.rate_at(step))
    return value


def train(
    bundle: ModelBundle,
    corpus: Corpus,
    cfg: TrainConfig,
    out_dir: str | Path,
    start_step: int = 0,
    progress: bool = False,
) -> Path:
    """Run the training loop; writes loss.csv and periodic checkpoints.

    Each member trains in its own loop, and ``parallel.apart`` decides
    where theta2's runs (see the module docstring). Both losses must be
    finite at every step, or this raises naming the step and both losses;
    theta1 may then already hold that step's update. A run resumed from
    ``start_step`` keeps loss.csv's rows up to that step. Returns the path
    of the final checkpoint.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, cfg.batch_size)
    steps = range(start_step + 1, cfg.steps + 1)
    loss_path = out_dir / "loss.csv"
    kept = _rows_up_to(loss_path, start_step)
    members = (bundle.member(0), bundle.member(1))
    loops = [_member_loop(member, sampler, cfg, steps) for member in members]

    with apart(loops) as loops, open(loss_path, "w", newline="") as fh:
        def take_trained() -> None:  # the members' trained arrays, into bundle
            for member, loop in zip(members, loops):
                views = _trained_arrays(member)
                for name, value in next(loop).items():
                    views[name][...] = value  # the same array where the member trained in this process
            bundle.adam.step_counter = members[0].adam.step_counter

        writer = csv.writer(fh)
        writer.writerow(["step", "loss_c", "loss_nc"])
        writer.writerows(kept)
        t_begin = time.time()
        for step in steps:
            loss_c, loss_nc = (next(loop) for loop in loops)
            if not (math.isfinite(loss_c) and math.isfinite(loss_nc)):
                raise ValueError(f"non-finite training loss at step {step}: loss_c={loss_c}, loss_nc={loss_nc}")
            if step % cfg.log_every == 0 or step == 1 or step == cfg.steps:
                writer.writerow([step, repr(loss_c), repr(loss_nc)])
                if progress:
                    elapsed = time.time() - t_begin
                    print(f"step {step}/{cfg.steps} loss_c={loss_c:.4f} loss_nc={loss_nc:.4f} ({elapsed:.0f}s)")
            if _checkpoints_at(cfg, step):
                take_trained()
                save_checkpoint(bundle, step, out_dir / f"ckpt_{step:06d}.bin")
        take_trained()
    final = out_dir / "final.bin"
    save_checkpoint(bundle, cfg.steps, final)
    return final


def _member_loop(
    member: ModelBundle, sampler: LengthBucketSampler, cfg: TrainConfig, steps: range
) -> Iterator[float | dict[str, np.ndarray]]:
    """Trains one member over steps: yields its loss after each step, and its
    trained arrays after each checkpoint step and once more at the end."""
    for step in steps:
        gen = rng_mod.substream(member.seed, rng_mod.TRAIN_STREAM, step)
        yield train_step(member, sampler.next_batch(gen), cfg, gen, step)
        if _checkpoints_at(cfg, step):
            yield _trained_arrays(member)
    yield _trained_arrays(member)


def _checkpoints_at(cfg: TrainConfig, step: int) -> bool:
    """Whether step writes an intermediate checkpoint (the final one is always written)."""
    return bool(cfg.checkpoint_every) and step % cfg.checkpoint_every == 0 and step < cfg.steps


def _rows_up_to(loss_path: Path, step: int) -> list[list[str]]:
    """loss.csv's rows up to step, which a run resumed from step keeps; none if step is 0."""
    if step == 0 or not loss_path.exists():
        return []
    with open(loss_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    try:
        return [row for row in rows if int(row[0]) <= step]
    except (ValueError, IndexError):
        raise ValueError(f"{loss_path}: malformed step column") from None


# checkpoint (de)serialisation ----------------------------------------------


def _state_entries(bundle: ModelBundle) -> dict[str, np.ndarray]:
    """Every parameter under its bundle name, its Adam moments under
    moment1.<name> and moment2.<name>, and the text embedder's table, each
    as the live array. Save reads these arrays and load writes into them."""
    return {"embedder.table": bundle.embedder.table} | _live_arrays(bundle, bundle.named_parameters().items())


def _trained_arrays(bundle: ModelBundle) -> dict[str, np.ndarray]:
    """What a step updates: the trainable parameters and their moments, as live arrays."""
    return _live_arrays(bundle, bundle.trainable_parameters())


def _live_arrays(bundle: ModelBundle, params) -> dict[str, np.ndarray]:
    views = {}
    for name, p in params:
        views[name] = p.data
        views[f"moment1.{name}"] = bundle.adam.moment1[name]
        views[f"moment2.{name}"] = bundle.adam.moment2[name]
    return views


def save_checkpoint(bundle: ModelBundle, trainer_step: int, path: str | Path) -> None:
    entries = _state_entries(bundle)
    entries["trainer.step"] = np.array(float(trainer_step))
    entries["optim.step_counter"] = np.array(float(bundle.adam.step_counter))
    entries["norm.mean"] = bundle.stats.mean
    entries["norm.std"] = bundle.stats.std
    ckpt.save_entries(path, entries)


def load_checkpoint(bundle: ModelBundle, path: str | Path) -> int:
    """Restore parameters, Adam state, the text embedder and statistics;
    returns the stored step. An entry the bundle does not have, a step
    count that is not a non-negative integer, or a channel std below the
    least ``compute_stats`` allows, is an error."""
    entries = ckpt.load_entries(path)

    def entry(key: str, shape: tuple[int, ...]) -> np.ndarray:
        if key not in entries:
            raise ckpt.CheckpointError(f"{path}: checkpoint missing entry {key}")
        if entries[key].shape != shape:
            raise ckpt.CheckpointError(
                f"{path}: shape mismatch for {key}: checkpoint {entries[key].shape}, model {shape}"
            )
        return entries.pop(key)

    def count(key: str) -> int:
        value = float(entry(key, ()))  # finite: load_entries rejects the rest
        if value < 0 or not value.is_integer():
            raise ckpt.CheckpointError(f"{path}: {key} must be a non-negative integer, got {value}")
        return int(value)

    for key, view in _state_entries(bundle).items():
        view[...] = entry(key, view.shape)
    bundle.adam.step_counter = count("optim.step_counter")
    std = entry("norm.std", bundle.stats.std.shape)
    if np.any(std < MIN_STD):
        raise ckpt.CheckpointError(f"{path}: norm.std must be at least {MIN_STD}, got {std.tolist()}")
    # a new object: the bundle may share its statistics with the corpus it was built for
    bundle.stats = NormStats(entry("norm.mean", bundle.stats.mean.shape), std)
    step = count("trainer.step")
    if entries:
        raise ckpt.CheckpointError(f"{path}: checkpoint has entries this model does not: {', '.join(sorted(entries))}")
    return step
