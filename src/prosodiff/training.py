"""Joint training of the two denoisers and the style bank.

Per step: draw a length-homogeneous mini-batch, one diffusion step t and
one noise draw per example. The style-conditioned loss trains theta1 and
the style bank, the unconditional loss trains theta2, and an
adaptive-moment update applies to each. The two members share no state,
so each trains in a loop of its own, drawing the same batch, t and noise
from the step's substream, and hands over one value per step: its loss,
with its weights and moments on a checkpoint step and on the run's last
step. ``parallel.apart`` runs theta1's loop in this process and theta2's
in a forked child with two usable CPUs, or in this process after
theta1's step on one. Either way the losses and checkpoints are
bit-identical.

Every step draws from its own rng substream keyed by the step index, so a
resumed run continues exactly where the checkpoint left off. A checkpoint
names each parameter once, under its bundle name (``denoisers.*``,
``bank.*``), with its Adam moments in the same shape (``moment1.*``,
``moment2.*``), next to the text embedder's table. An entry both members
hold is saved as the [2, ...] stack of theta1's and theta2's arrays, and
split into them again at load. The training step is the only step count:
Adam's bias correction reads it, and a checkpoint stores it as both
``trainer.step`` and ``optim.step_counter``, which must agree at load.
"""

from __future__ import annotations

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
    """Everything a trained run needs to predict: the guided pair of
    denoisers (theta1, theta2), the style bank, the frozen text embedder,
    the schedule and the channel statistics; plus the Adam state that
    training updates each member with."""

    denoisers: tuple[Denoiser, Denoiser]
    bank: StyleBank
    embedder: TextEmbedder
    schedule: NoiseSchedule
    stats: NormStats
    seed: int
    adam: tuple[AdamState, AdamState] = field(init=False)

    def __post_init__(self):
        self.adam = tuple(AdamState(self.named_parameters(index)) for index in range(len(self.denoisers)))

    def named_parameters(self, index: int) -> dict[str, Tensor]:
        """Member ``index``'s parameters under their bundle names: its
        denoiser's (denoisers.*) and, for theta1, the style bank's (bank.*)."""
        named = {f"denoisers.{name}": p for name, p in self.denoisers[index].params.items()}
        if index == 0:
            named |= {f"bank.{name}": p for name, p in self.bank.params.items()}
        return named

    def trainable_parameters(self, index: int) -> list[tuple[str, Tensor]]:
        """(name, parameter) pairs of member ``index`` that take part in its
        forward pass: theta1 with a style vector leaves out its null vector,
        and a member without one leaves out the bank."""
        dead = "denoisers.null_condition" if self.denoisers[index].accepts_style else "bank."
        return [(name, p) for name, p in self.named_parameters(index).items() if not name.startswith(dead)]


def build_models(run: RunConfig, stats: NormStats) -> ModelBundle:
    """Freshly initialised models for ``run``: the only place a run's
    schedule settings become a NoiseSchedule and its two training ablations
    are applied. Without ``train.style_condition`` theta1 takes no style
    vector; without ``train.text_condition`` the embedder embeds every text
    as zeros, for training batches and sampling alike."""
    seed, cfg = run.seed, run.denoiser
    return ModelBundle(
        denoisers=(
            Denoiser(cfg, run.train.style_condition, rng_mod.substream(seed, rng_mod.INIT_STREAM, 0)),
            Denoiser(cfg, False, rng_mod.substream(seed, rng_mod.INIT_STREAM, 1)),
        ),
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


def train_step(
    bundle: ModelBundle, index: int, batch: Batch, cfg: TrainConfig, gen: np.random.Generator, step: int
) -> float:
    """Training step ``step`` (counted from 1) of member ``index`` of the
    guided pair: theta1 with the bank, or theta2. Returns its loss; a
    non-finite loss updates nothing."""
    if batch.x0.shape[0] == 0:
        raise ValueError("empty batch")
    t = gen.integers(1, bundle.schedule.step_count + 1, size=batch.x0.shape[0])
    eps = gen.standard_normal(batch.x0.shape)

    model = bundle.denoisers[index]
    c = None
    if model.accepts_style:
        c, _ = encode_style(bundle.bank, batch.x0)  # reference is the target utterance itself
    loss = diffusion_loss(model, bundle.schedule, batch.x0, t, eps, batch.y, c)
    value = loss.item()
    if math.isfinite(value):
        loss.backward()
        optimizer_step(bundle.trainable_parameters(index), bundle.adam[index], cfg.rate_at(step), step)
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
    loops = [_member_loop(bundle, index, sampler, cfg, steps) for index in range(len(bundle.denoisers))]

    with apart(loops) as loops, open(loss_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss_c", "loss_nc"])
        writer.writerows(kept)
        t_begin = time.time()
        for step in steps:
            (loss_c, handed), (loss_nc, handed_nc) = (next(loop) for loop in loops)
            if not (math.isfinite(loss_c) and math.isfinite(loss_nc)):
                raise ValueError(f"non-finite training loss at step {step}: loss_c={loss_c}, loss_nc={loss_nc}")
            if step % cfg.log_every == 0 or step == 1 or step == cfg.steps:
                writer.writerow([step, repr(loss_c), repr(loss_nc)])
                if progress:
                    elapsed = time.time() - t_begin
                    print(f"step {step}/{cfg.steps} loss_c={loss_c:.4f} loss_nc={loss_nc:.4f} ({elapsed:.0f}s)")
            if handed is not None:  # the members' state, into bundle
                for index, arrays in enumerate((handed, handed_nc)):
                    live = _member_arrays(bundle, index)
                    for name, value in arrays.items():
                        live[name][...] = value  # the same array where the member trained in this process
                if step < cfg.steps:
                    save_checkpoint(bundle, step, out_dir / f"ckpt_{step:06d}.bin")
    final = out_dir / "final.bin"
    save_checkpoint(bundle, cfg.steps, final)
    return final


def _member_loop(
    bundle: ModelBundle, index: int, sampler: LengthBucketSampler, cfg: TrainConfig, steps: range
) -> Iterator[tuple[float, dict[str, np.ndarray] | None]]:
    """Trains member ``index`` over steps, yielding (loss, arrays) once per
    step: arrays is its ``_member_arrays`` on a checkpoint step and on the
    run's last step, and None otherwise."""
    for step in steps:
        gen = rng_mod.substream(bundle.seed, rng_mod.TRAIN_STREAM, step)
        loss = train_step(bundle, index, sampler.next_batch(gen), cfg, gen, step)
        handed = step == cfg.steps or (cfg.checkpoint_every and step % cfg.checkpoint_every == 0)
        yield loss, _member_arrays(bundle, index) if handed else None


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


def _state_entries(bundle: ModelBundle) -> dict[str, tuple[np.ndarray, ...]]:
    """Each checkpoint entry's live arrays: every parameter under its bundle
    name, its Adam moments under moment1.<name> and moment2.<name>, and the
    text embedder's table. An entry both members hold has theta1's array,
    then theta2's. Save reads these arrays and load writes into them."""
    entries = {"embedder.table": (bundle.embedder.table,)}
    for index in range(len(bundle.denoisers)):
        for name, array in _member_arrays(bundle, index).items():
            entries[name] = entries.get(name, ()) + (array,)
    return entries


def _member_arrays(bundle: ModelBundle, index: int) -> dict[str, np.ndarray]:
    """Member ``index``'s live state: every named parameter's array, and its
    Adam moments under moment1.<name> and moment2.<name>."""
    adam = bundle.adam[index]
    arrays = {}
    for name, p in bundle.named_parameters(index).items():
        arrays[name] = p.data
        arrays[f"moment1.{name}"] = adam.moment1[name]
        arrays[f"moment2.{name}"] = adam.moment2[name]
    return arrays


def save_checkpoint(bundle: ModelBundle, trainer_step: int, path: str | Path) -> None:
    """Write the bundle's state; an entry both members hold is their [2, ...]
    stack. Adam's step is the training step, stored under both names."""
    # save_entries turns a pair of arrays into their stack as it writes it, one entry at a time
    entries = {name: live[0] if len(live) == 1 else live for name, live in _state_entries(bundle).items()}
    entries["trainer.step"] = np.array(float(trainer_step))
    entries["optim.step_counter"] = np.array(float(trainer_step))
    entries["norm.mean"] = bundle.stats.mean
    entries["norm.std"] = bundle.stats.std
    ckpt.save_entries(path, entries)


def load_checkpoint(bundle: ModelBundle, path: str | Path) -> int:
    """Restore parameters, Adam state, the text embedder and statistics;
    returns the stored step. An entry the bundle does not have, a step
    count that is not a non-negative integer, an ``optim.step_counter``
    other than ``trainer.step``, or a channel std below the least
    ``compute_stats`` allows, is an error."""
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

    for key, live in _state_entries(bundle).items():
        shape = live[0].shape if len(live) == 1 else (len(live),) + live[0].shape
        for array, part in zip(live, entry(key, shape).reshape((len(live),) + live[0].shape)):
            array[...] = part
    step, adam_step = count("trainer.step"), count("optim.step_counter")
    if adam_step != step:
        raise ckpt.CheckpointError(f"{path}: optim.step_counter {adam_step} differs from trainer.step {step}")
    std = entry("norm.std", bundle.stats.std.shape)
    if np.any(std < MIN_STD):
        raise ckpt.CheckpointError(f"{path}: norm.std must be at least {MIN_STD}, got {std.tolist()}")
    # a new object: the bundle may share its statistics with the corpus it was built for
    bundle.stats = NormStats(entry("norm.mean", bundle.stats.mean.shape), std)
    if entries:
        raise ckpt.CheckpointError(f"{path}: checkpoint has entries this model does not: {', '.join(sorted(entries))}")
    return step
