"""Joint training of the two denoisers and the style bank.

Per step: draw a length-homogeneous mini-batch, one diffusion step t and
one noise draw per example; the style-conditioned loss backpropagates into
the conditional denoiser and the style bank, the unconditional loss into
the other denoiser; one adaptive-moment update applies to all of them.

Every step draws from its own rng substream keyed by the step index, so a
resumed run continues exactly where the checkpoint left off.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import rng as rng_mod
from .corpus import Corpus, NormStats, Utterance
from .denoiser import Denoiser, DenoiserConfig, TextEmbedder
from .guidance import diffusion_loss
from .engine import Parameter
from .optim import AdamState, optimizer_step
from .schedule import NoiseSchedule
from .style import StyleBank, StyleConfig, encode_style


@dataclass
class TrainConfig:
    steps: int = 5000
    batch_size: int = 16
    learning_rate: float = 1e-3
    lr_decay: bool = True  # cosine decay to 10% of the base rate over the run
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    log_every: int = 50
    checkpoint_every: int = 1000
    style_condition: bool = True  # False: train the conditional denoiser without its style pathway
    text_condition: bool = True  # False: zero out text embeddings during training

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be positive")

    def rate_at(self, step: int) -> float:
        if not self.lr_decay:
            return self.learning_rate
        progress = min(max(step - 1, 0) / max(self.steps - 1, 1), 1.0)
        return self.learning_rate * (0.1 + 0.45 * (1.0 + math.cos(math.pi * progress)))


@dataclass
class ModelBundle:
    """Everything a trained run needs to predict: both denoisers, the style
    bank, the frozen text embedder, the schedule and the channel statistics;
    plus the Adam state that training updates them with."""

    theta1: Denoiser
    theta2: Denoiser
    bank: StyleBank
    embedder: TextEmbedder
    schedule: NoiseSchedule
    stats: NormStats
    seed: int
    adam: AdamState = field(init=False)

    def __post_init__(self):
        self.adam = AdamState(self.named_parameters().values())

    def named_parameters(self) -> dict[str, Parameter]:
        """Every parameter under its checkpoint name (theta1.*, theta2.*, bank.*)."""
        groups = (("theta1", self.theta1), ("theta2", self.theta2), ("bank", self.bank))
        return {f"{prefix}.{name}": p for prefix, model in groups for name, p in model.parameters().items()}

    def trainable_parameters(self):
        params = self.theta1.trainable_parameters() + self.theta2.trainable_parameters()
        if self.theta1.accepts_style:
            params += self.bank.trainable_parameters()
        return params


def build_models(
    denoiser_cfg: DenoiserConfig,
    style_cfg: StyleConfig,
    schedule: NoiseSchedule,
    vocab_size: int,
    stats: NormStats,
    seed: int,
    style_condition: bool = True,
) -> ModelBundle:
    if denoiser_cfg.condition_dim != style_cfg.condition_dim:
        raise ValueError("denoiser and style bank disagree on condition dim")
    theta1 = Denoiser(denoiser_cfg, accepts_style=style_condition, init_rng=rng_mod.substream(seed, rng_mod.INIT_STREAM, 0))
    theta2 = Denoiser(denoiser_cfg, accepts_style=False, init_rng=rng_mod.substream(seed, rng_mod.INIT_STREAM, 1))
    bank = StyleBank(style_cfg, denoiser_cfg.residual_channels, rng_mod.substream(seed, rng_mod.INIT_STREAM, 2))
    embedder = TextEmbedder(vocab_size, denoiser_cfg.condition_dim, seed)
    return ModelBundle(
        theta1=theta1,
        theta2=theta2,
        bank=bank,
        embedder=embedder,
        schedule=schedule,
        stats=stats,
        seed=seed,
    )


@dataclass
class Batch:
    x0: np.ndarray  # [B, 3, L] normalized prosody
    phoneme_ids: np.ndarray  # [B, L]
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
        return Batch(x0=x0, phoneme_ids=ids, y=self.embedder.embed(ids))


def train_step(
    bundle: ModelBundle, batch: Batch, cfg: TrainConfig, gen: np.random.Generator, step: int = 1
) -> tuple[float, float]:
    """One optimization step; returns (conditional loss, unconditional loss)."""
    if batch.x0.shape[0] == 0:
        raise ValueError("empty batch")
    t = gen.integers(1, bundle.schedule.step_count + 1, size=batch.x0.shape[0])
    eps = gen.standard_normal(batch.x0.shape)
    y = batch.y if cfg.text_condition else np.zeros_like(batch.y)

    if bundle.theta1.accepts_style:
        c, _ = encode_style(bundle.bank, batch.x0)  # reference is the target utterance itself
        loss_c = diffusion_loss(bundle.theta1, bundle.schedule, batch.x0, t, eps, y, c)
    else:
        loss_c = diffusion_loss(bundle.theta1, bundle.schedule, batch.x0, t, eps, y, None)
    loss_nc = diffusion_loss(bundle.theta2, bundle.schedule, batch.x0, t, eps, y, None)

    loss_c_value, loss_nc_value = loss_c.item(), loss_nc.item()
    if not (math.isfinite(loss_c_value) and math.isfinite(loss_nc_value)):
        raise ValueError(f"non-finite training loss at step {step}: loss_c={loss_c_value}, loss_nc={loss_nc_value}")
    loss_c.backward()
    loss_nc.backward()
    optimizer_step(
        bundle.trainable_parameters(),
        bundle.adam,
        cfg.rate_at(step),
        cfg.adam_beta1,
        cfg.adam_beta2,
        cfg.adam_epsilon,
    )
    return loss_c_value, loss_nc_value


def train(
    bundle: ModelBundle,
    corpus: Corpus,
    cfg: TrainConfig,
    out_dir: str | Path,
    start_step: int = 0,
    progress: bool = False,
) -> Path:
    """Run the training loop; writes loss.csv and periodic checkpoints.

    Returns the path of the final checkpoint.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sampler = LengthBucketSampler(corpus.split("train"), bundle.stats, bundle.embedder, cfg.batch_size)

    loss_path = out_dir / "loss.csv"
    mode = "a" if start_step > 0 and loss_path.exists() else "w"
    t_begin = time.time()
    with open(loss_path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(["step", "loss_c", "loss_nc"])
        for step in range(start_step + 1, cfg.steps + 1):
            gen = rng_mod.substream(bundle.seed, rng_mod.TRAIN_STREAM, step)
            batch = sampler.next_batch(gen)
            loss_c, loss_nc = train_step(bundle, batch, cfg, gen, step)
            if step % cfg.log_every == 0 or step == 1 or step == cfg.steps:
                writer.writerow([step, repr(loss_c), repr(loss_nc)])
                if progress:
                    elapsed = time.time() - t_begin
                    print(f"step {step}/{cfg.steps} loss_c={loss_c:.4f} loss_nc={loss_nc:.4f} ({elapsed:.0f}s)")
            if cfg.checkpoint_every and step % cfg.checkpoint_every == 0 and step < cfg.steps:
                save_checkpoint(bundle, step, out_dir / f"ckpt_{step:06d}.bin")
    final = out_dir / "final.bin"
    save_checkpoint(bundle, cfg.steps, final)
    return final


# checkpoint (de)serialisation ----------------------------------------------


def save_checkpoint(bundle: ModelBundle, trainer_step: int, path: str | Path) -> None:
    entries: dict[str, np.ndarray] = {}
    for key, p in bundle.named_parameters().items():
        entries[key] = p.data
        entries[f"moment1.{key}"] = bundle.adam.moment1[p]
        entries[f"moment2.{key}"] = bundle.adam.moment2[p]
    entries["trainer.step"] = np.array(float(trainer_step))
    entries["optim.step_counter"] = np.array(float(bundle.adam.step_counter))
    entries["norm.mean"] = bundle.stats.mean
    entries["norm.std"] = bundle.stats.std
    ckpt.save_entries(path, entries)


def load_checkpoint(bundle: ModelBundle, path: str | Path) -> int:
    """Restore parameters, Adam state and statistics in place; returns the stored step."""
    entries = ckpt.load_entries(path)

    def entry(key: str, shape: tuple[int, ...]) -> np.ndarray:
        if key not in entries:
            raise ckpt.CheckpointError(f"{path}: checkpoint missing entry {key}")
        if entries[key].shape != shape:
            raise ckpt.CheckpointError(
                f"{path}: shape mismatch for {key}: checkpoint {entries[key].shape}, model {shape}"
            )
        return entries[key]

    for key, p in bundle.named_parameters().items():
        p.data = entry(key, p.tensor.shape)
        bundle.adam.moment1[p] = entry(f"moment1.{key}", (p.tensor.size,))
        bundle.adam.moment2[p] = entry(f"moment2.{key}", (p.tensor.size,))
    bundle.adam.step_counter = int(entry("optim.step_counter", ()))
    bundle.stats.mean = entry("norm.mean", bundle.stats.mean.shape)
    bundle.stats.std = entry("norm.std", bundle.stats.std.shape)
    return int(entry("trainer.step", ()))
