"""Command-line surface: corpus generation, training, guided sampling,
evaluation and plotting.

A new run's config is ``--config`` or the defaults; a checkpoint's
(``train --resume``, ``sample``, ``eval``) is the one archived next to it.
``--seed`` and each flag whose dest names a ``section.field`` apply on top.
Each command archives the result as ``<out>/resolved_config.json``;
rerunning from that file with the same seed reproduces every output byte
for byte. Failures print one machine-readable JSON line to stderr and
exit 1, or 2 for a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluate, inference
from . import rng as rng_mod
from .charts import write_bar_chart, write_line_chart
from .checkpoint import CheckpointError
from .config import RunConfig
from .corpus import (
    Corpus,
    generate_corpus,
    load_corpus,
    read_utterance_csv,
    save_corpus,
    write_utterance_csv,
)
from .schedule import cosine_schedule
from .style import condition_from_weights, normalize_weights, one_hot_weights
from .training import ModelBundle, build_models, load_checkpoint, train


class CommandError(Exception):
    pass


def _with_flags(run: RunConfig, args) -> RunConfig:
    """run with --seed and each given flag whose dest is the ``section.field`` it sets."""
    for dest, value in vars(args).items():
        section, _, name = dest.partition(".")
        if name and value is not None:
            run = replace(run, **{section: replace(getattr(run, section), **{name: value})})
    seed = getattr(args, "seed", None)
    return run if seed is None else replace(run, seed=seed)


def _reopen(args, checkpoint, corpus: Corpus) -> tuple[RunConfig, ModelBundle, int]:
    """The run archived next to checkpoint with the command's flags applied, its trained
    bundle and the checkpoint's step. No flag may change a training ablation."""
    archived = inference.archived_config(checkpoint)
    run = _with_flags(archived, args)
    for ablation in ("style_condition", "text_condition"):
        trained = getattr(archived.train, ablation)
        if trained != getattr(run.train, ablation):
            raise CommandError(f"{checkpoint} was trained with train.{ablation} {json.dumps(trained)}")
    bundle = build_models(run, corpus.stats)
    return run, bundle, load_checkpoint(bundle, checkpoint)


def _load_trained(args) -> tuple[Corpus, ModelBundle, RunConfig]:
    """sample and eval's reopened checkpoint, style-conditioned unless sampling --unconditional.
    The caller archives the config once its own inputs have been validated."""
    corpus = load_corpus(args.corpus)
    run, bundle, _ = _reopen(args, args.checkpoint, corpus)
    if not run.train.style_condition and not getattr(args, "unconditional", False):
        raise CommandError(
            f"{args.checkpoint} was trained with train.style_condition false; only sample --unconditional can use it"
        )
    return corpus, bundle, run


def _archive_config(run: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    run.save(out_dir / "resolved_config.json")


# commands -------------------------------------------------------------------


def cmd_gen_data(args) -> None:
    run = _with_flags(RunConfig.load(args.config) if args.config else RunConfig(), args)
    out_dir = Path(args.out)
    _archive_config(run, out_dir)
    corpus = generate_corpus(run.corpus, run.seed)
    save_corpus(corpus, out_dir / "corpus")
    print(f"wrote {len(corpus.utterances)} utterances to {out_dir / 'corpus'}")


def cmd_train(args) -> None:
    corpus = load_corpus(args.corpus)
    if args.resume:  # before archiving: --out may be the checkpoint's own directory
        run, bundle, start = _reopen(args, args.resume, corpus)
        if start >= run.train.steps:
            raise CommandError(f"checkpoint already at step {start}, nothing to train")
    else:
        run = _with_flags(RunConfig.load(args.config) if args.config else RunConfig(), args)
        bundle, start = build_models(run, corpus.stats), 0
    out_dir = Path(args.out)
    _archive_config(run, out_dir)
    final = train(bundle, corpus, run.train, out_dir, start_step=start, progress=not args.quiet)
    print(f"checkpoint: {final}")


def _resolve_mode_conditions(args, bundle, corpus, run, n_samples):
    """Returns (texts, conditions, mode_tag). Texts are phoneme-id arrays."""
    pick = rng_mod.substream(run.seed, rng_mod.SAMPLE_STREAM)  # no (stream, length) noise key can be this one
    val = corpus.split("val")
    texts = [val[int(i)].phoneme_ids for i in pick.integers(0, len(val), size=n_samples)]

    if args.unconditional:
        return texts, None, "unconditional"

    if args.mode == "control":
        k = bundle.bank.config.token_count
        if args.token_id is not None:
            weights = one_hot_weights(args.token_id, k)
        elif args.token_weights:
            weights = np.array([float(v) for v in args.token_weights.split(",")])
            if len(weights) != k:
                raise CommandError(f"need {k} token weights, got {len(weights)}")
            if not args.raw_weights:
                weights = normalize_weights(weights)
        else:
            raise CommandError("control mode needs --token-id or --token-weights")
        c = condition_from_weights(bundle.bank, weights, raw=args.raw_weights).data[0]
        return texts, [c] * len(texts), "control"

    if args.mode == "transfer":
        if not args.reference:
            raise CommandError("transfer mode needs --reference pointing at an utterance CSV")
        _, prosody = read_utterance_csv(args.reference)
        c = inference.style_conditions(bundle, [prosody])[0]
        return texts, [c] * len(texts), "transfer"

    # diversified: style from one val reference drawn per sample
    refs = [val[int(i)].prosody for i in pick.integers(0, len(val), size=n_samples)]
    return texts, inference.style_conditions(bundle, refs), "diversified"


def cmd_sample(args) -> None:
    if args.num_samples < 1:
        raise CommandError(f"--num-samples must be at least 1, got {args.num_samples}")
    mode = args.mode or "diversified"
    for flag, given, only_mode in (
        ("--mode", args.mode is not None, None),
        ("--reference", args.reference is not None, "transfer"),
        ("--token-id", args.token_id is not None, "control"),
        ("--token-weights", args.token_weights is not None, "control"),
        ("--raw-weights", args.raw_weights, "control"),
    ):
        if given and args.unconditional:
            raise CommandError(f"{flag} does not apply to --unconditional")
        if given and only_mode not in (None, mode):
            raise CommandError(f"{flag} is for --mode {only_mode} only, not {mode}")
    for flag, value in (
        ("--scale-pitch", args.scale_pitch),
        ("--scale-energy", args.scale_energy),
        ("--scale-duration", args.scale_duration),
    ):
        if not math.isfinite(value):
            raise CommandError(f"{flag} must be finite, got {value}")
    corpus, bundle, run = _load_trained(args)
    out_dir = Path(args.out)
    texts, conditions, tag = _resolve_mode_conditions(args, bundle, corpus, run, args.num_samples)
    _archive_config(run, out_dir)
    diagnostics: list | None = [] if args.diagnostics else None
    generated = inference.generate(bundle, texts, conditions, run.guidance, run.seed, diagnostics=diagnostics)

    scale = np.array([args.scale_pitch, args.scale_energy, args.scale_duration])[:, None]
    sample_dir = out_dir / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    for i, (ids, x) in enumerate(zip(texts, generated)):
        prosody = bundle.stats.denormalize(x) * scale
        write_utterance_csv(sample_dir / f"{tag}_{i:04d}.csv", ids, prosody)
    if diagnostics is not None:
        with open(out_dir / "diagnostics.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "example", "sigma_cond", "sigma_cfg", "applied_ratio"])
            for t, indices, diag in diagnostics:
                for b, i in enumerate(indices):
                    writer.writerow(
                        [t, i] + [repr(float(v[b])) for v in (diag.sigma_cond, diag.sigma_cfg, diag.applied_ratio)]
                    )
    print(f"wrote {len(generated)} samples to {sample_dir}")


def cmd_eval(args) -> None:
    corpus, bundle, run = _load_trained(args)
    sweep = []
    if args.eta_sweep is not None:
        sweep = [replace(run.guidance, eta=float(v)) for v in args.eta_sweep.split(",") if v.strip()]
        if not sweep:
            raise CommandError("empty eta sweep")
        if args.sweep_utterances < 1:
            raise CommandError("--sweep-utterances must be at least 1")
    out_dir = Path(args.out)
    _archive_config(run, out_dir)
    val = corpus.split("val")
    generated = inference.reconstruct(bundle, val, run.guidance, run.seed)
    js = evaluate.js_report(generated, val)

    rows = [("js_divergence", name, value) for name, value in js.items()]
    descriptors = []
    for x in generated:
        try:
            descriptors.append(evaluate.descriptor(x))
        except ValueError:
            pass
    if descriptors:
        spread = np.stack(descriptors).std(axis=0).mean()
        rows.append(("descriptor_spread", "all", float(spread)))

    sweep_rows = []
    for params in sweep:
        cv = evaluate.mean_cv(inference.reconstruct(bundle, val[: args.sweep_utterances], params, run.seed))
        sweep_rows.append((params.eta, cv[0], cv[1], cv[2]))

    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "channel", "value"])
        for metric, channel, value in rows:
            writer.writerow([metric, channel, repr(float(value))])
    if sweep_rows:
        with open(out_dir / "cv_sweep.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eta", "cv_pitch", "cv_energy", "cv_duration"])
            for eta, *cvs in sweep_rows:
                writer.writerow([repr(float(eta))] + [repr(float(v)) for v in cvs])

    if args.charts:
        chart_dir = out_dir / "charts"
        chart_dir.mkdir(exist_ok=True)
        write_bar_chart(
            chart_dir / "js_divergence.svg",
            list(js.keys()),
            [js[k] for k in js],
            "JS divergence vs held-out data",
        )
        if sweep_rows:
            write_line_chart(
                chart_dir / "cv_sweep.svg",
                [r[0] for r in sweep_rows],
                {
                    "pitch": [r[1] for r in sweep_rows],
                    "energy": [r[2] for r in sweep_rows],
                    "duration": [r[3] for r in sweep_rows],
                },
                "Coefficient of variation vs guiding scale",
                x_label="eta",
            )
    for metric, channel, value in rows:
        print(f"{metric}[{channel}] = {value:.4f}")


def cmd_plot(args) -> None:
    src = Path(args.input)
    if not src.exists():
        raise CommandError(f"no such file: {src}")
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CommandError(f"{src} has no data rows")
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise CommandError(f"{src}: every row needs {len(header)} fields")
    try:
        values = [[float(v) for v in r] for r in body]
    except ValueError as exc:
        raise CommandError(f"{src}: {exc}") from None
    if not all(math.isfinite(v) for r in values for v in r):
        raise CommandError(f"{src}: every value must be finite")
    x = [r[0] for r in values]
    series = {name: [r[i] for r in values] for i, name in enumerate(header) if i > 0}
    write_line_chart(args.out, x, series, src.stem, x_label=header[0])
    print(f"wrote {args.out}")


def cmd_dump_schedule(args) -> None:
    settings = _with_flags(RunConfig(), args).schedule
    cosine_schedule(settings.steps, settings.offset).dump_csv(args.out)
    print(f"wrote {settings.steps}-step schedule to {args.out}")


# argument wiring -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors end in the JSON error line too, with argparse's exit status
        print(json.dumps({"error": message}), file=sys.stderr)
        sys.exit(2)


def _add_trained_run_flags(p: argparse.ArgumentParser) -> None:
    """The inputs, output and config flags that sample and eval share."""
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eta", dest="guidance.eta", type=float, default=None, help="guiding scale")
    p.add_argument("--gamma", dest="guidance.gamma", type=float, default=None, help="std-correction scale in [0,1]")
    p.add_argument("--tau", dest="guidance.tau", type=float, default=None, help="terminal temperature")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prosodiff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train both denoisers and the style bank")
    start = p.add_mutually_exclusive_group()  # a resumed run's config is the one archived with its checkpoint
    start.add_argument("--config", default=None)
    start.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", dest="train.steps", type=int, default=None, help="training steps")
    p.add_argument("--batch-size", dest="train.batch_size", type=int, default=None)
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float, default=None)
    ablation = {"action": "store_false", "default": None}  # given, the flag sets its field false
    p.add_argument("--no-style-condition", dest="train.style_condition", help="ablation: drop the style pathway", **ablation)
    p.add_argument("--no-text-condition", dest="train.text_condition", help="ablation: zero text embeddings", **ablation)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="guided sampling in one of three modes")
    _add_trained_run_flags(p)
    p.add_argument("--mode", choices=["diversified", "transfer", "control"], default=None, help="default diversified")
    p.add_argument("--num-samples", type=int, default=8)
    p.add_argument("--reference", default=None, help="utterance CSV supplying the style")
    p.add_argument("--token-id", type=int, default=None)
    p.add_argument("--token-weights", default=None, help="comma-separated weights over tokens")
    p.add_argument("--raw-weights", action="store_true", help="skip simplex normalisation of --token-weights")
    p.add_argument("--scale-pitch", type=float, default=1.0)
    p.add_argument("--scale-energy", type=float, default=1.0)
    p.add_argument("--scale-duration", type=float, default=1.0)
    p.add_argument("--unconditional", action="store_true", help="sample from the style-unconditional denoiser")
    p.add_argument("--diagnostics", action="store_true", help="write per-step rescale diagnostics CSV")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="JS divergence report and CV-vs-eta sweep")
    _add_trained_run_flags(p)
    p.add_argument("--eta-sweep", default=None, help="comma-separated guiding scales")
    p.add_argument("--sweep-utterances", type=int, default=24)
    p.add_argument("--charts", action="store_true", help="emit SVG charts")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render a CSV (step/value columns) as an SVG line chart")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("dump-schedule", help="write the beta/alpha tables as CSV")
    p.add_argument("--steps", dest="schedule.steps", type=int, default=None)
    p.add_argument("--offset", dest="schedule.offset", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (CommandError, CheckpointError, ValueError, OSError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
