"""The three prosodiff workloads, their set-up, output checks and metrics.

Every operation is one call of the public CLI entry point
``prosodiff.cli.main`` in this process, closed-loop with one client: the
next operation starts when the previous one returned.

- ``train``: ``prosodiff train`` from fresh init for a fixed step count.
- ``eval-val``: ``prosodiff eval --eta 2`` over the whole val split.
- ``sample-requests``: ``prosodiff sample --num-samples 8`` requests that
  rotate through the diversified, transfer and control modes.

Set-up generates the corpus and trains the short model that ``eval-val``
and ``sample-requests`` read. ``sample-requests`` times are reported at
the machine's reference speed (see ``speed.py``). Inputs are a pure
function of the workload seed: corpus and training seeds use
``seed % GOLDEN_SLOTS`` so their outputs can be compared with the
reference values in ``golden.json``; sampler seeds use the whole seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import multiprocessing
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from prosodiff.cli import main as cli_main
from prosodiff.style import StyleConfig

import speed
import tracer as tracing

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SLOTS = 32
# final train losses may move by a change in floating-point reduction order:
# a one-ulp change to every initial parameter moves them by about 1e-16
# after one op, and Adam can amplify such noise; a wrong gradient moves
# them by 1e-3 or more
LOSS_RTOL = 1e-5
# eval report bounds. The reference is the set-up model's eval report,
# averaged over GOLDEN_DRAWS sampler seeds. JS per channel must lie within
# [ref / JS_SCALE - JS_SLACK, ref * JS_SCALE + JS_SLACK] and the descriptor
# spread within [ref / SPREAD_SCALE, ref * SPREAD_SCALE]. New sampler noise
# draws move JS by up to 16% and the spread by up to 7%. Which broken
# samplers the bounds catch on the short set-up model is in README.md
GOLDEN_DRAWS = 4
JS_SCALE = 1.2
JS_SLACK = 0.01
SPREAD_SCALE = 1.2
MODES = ("diversified", "transfer", "control")


@dataclass(frozen=True)
class Sizes:
    """Operating point; ``golden.json`` holds values for the defaults only."""

    utterances_per_style: int = 250
    diffusion_steps: int = 25
    setup_steps: int = 40
    setup_repeats: int = 3
    train_steps: int = 100
    samples_per_request: int = 8
    eta: float = 2.0


class CheckFailed(Exception):
    pass


class SetupFailed(Exception):
    pass


def load_golden(sizes: Sizes) -> dict | None:
    if not GOLDEN_PATH.exists():
        return None
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    return golden["slots"] if golden["sizes"] == asdict(sizes) else None


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # e.g. argparse rejecting a flag; same exit codes as the interpreter's
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                print(exc.code, file=sys.stderr)
                code = 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


@dataclass
class SetUp:
    config: Path
    corpus: Path
    checkpoint: Path
    val_count: int
    vocab_size: int
    length_range: tuple[int, int]
    val_files: list[str]
    seconds: list[float]


def _set_up_runs(work: Path, slot: int, config: Path, sizes: Sizes) -> list[float]:
    """Runs set-up ``sizes.setup_repeats`` times; keeps only the last run's files."""
    seconds = []
    for r in range(sizes.setup_repeats):
        where = work / f"setup{r}"
        started = time.perf_counter()
        for argv in (
            ["gen-data", "--config", str(config), "--out", str(where / "data"), "--seed", str(slot)],
            ["train", "--config", str(config), "--corpus", str(where / "data" / "corpus"),
             "--out", str(where / "model"), "--steps", str(sizes.setup_steps), "--seed", str(slot), "--quiet"],
        ):
            code, err = run_cli(argv)
            if code != 0:
                raise SetupFailed(f"prosodiff {argv[0]} exited {code}: {err.strip()}")
        seconds.append(time.perf_counter() - started)
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
    return seconds


def _set_up_in_child(conn, *args) -> None:
    """Child-process side of ``set_up``: sends (True, seconds) or (False, error)."""
    try:
        conn.send((True, _set_up_runs(*args)))
    except BaseException as exc:
        conn.send((False, f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def set_up(work: Path, seed: int, sizes: Sizes) -> SetUp:
    """Corpus generation plus the short training run, repeated for a timing median.

    The runs happen in a forked child process, so that this process's peak
    resident set (``peak_rss_mb``) is the workload's own and not set-up
    training's.
    """
    slot = seed % GOLDEN_SLOTS
    config = work / "config.json"
    config.write_text(
        json.dumps(
            {
                "corpus": {"utterances_per_style": sizes.utterances_per_style},
                "schedule": {"steps": sizes.diffusion_steps},
                # a run this short learns more at a constant rate than with
                # the default decay to 10%
                "train": {"lr_decay": False},
            }
        )
    )
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_set_up_in_child, args=(sender, work, slot, config, sizes))
    child.start()
    sender.close()
    try:
        ok, payload = receiver.recv()
    except EOFError:
        ok, payload = False, f"set-up process ended without a result (exit code {child.exitcode})"
    finally:
        receiver.close()
        child.join()
    if not ok:
        raise SetupFailed(payload)
    seconds = payload
    where = work / f"setup{sizes.setup_repeats - 1}"
    corpus = where / "data" / "corpus"
    with open(corpus / "manifest.json") as fh:
        manifest = json.load(fh)
    return SetUp(
        config=config,
        corpus=corpus,
        checkpoint=where / "model" / "final.bin",
        val_count=len(manifest["val_indices"]),
        vocab_size=manifest["config"]["vocab_size"],
        length_range=tuple(manifest["config"]["length_range"]),
        val_files=[manifest["utterances"][i]["file"] for i in manifest["val_indices"]],
        seconds=seconds,
    )


# operations -----------------------------------------------------------------


@dataclass
class Op:
    argv: list[str]
    out: Path
    work: float  # units of work the op completes: train steps, val utterances or requests
    check: Callable[[Path], None]  # raises CheckFailed


def _finite_rows(path: Path, header: list[str]) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: unexpected header {rows[:1]}")
    values = [[float(v) for v in row] for row in rows[1:]]
    if not values or not all(math.isfinite(v) for row in values for v in row):
        raise CheckFailed(f"{path.name}: empty or non-finite values")
    return values


class Workload:
    """Builds op ``i`` of a workload and knows how to check its outputs."""

    cycle = 1  # ops that make one full rotation of the workload's inputs
    # whether op times are scaled to reference speed: only for dispatch-bound
    # ops, whose time follows the reference kernel's (see speed.py)
    at_reference_speed = False

    def __init__(self, setup: SetUp, seed: int, sizes: Sizes, work: Path, golden: dict | None):
        self.setup = setup
        self.seed = seed
        self.slot = seed % GOLDEN_SLOTS
        self.sizes = sizes
        self.work = work
        self.golden = golden[str(self.slot)] if golden is not None else None


class Train(Workload):
    def op(self, i: int) -> Op:
        out = self.work / f"op{i}"
        # the default config: only the step count differs
        argv = ["train", "--corpus", str(self.setup.corpus), "--out", str(out),
                "--steps", str(self.sizes.train_steps), "--seed", str(self.slot), "--quiet"]
        return Op(argv, out, self.sizes.train_steps, self.check)

    def final_losses(self, out: Path) -> list[float]:
        rows = _finite_rows(out / "loss.csv", ["step", "loss_c", "loss_nc"])
        if rows[-1][0] != self.sizes.train_steps:
            raise CheckFailed(f"loss.csv ends at step {rows[-1][0]}, expected {self.sizes.train_steps}")
        if not (out / "final.bin").exists():
            raise CheckFailed("no final checkpoint")
        return rows[-1][1:]

    def check(self, out: Path) -> None:
        final = self.final_losses(out)
        if self.golden is not None:
            expected = self.golden["train_final_loss"]
            if not np.allclose(final, expected, rtol=LOSS_RTOL, atol=0.0):
                raise CheckFailed(f"final losses {final} differ from golden {expected}")


class EvalVal(Workload):
    def op(self, i: int) -> Op:
        out = self.work / f"op{i}"
        argv = ["eval", "--checkpoint", str(self.setup.checkpoint), "--corpus", str(self.setup.corpus),
                "--out", str(out), "--eta", repr(self.sizes.eta), "--seed", str(derived_seed(self.seed, 1, i))]
        return Op(argv, out, self.setup.val_count, self.check)

    @staticmethod
    def report(out: Path) -> tuple[dict[str, float], float]:
        """JS divergence per channel and the descriptor spread from ``report.csv``."""
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        js = {r["channel"]: float(r["value"]) for r in rows if r["metric"] == "js_divergence"}
        if len(js) != 3 or not all(math.isfinite(v) and 0.0 <= v <= math.log(2.0) + 1e-12 for v in js.values()):
            raise CheckFailed(f"bad JS report {js}")
        spread = [float(r["value"]) for r in rows if r["metric"] == "descriptor_spread"]
        if len(spread) != 1 or not math.isfinite(spread[0]):
            raise CheckFailed(f"bad descriptor spread {spread}")
        return js, spread[0]

    def check(self, out: Path) -> None:
        js, spread = self.report(out)
        if self.golden is None:
            return
        for channel, ref in self.golden["eval_js"].items():
            lo, hi = ref / JS_SCALE - JS_SLACK, ref * JS_SCALE + JS_SLACK
            if not lo <= js[channel] <= hi:
                raise CheckFailed(f"JS[{channel}] = {js[channel]:.4f} outside [{lo:.4f}, {hi:.4f}]")
        ref = self.golden["eval_spread"]
        lo, hi = ref / SPREAD_SCALE, ref * SPREAD_SCALE
        if not lo <= spread <= hi:
            raise CheckFailed(f"descriptor spread {spread:.4f} outside [{lo:.4f}, {hi:.4f}]")


class SampleRequests(Workload):
    cycle = len(MODES)
    at_reference_speed = True

    def op(self, i: int) -> Op:
        out = self.work / f"op{i}"
        mode = MODES[i % len(MODES)]
        pick = np.random.default_rng(derived_seed(self.seed, 2, i))
        argv = ["sample", "--checkpoint", str(self.setup.checkpoint), "--corpus", str(self.setup.corpus),
                "--out", str(out), "--mode", mode, "--num-samples", str(self.sizes.samples_per_request),
                "--eta", repr(self.sizes.eta), "--seed", str(derived_seed(self.seed, 3, i))]
        if mode == "transfer":
            reference = self.setup.val_files[int(pick.integers(len(self.setup.val_files)))]
            argv += ["--reference", str(self.setup.corpus / reference)]
        elif mode == "control":
            argv += ["--token-id", str(int(pick.integers(StyleConfig().token_count)))]
        return Op(argv, out, 1, lambda o, mode=mode: self.check(o, mode))

    def check(self, out: Path, mode: str) -> None:
        files = sorted((out / "samples").glob("*.csv"))
        expected = [f"{mode}_{k:04d}.csv" for k in range(self.sizes.samples_per_request)]
        if [f.name for f in files] != expected:
            raise CheckFailed(f"sample files {[f.name for f in files]} != {expected}")
        lo, hi = self.setup.length_range
        for f in files:
            rows = np.array(_finite_rows(f, ["phoneme_id", "log_pitch", "energy", "log_duration"]))
            ids, prosody = rows[:, 0], rows[:, 1:].T
            if prosody.shape[0] != 3 or not lo <= prosody.shape[1] <= hi:
                raise CheckFailed(f"{f.name}: shape {prosody.shape}, want [3, L] with L in {lo}..{hi}")
            if np.any(ids < 0) or np.any(ids >= self.setup.vocab_size) or np.any(ids != np.round(ids)):
                raise CheckFailed(f"{f.name}: phoneme ids outside the vocabulary")


WORKLOAD_CLASSES = {"train": Train, "eval-val": EvalVal, "sample-requests": SampleRequests}


# measurement ----------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    work: float
    ok: bool
    note: str = ""
    scale: float = 1.0  # speed.scale next to the op; seconds * scale is its time at reference speed


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def execute(op: Op, tracer: tracing.Tracer | None = None) -> OpResult:
    if tracer is not None:
        tracer.reset()
        root = tracer.begin("cli")
    started = time.perf_counter()
    code, err = run_cli(op.argv)
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.end(root)
    if code != 0:
        return OpResult(seconds, op.work, False, f"prosodiff {op.argv[0]} exited {code}: {err.strip()[-400:]}")
    try:
        op.check(op.out)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return OpResult(seconds, op.work, False, f"check failed: {exc}")
    return OpResult(seconds, op.work, True)


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(workload: Workload, seconds: float) -> tuple[list[OpResult], list[str]]:
    """Untraced closed loop: ops back to back until ``seconds`` have passed
    (and at least one full cycle ran); with a speed probe between ops if
    the workload is reported at reference speed."""
    results, notes = [], []
    probing = workload.at_reference_speed
    if probing:
        speed.probe()  # warm-up
    started = time.perf_counter()
    before = speed.probe() if probing else []
    i = 0
    while i < workload.cycle or time.perf_counter() - started < seconds:
        op = workload.op(i)
        result = execute(op)
        shutil.rmtree(op.out, ignore_errors=True)
        if probing:
            after = speed.probe()
            result.scale = speed.scale(before + after)
            before = after
        results.append(result)
        if not result.ok:
            notes.append(f"op {i}: {result.note}")
        i += 1
    return results, notes


def end_to_end(results: list[OpResult], setup: SetUp, at_reference: bool = True) -> dict[str, float]:
    """The end-to-end metrics; op times scaled by each op's speed scale unless
    ``at_reference`` is false."""
    done = [r for r in results if r.ok]
    op_seconds = [r.seconds * (r.scale if at_reference else 1.0) for r in done]
    busy = sum(op_seconds)
    return {
        "setup_s": _median(setup.seconds),
        "op_s_p50": _median(op_seconds),
        "work_per_s": sum(r.work for r in done) / busy if busy > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# traced run -----------------------------------------------------------------

# busy-time metric -> span name; each also gets a per-call median
TIMED = {
    "engine.conv1d_k3.fwd_ms": "engine.conv1d_k3.fwd",
    "engine.conv1d_k1.fwd_ms": "engine.conv1d_k1.fwd",
    "engine.conv1d_k3.bwd_ms": "engine.conv1d_k3.bwd",
    "engine.conv1d_k1.bwd_ms": "engine.conv1d_k1.bwd",
    "engine.gated_activation.ms": "engine.gated_activation",
    "optim.optimizer_step.ms": "optim.optimizer_step",
    "denoiser.predict_noise.grad_ms": "denoiser.predict_noise.grad",
    "denoiser.predict_noise.nograd_ms": "denoiser.predict_noise.nograd",
    "style.encode_style.ms": "style.encode_style",
    "guidance.diffusion_loss.ms": "guidance.diffusion_loss",
    "guidance.sample.ms": "guidance.sample",
    "guidance.cfg_combine.ms": "guidance.cfg_combine",
    "guidance.rescale.ms": "guidance.rescale",
    "guidance.reverse_step.ms": "guidance.reverse_step",
    "inference.generate.ms": "inference.generate",
    "inference.style_conditions.ms": "inference.style_conditions",
    "training.train_step.ms": "training.train_step",
    "training.next_batch.ms": "training.next_batch",
    "corpus.load_corpus.ms": "corpus.load_corpus",
    "checkpoint.load_entries.ms": "checkpoint.load_entries",
    "checkpoint.save_entries.ms": "checkpoint.save_entries",
    "evaluate.js_report.ms": "evaluate.js_report",
}
# self-time metric -> span name
SELF = {
    "engine.backward.ms": "engine.backward",
    "cli.self_ms": "cli",
}
COUNTS = (
    "engine.conv1d.calls",
    "denoiser.predict_noise.calls",
    "denoiser.conv1d_per_forward",
    "guidance.sample.calls",
    "inference.rows_per_chain",
    "optim.params",
)
OVERHEAD = ("trace.overhead_ms", "trace.overhead_pct")


def call_metric(name: str) -> str:
    """Per-call median name for a busy-time metric: ``x.ms`` -> ``x.call_us``."""
    return name[: -len("ms")] + "call_us"


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in (*TIMED, *SELF):
        units[name] = "ms"
        units[call_metric(name)] = "us"
    units.update({name: "count" for name in COUNTS})
    units.update({"trace.overhead_ms": "ms", "trace.overhead_pct": "%"})
    return units


def _cycle_counts(summaries: list[tracing.OpSummary]) -> dict[str, float]:
    """Exact counts summed over one cycle of ops."""
    counts: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s in summaries:
        for k, v in s.counts.items():
            counts[k] = counts.get(k, 0) + v
        for k, v in s.calls.items():
            calls[k] = calls.get(k, 0) + len(v)
    forwards = calls.get("denoiser.predict_noise.grad", 0) + calls.get("denoiser.predict_noise.nograd", 0)
    chains = calls.get("guidance.sample", 0)
    steps = counts.get("optim.steps", 0)
    return {
        "engine.conv1d.calls": counts.get("engine.conv1d", 0),
        "denoiser.predict_noise.calls": forwards,
        "denoiser.conv1d_per_forward": counts.get("denoiser.conv1d_in_forward", 0) / forwards if forwards else 0,
        "guidance.sample.calls": chains,
        "inference.rows_per_chain": counts.get("guidance.sample.rows", 0) / chains if chains else 0,
        "optim.params": counts.get("optim.params", 0) / steps if steps else 0,
    }


def layer_metrics(summaries: list[tracing.OpSummary], cycle: int, untraced: list[float], traced: list[float]):
    n = len(summaries)
    metrics: dict[str, float] = {}
    for name, span in TIMED.items():
        metrics[name] = sum(s.busy.get(span, 0) for s in summaries) / n / 1e6
        metrics[call_metric(name)] = _median([d for s in summaries for d in s.calls.get(span, [])]) / 1e3
    for name, span in SELF.items():
        metrics[name] = sum(s.self_busy.get(span, 0) for s in summaries) / n / 1e6
        metrics[call_metric(name)] = _median([d for s in summaries for d in s.self_calls.get(span, [])]) / 1e3
    metrics.update(_cycle_counts(summaries[:cycle]))
    metrics["trace.overhead_ms"] = 1e3 * _median([t - u for u, t in zip(untraced, traced)])
    metrics["trace.overhead_pct"] = 100.0 * _median([(t - u) / u for u, t in zip(untraced, traced)])
    return metrics


def measure_traced(workload: Workload, seconds: float):
    """Each op runs untraced, then traced on the same inputs; the pair gives the
    tracing overhead, and the two must write byte-identical outputs."""
    tracer = tracing.Tracer()
    results, notes, summaries, untraced, traced = [], [], [], [], []
    started = time.perf_counter()
    i = 0
    while i < workload.cycle or time.perf_counter() - started < seconds:
        op = workload.op(i)
        plain = execute(op)
        reference = _tree_bytes(op.out) if plain.ok else None
        shutil.rmtree(op.out, ignore_errors=True)
        installed = tracing.install(tracer)
        try:
            result = execute(op, tracer)
        finally:
            tracing.uninstall(installed)
        if result.ok and reference is not None and _tree_bytes(op.out) != reference:
            result = OpResult(result.seconds, result.work, False, "traced outputs differ from untraced ones")
        shutil.rmtree(op.out, ignore_errors=True)
        for r in (plain, result):
            results.append(r)
            if not r.ok:
                notes.append(f"op {i}: {r.note}")
        if installed.missing:
            notes.append(f"not traced (absent): {', '.join(installed.missing)}")
        summaries.append(tracing.summarize(tracer.spans, tracer.counts))
        untraced.append(plain.seconds)
        traced.append(result.seconds)
        tracer.reset()
        i += 1
    return results, sorted(set(notes)), layer_metrics(summaries, workload.cycle, untraced, traced)
