"""In-memory span tracer that wraps prosodiff's public functions from outside.

``install`` replaces each traced function with a timing wrapper in every
``prosodiff`` module namespace that bound it (modules import names from
each other, so patching one attribute is not enough), and ``uninstall``
puts every original back. Spans are kept in a flat list as
``[name, start_ns, end_ns, parent_index]``; ``summarize`` turns the spans
of one operation into busy time, per-call durations, self time and exact
counts per layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

NAME, START, END, PARENT = range(4)


class Tracer:
    """Span stack plus named counters; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._open = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter_ns()
        self._open.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# span arithmetic -------------------------------------------------------------


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (s[END] - s[START]) - covered(children.get(i, []), s[START], s[END]) for i, s in enumerate(spans)
    ]


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


@dataclass
class OpSummary:
    """Layer statistics of one traced operation (times in ns)."""

    busy: dict[str, int] = field(default_factory=dict)
    self_busy: dict[str, int] = field(default_factory=dict)
    calls: dict[str, list[int]] = field(default_factory=dict)
    self_calls: dict[str, list[int]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def summarize(spans: list[list], counts: dict[str, int]) -> OpSummary:
    out = OpSummary(counts=dict(counts))
    selfs = self_times(spans)
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        out.busy[name] = out.busy.get(name, 0) + duration
        out.self_busy[name] = out.self_busy.get(name, 0) + selfs[i]
        out.calls.setdefault(name, []).append(duration)
        out.self_calls.setdefault(name, []).append(selfs[i])
    conv_in_forward = 0
    for i, span in enumerate(spans):
        if span[NAME].startswith("engine.conv1d_") and span[NAME].endswith(".fwd"):
            out.counts["engine.conv1d"] = out.counts.get("engine.conv1d", 0) + 1
            if has_ancestor(spans, i, "denoiser.predict_noise.grad") or has_ancestor(
                spans, i, "denoiser.predict_noise.nograd"
            ):
                conv_in_forward += 1
    out.counts["denoiser.conv1d_in_forward"] = conv_in_forward
    return out


# wrapping --------------------------------------------------------------------


def _plain(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return traced


def _conv1d(tracer: Tracer, fn):
    """Names the span by kernel width and times the backward closure of the result."""

    @functools.wraps(fn)
    def traced(x, weight, *args, **kwargs):
        width = getattr(weight, "shape", (0,))[-1]
        prefix = f"engine.conv1d_k{width}"
        sid = tracer.begin(prefix + ".fwd")
        try:
            out = fn(x, weight, *args, **kwargs)
        finally:
            tracer.end(sid)
        vjp = getattr(out, "_vjp", None)
        if vjp is not None:
            out._vjp = _plain(tracer, prefix + ".bwd", vjp)
        return out

    return traced


def _predict_noise(tracer: Tracer, fn):
    """Splits forwards that record a graph (training) from no-grad ones (sampling)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin("denoiser.predict_noise")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        grad = getattr(out, "_vjp", None) is not None
        tracer.spans[sid][NAME] = "denoiser.predict_noise." + ("grad" if grad else "nograd")
        return out

    return traced


def _optimizer_step(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(params, *args, **kwargs):
        params = list(params)
        tracer.count("optim.params", len(params))
        tracer.count("optim.steps")
        sid = tracer.begin("optim.optimizer_step")
        try:
            return fn(params, *args, **kwargs)
        finally:
            tracer.end(sid)

    return traced


def _sample(tracer: Tracer, fn):
    """Counts chains and the rows each chain carries."""

    @functools.wraps(fn)
    def traced(theta1, theta2, y, *args, **kwargs):
        tracer.count("guidance.sample.rows", int(getattr(y, "shape", (1,))[0]))
        sid = tracer.begin("guidance.sample")
        try:
            return fn(theta1, theta2, y, *args, **kwargs)
        finally:
            tracer.end(sid)

    return traced


# (module, attribute or Class.method, span name or special wrapper factory)
TARGETS = [
    ("engine", "conv1d", _conv1d),
    ("engine", "gated_activation", "engine.gated_activation"),
    ("engine", "Tensor.backward", "engine.backward"),
    ("optim", "optimizer_step", _optimizer_step),
    ("denoiser", "predict_noise", _predict_noise),
    ("style", "encode_style", "style.encode_style"),
    ("guidance", "diffusion_loss", "guidance.diffusion_loss"),
    ("guidance", "sample", _sample),
    ("guidance", "cfg_combine", "guidance.cfg_combine"),
    ("guidance", "rescale", "guidance.rescale"),
    ("guidance", "reverse_step", "guidance.reverse_step"),
    ("inference", "generate", "inference.generate"),
    ("inference", "style_conditions", "inference.style_conditions"),
    ("training", "train_step", "training.train_step"),
    ("training", "LengthBucketSampler.next_batch", "training.next_batch"),
    ("corpus", "load_corpus", "corpus.load_corpus"),
    ("checkpoint", "load_entries", "checkpoint.load_entries"),
    ("checkpoint", "save_entries", "checkpoint.save_entries"),
    ("evaluate", "js_report", "evaluate.js_report"),
]


PACKAGE = "prosodiff"


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Installation:
    """The patches one ``install`` made, so ``uninstall`` can undo exactly them."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self.missing: list[str] = []
        self.wrappers: list = []  # held, so their ids stay unique until the leftover check


def install(tracer: Tracer) -> Installation:
    """Wrap every target that exists; names a later version dropped land in ``missing``."""
    done = Installation()
    for module_name, attr, how in TARGETS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            done.missing.append(f"{module_name}.{attr}")
            continue
        owner, name = module, attr
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(module, cls_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            done.missing.append(f"{module_name}.{attr}")
            continue
        wrapper = _plain(tracer, how, original) if isinstance(how, str) else how(tracer, original)
        done.wrappers.append(wrapper)
        if owner is module:
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        done.patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        else:
            done.patches.append((owner, name, original))
            setattr(owner, name, wrapper)
    return done


def uninstall(done: Installation) -> None:
    """Restore every original and verify no wrapper is left in any namespace."""
    for owner, name, original in reversed(done.patches):
        setattr(owner, name, original)
    done.patches = []
    ids = {id(w) for w in done.wrappers}
    leftovers = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if id(value) in ids:
                leftovers.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                leftovers += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items() if id(v) in ids]
    if leftovers:
        raise RuntimeError(f"tracer wrappers left installed: {', '.join(leftovers)}")
