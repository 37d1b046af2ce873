"""Tests of the benchmark itself: tracer arithmetic, wrapper hygiene, and a
tiny-size smoke run of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Sizes(
    utterances_per_style=5,
    diffusion_steps=3,
    setup_steps=2,
    setup_repeats=1,
    train_steps=2,
    samples_per_request=2,
)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert tracing.covered([], 0, 10) == 0
    assert tracing.covered([(2, 4), (3, 6), (8, 20)], 0, 10) == 4 + 2
    assert tracing.covered([(5, 6), (1, 3)], 2, 10) == 1 + 1


def test_self_time_is_duration_minus_child_coverage():
    # root 0..100 with children A 10..40 (which holds A1 15..25) and two
    # overlapping children B 50..70 and C 60..90
    spans = [
        ["root", 0, 100, -1],
        ["A", 10, 40, 0],
        ["A1", 15, 25, 1],
        ["B", 50, 70, 0],
        ["C", 60, 90, 0],
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 20, 30]
    summary = tracing.summarize(spans, {})
    assert summary.busy == {"root": 100, "A": 30, "A1": 10, "B": 20, "C": 30}
    assert summary.self_busy["root"] == 30


def test_summarize_counts_convolutions_inside_forwards():
    spans = [
        ["denoiser.predict_noise.nograd", 0, 10, -1],
        ["engine.conv1d_k3.fwd", 1, 2, 0],
        ["engine.conv1d_k1.fwd", 3, 4, 0],
        ["style.encode_style", 11, 20, -1],
        ["engine.conv1d_k3.fwd", 12, 13, 3],
    ]
    counts = tracing.summarize(spans, {"x": 2}).counts
    assert counts == {"x": 2, "engine.conv1d": 3, "denoiser.conv1d_in_forward": 2}


def _bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "prosodiff" or name.startswith("prosodiff.")
        for key, value in list(vars(module).items())
    }


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from prosodiff import denoiser, engine, guidance

    before = _bindings()
    backward = engine.Tensor.backward
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        assert installed.missing == []
        assert guidance.predict_noise is denoiser.predict_noise is not before[("prosodiff.denoiser", "predict_noise")]
        assert engine.Tensor.backward is not backward
        model = denoiser.Denoiser(denoiser.DenoiserConfig(), True, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((2, 3, 5))
        out = denoiser.predict_noise(model, x, 4, np.zeros((5, 64)), np.zeros((2, 64)))
        engine.mean(engine.mul(out, out)).backward()
    finally:
        tracing.uninstall(installed)
    after = _bindings()
    assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    assert engine.Tensor.backward is backward
    summary = tracing.summarize(tracer.spans, tracer.counts)
    assert summary.counts["denoiser.conv1d_in_forward"] == 39
    assert len(summary.calls["denoiser.predict_noise.grad"]) == 1
    assert len(summary.calls["engine.conv1d_k3.bwd"]) == 12
    assert len(summary.calls["engine.backward"]) == 1


@pytest.mark.parametrize("name", list(wl.WORKLOAD_CLASSES))
def test_tiny_smoke_run(name, tmp_path):
    setup = wl.set_up(tmp_path, 7, TINY)
    workload = wl.WORKLOAD_CLASSES[name](setup, 7, TINY, tmp_path, None)
    results, notes = wl.measure(workload, 0.0)
    assert notes == [] and len(results) == workload.cycle
    assert all((r.scale != 1.0) == workload.at_reference_speed for r in results)
    metrics = wl.end_to_end(results, setup)
    assert all(value > 0 for value in metrics.values())

    results, notes, layers = wl.measure_traced(workload, 0.0)
    assert notes == [] and all(r.ok for r in results)
    assert set(layers) == set(wl.per_layer_units())
    assert layers["engine.conv1d.calls"] > 0 and layers["cli.self_ms"] > 0
    if name == "train":
        assert layers["optim.params"] > 0 and layers["engine.conv1d_k1.bwd_ms"] > 0
    else:
        assert layers["denoiser.conv1d_per_forward"] == 39 and layers["guidance.sample.calls"] > 0


def test_speed_scale_is_reference_over_the_median_probe_call():
    assert speed.scale([0.001, 0.004, 0.002]) == pytest.approx(speed.REFERENCE_S / 0.002)
    durations = speed.probe()
    assert len(durations) == speed.REPEATS and all(d > 0 for d in durations)
    assert speed.kernel() == speed.kernel()


def test_run_cli_turns_a_rejected_flag_into_a_failed_op():
    code, err = wl.run_cli(["train", "--corpus", "c", "--out", "o", "--no-such-flag"])
    assert code == 2 and "--no-such-flag" in err


def _write_report(out, js, spread):
    out.mkdir()
    rows = [f"js_divergence,{channel},{value!r}" for channel, value in js.items()]
    (out / "report.csv").write_text("\n".join(["metric,channel,value", *rows, f"descriptor_spread,all,{spread!r}"]) + "\n")


@pytest.mark.parametrize(
    "scale, spread, ok",
    [(1.0, 1.0, True), (1.3, 1.0, False), (0.7, 1.0, False), (1.0, 1.25, False), (1.0, 0.8, False)],
)
def test_eval_check_bounds_js_and_spread_on_both_sides(tmp_path, scale, spread, ok):
    ref = {"log_pitch": 0.12, "energy": 0.2, "log_duration": 0.1}
    evaluate = wl.EvalVal.__new__(wl.EvalVal)
    evaluate.golden = {"eval_js": ref, "eval_spread": 2.0}
    _write_report(tmp_path / "out", {"log_pitch": 0.12, "energy": 0.2 * scale, "log_duration": 0.1}, 2.0 * spread)
    if ok:
        evaluate.check(tmp_path / "out")
    else:
        with pytest.raises(wl.CheckFailed):
            evaluate.check(tmp_path / "out")
