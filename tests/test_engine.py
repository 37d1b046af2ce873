import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prosodiff import engine, optim
from prosodiff.checkpoint import MAGIC, VERSION, CheckpointError, load_entries, save_entries
from prosodiff.engine import Tensor
from prosodiff.optim import AdamState, optimizer_step

from helpers import assert_gradients_match


def conv1d_reference(x, w, b, dilation):
    """Nested-loop convolution oracle (same-length, symmetric zero padding)."""
    batch, cin, length = x.shape
    cout, _, k = w.shape
    pad = dilation * (k - 1) // 2
    out = np.zeros((batch, cout, length))
    for bi in range(batch):
        for o in range(cout):
            for pos in range(length):
                acc = 0.0 if b is None else b[o]
                for i in range(cin):
                    for tap in range(k):
                        src = pos + tap * dilation - pad
                        if 0 <= src < length:
                            acc += x[bi, i, src] * w[o, i, tap]
                out[bi, o, pos] = acc
    return out


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 9))
        w = np.zeros((3, 3, 3))
        for c in range(3):
            w[c, c, 1] = 1.0
        out = engine.conv1d(Tensor(x), Tensor(w), None, dilation=1)
        assert np.array_equal(out.data, x)

    def test_zero_input_broadcasts_bias(self):
        b = np.array([1.5, -2.0])
        out = engine.conv1d(Tensor(np.zeros((1, 3, 5))), Tensor(np.zeros((2, 3, 3))), Tensor(b))
        assert np.array_equal(out.data, np.broadcast_to(b[None, :, None], (1, 2, 5)))

    @pytest.mark.parametrize("dilation,kernel", [(1, 1), (1, 3), (2, 3), (3, 5)])
    def test_matches_loop_oracle(self, dilation, kernel):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 8))
        w = rng.standard_normal((4, 2, kernel))
        b = rng.standard_normal(4)
        out = engine.conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation)
        np.testing.assert_allclose(out.data, conv1d_reference(x, w, b, dilation), atol=1e-12)

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            engine.conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))), None)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            engine.conv1d(Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 3, 3))), None)

    @settings(max_examples=200, deadline=None)
    @given(
        batch=st.integers(1, 3),
        cin=st.integers(1, 4),
        cout=st.integers(1, 4),
        kernel=st.sampled_from([1, 3, 5]),
        dilation=st.integers(1, 8),
        length=st.integers(1, 12),
        with_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(batch=2, cin=3, cout=2, kernel=5, dilation=8, length=3, with_bias=True, seed=0)  # 2*pad = 32 > L
    def test_property_against_oracle_and_adjoint(self, batch, cin, cout, kernel, dilation, length, with_bias, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, cin, length))
        w = rng.standard_normal((cout, cin, kernel))
        b = rng.standard_normal(cout) if with_bias else None
        xt, wt = Tensor(x), Tensor(w)
        bt = None if b is None else Tensor(b)
        out = engine.conv1d(xt, wt, bt, dilation=dilation)
        np.testing.assert_allclose(out.data, conv1d_reference(x, w, b, dilation), atol=1e-12)

        # conv(x, w) is bilinear, so <g, conv(x, w)> = <grad_x, x> = <grad_w, w>
        g = rng.standard_normal(out.shape)
        engine.sum_(engine.mul(out, g)).backward()
        inner = np.vdot(g, conv1d_reference(x, w, None, dilation))
        np.testing.assert_allclose(np.vdot(xt.grad, x), inner, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(np.vdot(wt.grad, w), inner, rtol=1e-10, atol=1e-10)
        if with_bias:
            assert np.array_equal(bt.grad, g.sum(axis=(0, 2)))

    def test_receptive_field_support(self):
        # dilation d with kernel k reaches (k-1)*d/2 positions each side
        for dilation in (1, 2, 4):
            x = np.zeros((1, 1, 31))
            x[0, 0, 15] = 1.0
            w = np.ones((1, 1, 3))
            out = engine.conv1d(Tensor(x), Tensor(w), None, dilation=dilation).data[0, 0]
            hit = np.nonzero(out)[0]
            assert hit.min() == 15 - dilation and hit.max() == 15 + dilation


class TestStackedModels:
    """conv1d and matmul take no leading model axis: every stacked form they
    once ran as M same-shaped models in one call is rejected."""

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("per_model_input", [False, True], ids=["shared-input", "per-model-input"])
    def test_conv1d(self, kernel, with_bias, per_model_input):
        x = np.zeros((2, 2, 3, 6) if per_model_input else (2, 3, 6))
        w = np.zeros((2, 4, 3, kernel))
        b = Tensor(np.zeros((2, 4))) if with_bias else None
        with pytest.raises(ValueError, match=r"conv1d expects \[B,Cin,L\] and \[Cout,Cin,K\]"):
            engine.conv1d(Tensor(x), Tensor(w), b, dilation=2)

    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("per_model_input", [False, True], ids=["shared-input", "per-model-input"])
    def test_matmul(self, with_bias, per_model_input):
        a = np.zeros((2, 3, 4) if per_model_input else (3, 4))
        w = np.zeros((2, 4, 5))
        b = Tensor(np.zeros((2, 5))) if with_bias else None
        with pytest.raises(ValueError, match=r"matmul expects \[n,d\] @ \[d,k\]"):
            engine.matmul(Tensor(a), Tensor(w), b)

    @pytest.mark.parametrize(
        "op,shapes",
        [
            (engine.conv1d, [(3, 2, 3, 5), (2, 4, 3, 3)]),  # three inputs for two models
            (engine.conv1d, [(2, 3, 5), (4, 3, 3), (2, 4)]),  # stacked bias, single weight
            (engine.conv1d, [(2, 3, 5), (2, 4, 3, 3), (4,)]),  # single bias, stacked weight
            (engine.matmul, [(2, 3, 4), (4, 5)]),  # per-model input, single weight
            (engine.matmul, [(3, 3, 4), (2, 4, 5)]),
            (engine.matmul, [(3, 4), (2, 4, 5), (5,)]),
            (engine.conv1d, [(2, 2, 3, 5), (4, 3, 3)]),  # per-model input, single weight
            (engine.matmul, [(3, 4), (4, 5), (2, 5)]),  # stacked bias, single weight
        ],
    )
    def test_mismatched_model_axes_rejected(self, op, shapes):
        with pytest.raises(ValueError):
            op(*[Tensor(np.zeros(s)) for s in shapes])


class TestNarrow:
    def test_negative_axis_counts_from_the_end(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(engine.narrow(Tensor(x), -1, 0, 2).data, x[..., 0:2])
        assert np.array_equal(engine.narrow(Tensor(x), -2, 1, 3).data, x[:, 1:3])
        t = Tensor(x)
        engine.sum_(engine.narrow(t, -1, 1, 3)).backward()
        expected = np.zeros_like(x)
        expected[..., 1:3] = 1.0
        assert np.array_equal(t.grad, expected)

    @pytest.mark.parametrize("axis,start,stop", [(3, 0, 1), (-4, 0, 1), (1, -1, 2), (1, 0, 4), (1, 2, 1)])
    def test_out_of_range_rejected(self, axis, start, stop):
        with pytest.raises(ValueError):
            engine.narrow(Tensor(np.zeros((2, 3, 4))), axis, start, stop)


class TestGatedActivation:
    def test_zero_tanh_gives_zero(self):
        a = np.zeros((2, 4))
        b = np.random.default_rng(1).standard_normal((2, 4))
        out = engine.gated_activation(Tensor(a), Tensor(b))
        assert np.all(out.data == 0.0)

    def test_large_sigmoid_saturates_to_tanh(self):
        a = np.random.default_rng(2).standard_normal(8)
        out = engine.gated_activation(Tensor(a), Tensor(np.full(8, 40.0)))
        np.testing.assert_allclose(out.data, np.tanh(a), atol=1e-15)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        expected = np.array(
            [[np.tanh(a[i, j]) * (1 / (1 + np.exp(-b[i, j]))) for j in range(5)] for i in range(3)]
        )
        out = engine.gated_activation(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        assert np.all(np.abs(out.data) < 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            engine.gated_activation(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_saturated_gate_is_exact_and_silent(self):
        gate = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(engine.sigmoid(gate).data, [0.0, 0.5, 1.0])
            engine.sum_(engine.gated_activation(Tensor(np.full(3, 0.5)), gate)).backward()
        assert np.all(np.isfinite(gate.grad))


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        p = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        engine.sum_(p).backward()
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_quadratic_form_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 3))
        x = rng.standard_normal((3, 2))

        def loss(wt, xt):
            y = engine.matmul(wt, xt)
            return engine.sum_(engine.mul(y, y))

        assert_gradients_match(loss, [w, x])

    def test_backward_twice_raises(self):
        loss = engine.sum_(engine.mul(Tensor(np.ones(3)), Tensor(np.ones(3))))
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)).backward()

    def test_reused_node_accumulates(self):
        x = Tensor(np.array([2.0]))
        y = engine.mul(x, x)  # x^2: gradient 2x
        engine.sum_(y).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    @pytest.mark.parametrize(
        "name,builder,shapes",
        [
            ("add_broadcast", lambda a, b: engine.sum_(engine.mul(engine.add(a, b), engine.add(a, b))), [(2, 3, 4), (1, 3, 1)]),
            ("sub", lambda a, b: engine.sum_(engine.mul(engine.sub(a, b), engine.sub(a, b))), [(3, 3), (3, 3)]),
            ("tanh", lambda a: engine.sum_(engine.mul(engine.tanh(a), engine.tanh(a))), [(4, 4)]),
            ("sigmoid", lambda a: engine.sum_(engine.mul(engine.sigmoid(a), engine.sigmoid(a))), [(4, 4)]),
            ("relu", lambda a: engine.sum_(engine.mul(engine.relu(a), engine.relu(a))), [(5, 5)]),
            ("softmax", lambda a: engine.sum_(engine.mul(engine.softmax(a), engine.softmax(a))), [(3, 6)]),
            ("mean_axis", lambda a: engine.sum_(engine.mul(engine.mean(a, axis=2), engine.mean(a, axis=2))), [(2, 3, 5)]),
            ("narrow", lambda a: engine.sum_(engine.mul(engine.narrow(a, 1, 1, 3), engine.narrow(a, 1, 1, 3))), [(2, 4, 3)]),
            ("downsample", lambda a: engine.sum_(engine.mul(engine.downsample(a, 2), engine.downsample(a, 2))), [(2, 2, 7)]),
            ("reshape", lambda a: engine.sum_(engine.mul(engine.reshape(a, (6, 2)), engine.reshape(a, (6, 2)))), [(3, 4)]),
            ("transpose", lambda a: engine.sum_(engine.mul(engine.transpose2d(a), engine.transpose2d(a))), [(3, 4)]),
            ("narrow_negative_axis", lambda a: engine.sum_(engine.mul(engine.narrow(a, -2, 1, 3), engine.tanh(engine.narrow(a, -2, 0, 2)))), [(2, 3, 4)]),
            ("matmul_bias", lambda a, b, c: engine.sum_(engine.tanh(engine.matmul(a, b, c))), [(3, 4), (4, 5), (5,)]),
        ],
    )
    def test_op_gradients(self, name, builder, shapes):
        rng = np.random.default_rng(hash(name) % 2**32)
        arrays = [rng.standard_normal(s) for s in shapes]
        assert_gradients_match(builder, arrays)

    def test_conv_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8))
        w = rng.standard_normal((4, 3, 3))
        b = rng.standard_normal(4)

        def loss(xt, wt, bt):
            out = engine.conv1d(xt, wt, bt, dilation=2)
            return engine.mean(engine.mul(out, out))

        assert_gradients_match(loss, [x, w, b])

    def test_no_grad_disables_recording(self):
        x = Tensor(np.ones(3))
        with engine.no_grad():
            y = engine.mul(x, x)
        assert y._parents == ()


class TestOptimizer:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]))
        p.grad = np.zeros(3)
        optimizer_step([("w", p)], AdamState({"w": p}), learning_rate=0.1, step=1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_single_step_from_zero_moments(self):
        # bias-corrected first step: update = lr * g / (|g| + eps)
        g = np.array([0.3, -0.7, 2.0])
        p = Tensor(np.zeros(3))
        p.grad = g.copy()
        lr, eps = 0.01, 1e-8
        optimizer_step([("w", p)], AdamState({"w": p}), learning_rate=lr, step=1)
        np.testing.assert_allclose(p.data, -lr * g / (np.abs(g) + eps), rtol=1e-12)

    @pytest.mark.parametrize("step", [2, 7, 1000])
    def test_update_at_a_given_step_from_zero_moments(self, step):
        # the bias correction reads the caller's step: m_hat = m / (1 - beta1**step), v_hat = v / (1 - beta2**step)
        g = np.array([0.3, -0.7, 2.0])
        p = Tensor(np.zeros(3))
        p.grad = g.copy()
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        assert (optim.BETA1, optim.BETA2, optim.EPSILON) == (beta1, beta2, eps)
        state = AdamState({"w": p})
        optimizer_step([("w", p)], state, learning_rate=lr, step=step)
        m_hat = (1.0 - beta1) * g / (1.0 - beta1**step)
        v_hat = (1.0 - beta2) * g * g / (1.0 - beta2**step)
        np.testing.assert_allclose(p.data, -lr * m_hat / (np.sqrt(v_hat) + eps), rtol=1e-12)
        np.testing.assert_allclose(state.moment1["w"], (1.0 - beta1) * g, rtol=1e-15)
        np.testing.assert_allclose(state.moment2["w"], (1.0 - beta2) * g * g, rtol=1e-15)

    def test_constant_gradient_approaches_signed_learning_rate(self):
        g = np.array([0.5, -0.02])
        p = Tensor(np.zeros(2))
        state = AdamState({"w": p})
        previous = p.data.copy()
        for step in range(1, 2001):
            p.grad = g.copy()
            optimizer_step([("w", p)], state, learning_rate=1e-3, step=step)
            delta = p.data - previous
            previous = p.data.copy()
        np.testing.assert_allclose(np.abs(delta), 1e-3, rtol=1e-3)
        assert np.all(np.sign(delta) == -np.sign(g))

    def test_missing_gradient_raises(self):
        p = Tensor(np.zeros(2))
        with pytest.raises(ValueError, match="missing gradients for: w"):
            optimizer_step([("w", p)], AdamState({"w": p}), learning_rate=0.1, step=1)

    def test_updates_data_in_place(self):
        # a parameter that is a view of a shared array must keep writing into it
        shared = np.zeros((2, 3))
        p = Tensor(shared[1])
        p.grad = np.ones(3)
        optimizer_step([("w", p)], AdamState({"w": p}), learning_rate=0.1, step=1)
        assert p.data.base is shared
        assert np.all(shared[1] < 0) and np.all(shared[0] == 0)

    def test_gradients_cleared(self):
        p = Tensor(np.zeros(2))
        state = AdamState({"w": p})
        p.grad = np.ones(2)
        optimizer_step([("w", p)], state, learning_rate=0.1, step=1)
        assert p.grad is None


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        entries = {
            "a.weight": rng.standard_normal((3, 4, 5)),
            "b.bias": rng.standard_normal(7),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "state.bin"
        save_entries(path, entries)
        loaded = load_entries(path)
        assert set(loaded) == set(entries)
        for name in entries:
            assert loaded[name].shape == entries[name].shape
            assert np.array_equal(loaded[name], entries[name])
        # saving the loaded state reproduces identical bytes
        path2 = tmp_path / "state2.bin"
        save_entries(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_entries(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "state.bin"
        save_entries(path, {"a.weight": np.arange(6.0).reshape(2, 3), "scalar": np.array(1.5)})
        raw = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for length in range(len(raw)):
            cut.write_bytes(raw[:length])
            with pytest.raises(CheckpointError, match="cut.bin"):
                load_entries(cut)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "state.bin"
        save_entries(path, {"ok": np.zeros(2), "x": np.array([0.0, bad])})
        with pytest.raises(CheckpointError, match="entry x holds non-finite"):
            load_entries(path)

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = tmp_path / "state.bin"
        save_entries(path, {"x": np.arange(3.0)})
        loaded = load_entries(path)
        loaded["x"][0] = 99.0  # must not raise

    @pytest.mark.parametrize("dims", [(2**20, 2**20), (0, 2**63)])
    def test_impossible_dims_rejected_before_allocating(self, tmp_path, dims):
        # (2**20, 2**20) claims 2**40 elements (8 TiB); (0, 2**63) is empty
        # but has a dim numpy cannot index
        path = tmp_path / "huge.bin"
        header = struct.pack("<III", VERSION, 1, 1) + b"x" + struct.pack("<I2Q", 2, *dims)
        path.write_bytes(MAGIC + header)
        with pytest.raises(CheckpointError, match="huge.bin"):
            load_entries(path)


# finite float64 values, -0.0 and subnormals included
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
ENTRY = st.lists(st.integers(0, 3), max_size=3).flatmap(
    lambda shape: st.lists(FINITE, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda values: np.array(values, dtype=np.float64).reshape(shape)
    )
)


class TestCheckpointProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=6), ENTRY, max_size=4))
    @example({"-0.0": np.array([-0.0, 5e-324, -2.2250738585072014e-308]), "": np.zeros((0, 2, 0))})
    def test_round_trip_is_bit_exact_and_order_free(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            forward, backward = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
            save_entries(forward, entries)
            save_entries(backward, dict(reversed(entries.items())))
            assert forward.read_bytes() == backward.read_bytes()
            loaded = load_entries(forward)
        assert list(loaded) == sorted(entries)
        for name, value in entries.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape
            assert loaded[name].tobytes() == value.tobytes()
