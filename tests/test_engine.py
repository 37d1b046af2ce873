import numpy as np
import pytest

from prosodiff import engine
from prosodiff.checkpoint import CheckpointError, load_entries, save_entries
from prosodiff.engine import Parameter, Tensor
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

    def test_receptive_field_support(self):
        # dilation d with kernel k reaches (k-1)*d/2 positions each side
        for dilation in (1, 2, 4):
            x = np.zeros((1, 1, 31))
            x[0, 0, 15] = 1.0
            w = np.ones((1, 1, 3))
            out = engine.conv1d(Tensor(x), Tensor(w), None, dilation=dilation).data[0, 0]
            hit = np.nonzero(out)[0]
            assert hit.min() == 15 - dilation and hit.max() == 15 + dilation


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

    def test_detached_input_contributes_no_gradient(self):
        x = Tensor(np.ones((2, 2)))
        frozen = x.detach()
        loss = engine.sum_(engine.mul(frozen, Tensor(np.full((2, 2), 3.0))))
        loss.backward()
        assert x.grad is None

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
        p = Parameter("w", np.array([1.0, -2.0, 3.0]))
        p.tensor.grad = np.zeros(3)
        optimizer_step([p], AdamState([p]), learning_rate=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_single_step_from_zero_moments(self):
        # bias-corrected first step: update = lr * g / (|g| + eps)
        g = np.array([0.3, -0.7, 2.0])
        p = Parameter("w", np.zeros(3))
        p.tensor.grad = g.copy()
        lr, eps = 0.01, 1e-8
        optimizer_step([p], AdamState([p]), learning_rate=lr, epsilon=eps)
        np.testing.assert_allclose(p.data, -lr * g / (np.abs(g) + eps), rtol=1e-12)

    def test_constant_gradient_approaches_signed_learning_rate(self):
        g = np.array([0.5, -0.02])
        p = Parameter("w", np.zeros(2))
        state = AdamState([p])
        previous = p.data.copy()
        for _ in range(2000):
            p.tensor.grad = g.copy()
            optimizer_step([p], state, learning_rate=1e-3)
            delta = p.data - previous
            previous = p.data.copy()
        np.testing.assert_allclose(np.abs(delta), 1e-3, rtol=1e-3)
        assert np.all(np.sign(delta) == -np.sign(g))

    def test_missing_gradient_raises(self):
        p = Parameter("w", np.zeros(2))
        with pytest.raises(ValueError, match="missing gradients"):
            optimizer_step([p], AdamState([p]), learning_rate=0.1)

    def test_gradients_cleared_and_counter_incremented(self):
        p = Parameter("w", np.zeros(2))
        state = AdamState([p])
        p.tensor.grad = np.ones(2)
        optimizer_step([p], state, learning_rate=0.1)
        assert p.grad is None
        assert state.step_counter == 1


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
