"""The view-based pooling kernels, the flat Adam update and the skipped
input gradient, bit for bit against the formulations they replaced.

The oracles below are the earlier implementations, kept verbatim: the
reshape/argmax max pool, the reshape/sum upsample gradient and the
per-parameter Adam loop. Equality is on the raw bytes, so a flipped sign
of zero or a changed summation order fails.
"""

import numpy as np
import pytest

from jointnet import (Adam, NumericError, Tape, Tensor, backward, conv2d,
                      maxpool2x2, relu, tensor_sum, upsample2x2)
from jointnet.training import BETA1, BETA2, EPSILON


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


# ---------------------------------------------------------------------------
# oracles


def maxpool_oracle(x):
    """(pooled, backward) of the reshape/argmax max pool."""
    h, w = x.shape[-2:]
    planes = x.reshape((-1,) + x.shape[-2:])
    windows = (planes.reshape(-1, h // 2, 2, w // 2, 2)
               .transpose(0, 1, 3, 2, 4)
               .reshape(-1, h // 2, w // 2, 4))
    idx = windows.argmax(axis=3)
    pooled = np.take_along_axis(windows, idx[..., None], axis=3)[..., 0]

    def backward_fn(g):
        dwin = np.zeros(idx.shape + (4,))
        np.put_along_axis(dwin, idx[..., None],
                          g.reshape(-1, h // 2, w // 2, 1), axis=3)
        return (dwin.reshape(-1, h // 2, w // 2, 2, 2)
                .transpose(0, 1, 3, 2, 4)
                .reshape(x.shape))

    return pooled.reshape(x.shape[:-2] + (h // 2, w // 2)), backward_fn


def upsample_oracle(x):
    """(upsampled, backward) of the broadcast/reshape-sum upsample."""
    h, w = x.shape[-2:]
    planes = x.reshape((-1,) + x.shape[-2:])
    up = np.broadcast_to(planes[:, :, None, :, None], planes.shape[:2] + (2, w, 2))

    def backward_fn(g):
        return g.reshape(-1, h, 2, w, 2).sum(axis=(2, 4)).reshape(x.shape)

    return up.reshape(x.shape[:-2] + (2 * h, 2 * w)), backward_fn


class AdamOracle:
    """The per-parameter Adam loop."""

    def __init__(self, shapes):
        self.m = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.v = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.step_count = 0

    def step(self, params, grads, lr):
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        updated = {}
        for name, param in params.items():
            g = grads[name]
            m = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            self.m[name] = m
            self.v[name] = v
            updated[name] = param - lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)
        return updated


# ---------------------------------------------------------------------------
# inputs


def channel_major(values):
    """``values`` laid out the way a batched ``conv2d`` emits its output and
    its input gradient: a channel-major padded buffer, cropped and
    transposed back to [N,C,H,W] (or [C,H,W] for a single image)."""
    batched = values if values.ndim == 4 else values[None]
    n, c, h, w = batched.shape
    buf = np.full((c, n, h + 2, w + 2), np.nan)
    buf[:, :, 1:1 + h, 1:1 + w] = batched.transpose(1, 0, 2, 3)
    view = buf[:, :, 1:1 + h, 1:1 + w].transpose(1, 0, 2, 3)
    return view if values.ndim == 4 else view.reshape(values.shape)


def pool_input(kind, shape, rng):
    if kind == "random":
        return rng.normal(size=shape)
    if kind == "relu_zeroed":  # most windows tie at zero
        return np.maximum(rng.normal(size=shape) - 0.5, 0.0)
    if kind == "constant_windows":
        small = rng.normal(size=shape[:-2] + (shape[-2] // 2, shape[-1] // 2))
        return np.repeat(np.repeat(small, 2, axis=-2), 2, axis=-1)
    if kind == "signed_zeros":  # ties between -0.0 and 0.0 keep the first's sign
        return rng.choice(np.array([-0.0, 0.0, -1.0]), size=shape)
    raise AssertionError(kind)


SHAPES = {"single": (3, 6, 8), "batch": (4, 3, 6, 8)}


# ---------------------------------------------------------------------------
# maxpool2x2


class TestMaxpoolMatchesOracle:
    @pytest.mark.parametrize("kind", ["random", "relu_zeroed",
                                      "constant_windows", "signed_zeros"])
    @pytest.mark.parametrize("batch", ["single", "batch"])
    @pytest.mark.parametrize("layout", ["c_order", "channel_major"])
    def test_forward_and_backward_bitwise(self, kind, batch, layout):
        rng = np.random.default_rng(31)
        x = pool_input(kind, SHAPES[batch], rng)
        if layout == "channel_major":
            x = channel_major(x)
        expected, oracle_backward = maxpool_oracle(x)
        xt = Tensor(x)
        tape = Tape()
        with tape:
            tape.watch(xt)
            out = maxpool2x2(xt)
        assert_same_bits(out.data, expected)
        assert out.data.flags.c_contiguous
        g = rng.normal(size=out.shape)
        for grad in (g, channel_major(g)):
            (dx,) = tape.nodes[0].backward(grad)
            assert_same_bits(dx, oracle_backward(grad))
            assert dx.flags.c_contiguous

    def test_closure_keeps_no_index_array(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 4, 4)))
        tape = Tape()
        with tape:
            tape.watch(x)
            out = maxpool2x2(x)
        captured = [cell.cell_contents for cell in tape.nodes[0].backward.__closure__]
        arrays = [c for c in captured if isinstance(c, np.ndarray)]
        assert all(a is x.data or a is out.data for a in arrays)


# ---------------------------------------------------------------------------
# upsample2x2


class TestUpsampleMatchesOracle:
    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5), (2, 3, 5, 1),
                                       (3, 1, 4), (4, 32, 8, 8)])
    @pytest.mark.parametrize("layout", ["c_order", "channel_major"])
    def test_forward_and_backward_bitwise(self, shape, layout):
        rng = np.random.default_rng(37)
        x = rng.normal(size=shape)
        expected, oracle_backward = upsample_oracle(x)
        xt = Tensor(x)
        tape = Tape()
        with tape:
            tape.watch(xt)
            out = upsample2x2(xt)
        assert_same_bits(out.data, expected)
        assert out.data.flags.c_contiguous
        # wide-ranging magnitudes, so a changed summation order shows
        g = rng.normal(size=out.shape) * 10.0 ** rng.integers(-6, 6, size=out.shape)
        if layout == "channel_major":
            g = channel_major(g)
        (dx,) = tape.nodes[0].backward(g)
        assert_same_bits(dx, oracle_backward(g))
        assert dx.flags.c_contiguous


# ---------------------------------------------------------------------------
# Adam


SHAPES_ADAM = {"k": (3, 2, 3, 3), "b": (3,), "s": (), "w": (4, 5)}


class TestFlatAdam:
    def _draw(self, rng):
        return {name: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 2)
                for name, shape in SHAPES_ADAM.items()}

    def test_five_steps_match_the_per_parameter_loop(self):
        rng = np.random.default_rng(41)
        start = self._draw(rng)
        flat, oracle = Adam(SHAPES_ADAM), AdamOracle(SHAPES_ADAM)
        params = {name: Tensor(v) for name, v in start.items()}
        expected = dict(start)
        snapshot = None
        for step in range(1, 6):
            grads = self._draw(rng)
            lr = 10.0 ** -step
            params = flat.step(params, grads, lr)
            expected = oracle.step(expected, grads, lr)
            assert list(params) == list(expected)
            for name in SHAPES_ADAM:
                assert_same_bits(params[name].data, expected[name])
                assert_same_bits(flat.m[name], oracle.m[name])
                assert_same_bits(flat.v[name], oracle.v[name])
            if step == 2:
                # what a Checkpoint holds: the arrays themselves, by reference
                held = (dict(flat.m), dict(flat.v),
                        {name: p.data for name, p in params.items()})
                snapshot = [{name: a.copy() for name, a in part.items()}
                            for part in held]
        assert flat.step_count == 5
        for part, copy in zip(held, snapshot):
            for name in SHAPES_ADAM:
                assert_same_bits(part[name], copy[name])

    def test_non_finite_gradient_names_the_first_bad_parameter(self):
        opt = Adam(SHAPES_ADAM)
        params = {name: Tensor(np.zeros(shape)) for name, shape in SHAPES_ADAM.items()}
        grads = {name: np.zeros(shape) for name, shape in SHAPES_ADAM.items()}
        grads["b"][1] = np.inf
        grads["w"][0, 0] = np.nan
        with pytest.raises(NumericError, match="'b'"):
            opt.step(params, grads, lr=0.1)


# ---------------------------------------------------------------------------
# skipped input gradients


def _conv_case(watch_input: bool):
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)))
    kernel = Tensor(rng.normal(size=(4, 3, 3, 3)))
    bias = Tensor(rng.normal(size=4))
    tape = Tape()
    with tape:
        if watch_input:
            tape.watch(x)
        tape.watch(kernel)
        tape.watch(bias)
        loss = tensor_sum(relu(conv2d(x, kernel, bias)))
    return tape, backward(tape, loss), (x, kernel, bias)


class TestDeadInputGradient:
    def test_untracked_input_gets_no_dx_and_the_same_parameter_gradients(self):
        tape, grads, (_, kernel, bias) = _conv_case(watch_input=False)
        full_tape, full_grads, (_, full_kernel, full_bias) = _conv_case(watch_input=True)
        assert_same_bits(grads[kernel].data, full_grads[full_kernel].data)
        assert_same_bits(grads[bias].data, full_grads[full_bias].data)
        conv = tape.nodes[0]
        assert conv.op == "conv2d"
        dx, dk, db = conv.backward(np.ones(conv.output.shape))
        assert dx is None
        assert dk.shape == kernel.shape and db.shape == bias.shape

    def test_watched_input_gets_dx(self):
        tape, grads, (x, _, _) = _conv_case(watch_input=True)
        conv = tape.nodes[0]
        dx, _, _ = conv.backward(np.ones(conv.output.shape))
        assert dx.shape == x.shape
        assert np.any(grads[x].data != 0.0)

    def test_input_computed_from_a_parameter_gets_dx(self):
        """Tracking follows the recorded ops: a second conv's input derives
        from a watched parameter, so its gradient is computed."""
        rng = np.random.default_rng(47)
        x = Tensor(rng.normal(size=(1, 5, 5)))
        k1, b1 = Tensor(rng.normal(size=(2, 1, 3, 3))), Tensor(rng.normal(size=2))
        k2, b2 = Tensor(rng.normal(size=(2, 2, 3, 3))), Tensor(rng.normal(size=2))
        tape = Tape()
        with tape:
            for p in (k1, b1, k2, b2):
                tape.watch(p)
            loss = tensor_sum(conv2d(relu(conv2d(x, k1, b1)), k2, b2))
        first, second = (n for n in tape.nodes if n.op == "conv2d")
        assert first.backward(np.ones(first.output.shape))[0] is None
        assert second.backward(np.ones(second.output.shape))[0] is not None
        assert np.any(backward(tape, loss)[k1].data != 0.0)
