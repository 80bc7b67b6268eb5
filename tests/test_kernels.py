"""The view-based pooling kernels, the fused conv2d + bias + relu, the
fused decoder stage, the branch-free sigmoid, the flat Adam update and the
skipped input gradient, bit for bit against the formulations they
replaced; every backward closure of a recipe joint tape, called twice; and
every node of a recipe tape, called again by its op name; and the ops
that take a model axis, on a stack of models against each model alone.

The oracles below are the earlier implementations, kept verbatim: the
reshape/argmax max pool, the reshape/sum upsample gradient, conv2d
followed by a separate relu op, the sign-masked two-branch sigmoid, and
the per-parameter Adam loop. ``fuse_skip`` is checked against the three
ops it replaced, ``add(conv2d(...), upsample2x2(...))``, with the taped
upsample and sum kept in ``upsample_op``. Equality is on the raw bytes,
so a flipped sign of zero or a changed summation order fails. The conv is also checked
at every conv shape of the recipe network, where a GEMM run over other
columns rounds differently.
"""

import math

import numpy as np
import pytest

import jointnet
from jointnet import (Adam, ArchConfig, NumericError, Tape, Tensor, backward,
                      build, combined_loss, conv2d, cross_entropy, dense,
                      forward_backbone, forward_joint, fuse_skip, maxpool2x2,
                      mse, sigmoid, tensor_sum)
from jointnet.training import BETA1, BETA2, EPSILON

from upsample_op import add, upsample2x2


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


def conv2d_oracle(x, kdata, bdata, need_dx=True):
    """(output, backward) of conv2d as a separate op: the bias added to the
    transposed grid block in one expression, no relu."""
    c_in, h, w = x.shape[-3:]
    c_out, kc, kh, kw = kdata.shape
    top, left = kh // 2, kw // 2
    n = math.prod(x.shape[:-3])
    hp, wp = h + kh - 1, w + kw - 1
    span = n * hp * wp - (kh - 1) * wp - (kw - 1)
    taps = [(ki, kj, ki * wp + kj) for ki in range(kh) for kj in range(kw)]

    def padded_flat():
        padded = np.zeros((c_in, n, hp, wp))
        padded[:, :, top:top + h, left:left + w] = (
            x.reshape((-1,) + x.shape[-3:]).transpose(1, 0, 2, 3))
        return padded.reshape(c_in, n * hp * wp)

    flat = padded_flat()
    grid = np.empty((c_out, n, hp, wp))
    acc = grid.reshape(c_out, -1)[:, :span]
    tmp = np.empty_like(acc)
    for t, (ki, kj, off) in enumerate(taps):
        np.matmul(kdata[:, :, ki, kj], flat[:, off:off + span], out=tmp if t else acc)
        if t:
            acc += tmp
    del flat, tmp
    out_data = grid[:, :, :h, :w].transpose(1, 0, 2, 3) + bdata[:, None, None]
    out_data = out_data.reshape(x.shape[:-3] + (c_out, h, w))

    def backward_fn(g):
        gb = g.reshape(-1, c_out, h, w)
        db = gb.sum(axis=(0, 2, 3))
        ggrid = np.zeros((c_out, n, hp, wp))
        ggrid[:, :, :h, :w] = gb.transpose(1, 0, 2, 3)
        gflat = ggrid.reshape(c_out, -1)[:, :span]
        flat = padded_flat()
        dk = np.empty_like(kdata)
        for ki, kj, off in taps:
            dk[:, :, ki, kj] = gflat @ flat[:, off:off + span].T
        if not need_dx:
            return None, dk, db
        dflat = flat
        dflat.fill(0.0)
        tmp = np.empty((c_in, span))
        for ki, kj, off in taps:
            np.matmul(kdata[:, :, ki, kj].T, gflat, out=tmp)
            dflat[:, off:off + span] += tmp
        dx = (dflat.reshape(c_in, n, hp, wp)[:, :, top:top + h, left:left + w]
              .transpose(1, 0, 2, 3).reshape(x.shape))
        return dx, dk, db

    return out_data, backward_fn


def sigmoid_oracle(x):
    """The sigmoid split by sign into two gathered and scattered halves."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu_oracle(x):
    """(output, backward) of the separate relu op."""
    mask = x > 0
    return np.maximum(x, 0.0), lambda g: g * mask


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
# conv2d + bias + relu


def conv_case(kind, batch, rng):
    """(x, kernel, bias) with C_in = 3, C_out = 4 at 6x8."""
    shape = (3, 6, 8) if batch == "single" else (2, 3, 6, 8)
    kernel = rng.normal(size=(4, 3, 3, 3))
    bias = rng.normal(size=4)
    if kind == "random":
        x = rng.normal(size=shape)
    elif kind == "relu_zeroed":  # a post-relu input: mostly exact zeros
        x = np.maximum(rng.normal(size=shape) - 0.5, 0.0)
    elif kind == "signed_zeros":
        # inputs of 0.0 and -0.0, negative taps and signed-zero biases:
        # many outputs are exactly zero, where the mask drops g
        x = rng.choice(np.array([-0.0, 0.0, 0.0, 1.0]), size=shape)
        kernel = -np.abs(kernel)
        bias = np.array([-0.0, 0.0, -0.0, 0.5])
    else:
        raise AssertionError(kind)
    return x, kernel, bias


# (C_in, C_out, k, size, relu) of each conv in the recipe network: 32 px
# input, base 8 channels, 2 stages
RECIPE_CONVS = {
    "enc1.conv1": (3, 8, 3, 32, True),
    "enc1.conv2": (8, 8, 3, 32, True),
    "enc2.conv1": (8, 16, 3, 16, True),
    "enc2.conv2": (16, 16, 3, 16, True),
    "bottleneck.conv": (16, 16, 3, 8, True),
    "dec1.skip": (16, 16, 3, 16, False),
    "dec2.skip": (8, 16, 3, 32, False),
    "recon.conv": (16, 3, 1, 32, False),
}


def upstream_grad(kind, shape, rng):
    """``g`` as the fused op receives it: from a C-ordered consumer, from a
    conv (channel-major), or summed over two branches as the encoder's
    skip output gets it (the decoder's skip conv, then maxpool)."""
    # wide-ranging magnitudes, so a changed summation order shows, and
    # some -0.0 entries, whose sign a masked product keeps
    def draw():
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        g[rng.random(shape) < 0.1] = -0.0
        return g
    if kind == "c_order":
        return draw()
    if kind == "channel_major":
        return channel_major(draw())
    if kind == "two_branch":
        return channel_major(draw()) + draw()
    raise AssertionError(kind)


def assert_same_array(actual, expected):
    """Same bits and same layout; an axis of length 1 has no layout."""
    assert_same_bits(actual, expected)
    def layout(a):
        return [stride for stride, size in zip(a.strides, a.shape) if size > 1]
    assert layout(actual) == layout(expected)


def assert_conv_matches_oracle(x, kernel, bias, relu, draw_grad):
    """The fused conv2d's output and its gradients for ``draw_grad(shape)``
    against the oracle's, bit for bit and layout for layout; returns the
    gradients."""
    expected, conv_backward = conv2d_oracle(x, kernel, bias)
    if relu:
        expected, relu_backward = relu_oracle(expected)
    xt = Tensor(x)
    tape = Tape()
    with tape:
        tape.watch(xt)
        out = conv2d(xt, Tensor(kernel), Tensor(bias), relu=relu)
    assert [node.op for node in tape.nodes] == ["conv2d"]
    assert_same_array(out.data, expected)
    g = draw_grad(out.shape)
    actual = tape.nodes[0].backward(g)
    oracle = conv_backward(relu_backward(g) if relu else g)
    for a, e in zip(actual, oracle):
        assert_same_array(a, e)
    return actual


class TestFusedConvMatchesOracle:
    @pytest.mark.parametrize("kind", ["random", "relu_zeroed", "signed_zeros"])
    @pytest.mark.parametrize("batch", ["single", "batch"])
    @pytest.mark.parametrize("grad", ["c_order", "channel_major", "two_branch"])
    @pytest.mark.parametrize("relu", [True, False])
    def test_forward_and_backward_bitwise(self, kind, batch, grad, relu):
        rng = np.random.default_rng(53)
        x, kernel, bias = conv_case(kind, batch, rng)
        assert_conv_matches_oracle(x, kernel, bias, relu,
                                   lambda shape: upstream_grad(grad, shape, rng))

    @pytest.mark.parametrize("batch", [1, 2, 4])
    @pytest.mark.parametrize("layer", RECIPE_CONVS)
    def test_recipe_shapes_bitwise(self, layer, batch):
        """Every conv of the recipe network, at its own channels and size:
        a BLAS GEMM rounds its edge columns apart from the rest, so a tap
        GEMM whose N changed shows only at the real shapes."""
        c_in, c_out, k, size, relu = RECIPE_CONVS[layer]
        rng = np.random.default_rng([batch, *map(ord, layer)])
        x = rng.normal(size=(batch, c_in, size, size))
        kernel = rng.normal(size=(c_out, c_in, k, k)) / math.sqrt(c_in * k * k)
        bias = rng.normal(size=c_out)
        assert_conv_matches_oracle(x, kernel, bias, relu,
                                   lambda shape: upstream_grad("c_order", shape, rng))

    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_gradient_through_negative_kernel(self, k):
        """A gradient of only 0.0 and -0.0 through an all-negative kernel:
        every tap product is a signed zero, so the sign of each input
        gradient is the sign the tap sums leave. The first tap writes the
        input gradient rather than adding to zeros, and with one tap that
        write is the whole sum."""
        rng = np.random.default_rng(59)
        x = rng.normal(size=(2, 8, 6, 8))
        kernel = -np.abs(rng.normal(size=(4, 8, k, k))) - 0.5
        bias = rng.normal(size=4)

        def signed_zeros(shape):
            g = rng.choice(np.array([0.0, -0.0]), size=shape)
            assert np.signbit(g).any() and not np.signbit(g).all()
            return g

        dx, _, _ = assert_conv_matches_oracle(x, kernel, bias, False, signed_zeros)
        assert not dx.any()

    def test_signed_zero_case_hits_exact_zeros(self):
        """The signed-zero case does reach exact zeros before the clamp,
        and both signs of zero are in its input."""
        x, kernel, bias = conv_case("signed_zeros", "batch", np.random.default_rng(53))
        out = conv2d(Tensor(x), Tensor(kernel), Tensor(bias)).data
        assert (out == 0.0).any() and (out > 0).any() and (out < 0).any()
        zeros = x[x == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()


# ---------------------------------------------------------------------------
# fuse_skip


# (skip, x, whether x is a conv output) of each decoder stage of the recipe
# network at batch 4, and of its first stage on the one image export-attn
# forwards. The skip is always an encoder conv's (channel-major) output;
# x is the bottleneck conv's output at the first stage and the previous
# (C-ordered) fused map at the second.
RECIPE_STAGES = {
    "dec1": ((4, 16, 16, 16), (4, 16, 8, 8), True),
    "dec2": ((4, 8, 32, 32), (4, 16, 16, 16), False),
    "dec1_single": ((16, 16, 16), (16, 8, 8), True),
}


def stage_case(stage, rng):
    """(skip, x, kernel, bias) Tensors of a recipe decoder stage."""
    skip_shape, x_shape, x_from_conv = RECIPE_STAGES[stage]
    c_in, c_out = skip_shape[-3], x_shape[-3]
    # post-relu values: mostly exact zeros
    skip = channel_major(np.maximum(rng.normal(size=skip_shape) - 0.5, 0.0))
    x = rng.normal(size=x_shape)
    if x_from_conv:
        x = channel_major(np.maximum(x, 0.0))
    kernel = rng.normal(size=(c_out, c_in, 3, 3)) / math.sqrt(c_in * 9)
    return Tensor(skip), Tensor(x), Tensor(kernel), Tensor(rng.normal(size=c_out))


class TestFuseSkipMatchesComposite:
    @pytest.mark.parametrize("grad", ["c_order", "channel_major", "two_branch"])
    @pytest.mark.parametrize("stage", RECIPE_STAGES)
    def test_forward_and_backward_bitwise(self, stage, grad):
        """The output and all four input gradients against the three ops
        it replaced, bit for bit and layout for layout."""
        rng = np.random.default_rng([*map(ord, stage + grad)])
        skip, x, kernel, bias = stage_case(stage, rng)
        tape = Tape()
        with tape:
            for t in (skip, x, kernel, bias):
                tape.watch(t)
            expected = add(conv2d(skip, kernel, bias), upsample2x2(x))
            out = fuse_skip(skip, x, kernel, bias)
        conv, up, plus, fused = tape.nodes
        assert fused.op == "fuse_skip" and fused.inputs == (skip, x, kernel, bias)
        assert_same_array(out.data, expected.data)
        assert out.data.flags.c_contiguous
        g = upstream_grad(grad, out.shape, rng)
        g_conv, g_up = plus.backward(g)
        dskip, dk, db = conv.backward(g_conv)
        (dx,) = up.backward(g_up)
        actual = fused.backward(g)
        assert len(actual) == 4
        for a, e in zip(actual, (dskip, dx, dk, db)):
            assert_same_array(a, e)

    def test_untracked_skip_gets_no_gradient(self):
        rng = np.random.default_rng(71)
        skip, x, kernel, bias = stage_case("dec1", rng)
        tape = Tape()
        with tape:
            for t in (x, kernel, bias):
                tape.watch(t)
            out = fuse_skip(skip, x, kernel, bias)
        dskip, dx, dk, db = tape.nodes[0].backward(np.ones(out.shape))
        assert dskip is None
        assert (dx.shape, dk.shape, db.shape) == (x.shape, kernel.shape, bias.shape)

    def test_closure_keeps_only_inputs(self):
        """Neither the conv output nor the upsampled map is held: every
        array the backward closures reach is an input's."""
        rng = np.random.default_rng(73)
        inputs = stage_case("dec2", rng)
        tape = Tape()
        with tape:
            for t in inputs:
                tape.watch(t)
            fuse_skip(*inputs)
        held = []

        def visit(obj):
            if isinstance(obj, Tensor):
                obj = obj.data
            if isinstance(obj, np.ndarray):
                held.append(obj)
            elif callable(obj) and getattr(obj, "__closure__", None):
                for cell in obj.__closure__:
                    visit(cell.cell_contents)

        visit(tape.nodes[0].backward)
        assert held
        assert all(any(a is t.data for t in inputs) for a in held)

    @pytest.mark.parametrize("x_shape", [(4, 16, 8, 4), (4, 8, 8, 8), (2, 16, 8, 8),
                                         (16, 8, 8)])
    def test_mismatched_x_rejected(self, x_shape):
        skip, _, kernel, bias = stage_case("dec1", np.random.default_rng(79))
        with pytest.raises(ValueError, match="fuse_skip expects x"):
            fuse_skip(skip, Tensor(np.zeros(x_shape)), kernel, bias)


# ---------------------------------------------------------------------------
# sigmoid


# both signs of zero, of a tiny value, of 745 (exp(-745) is the smallest
# subnormal) and of 1000 (exp(-1000) underflows to zero)
SIGMOID_EDGES = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1000.0, -1000.0])


def sigmoid_normals(shape, rng):
    return rng.normal(size=shape) * rng.choice([0.1, 1.0, 10.0, 100.0, 800.0], size=shape)


def with_edges(x):
    """``x`` (or the view it is) with its first elements in C order set to
    the edge values."""
    x.flat[:SIGMOID_EDGES.size] = SIGMOID_EDGES
    return x


class TestSigmoidMatchesOracle:
    @pytest.mark.parametrize("layout", ["zero_d", "c_order", "channel_major",
                                        "strided_slice"])
    def test_forward_bitwise_same_strides(self, layout):
        rng = np.random.default_rng(61)
        if layout == "zero_d":
            inputs = [np.array(v) for v in SIGMOID_EDGES] + [np.array(rng.normal())]
        elif layout == "c_order":
            inputs = [with_edges(sigmoid_normals(shape, rng))
                      for shape in ((4, 3, 32, 32), (9,))]
        elif layout == "channel_major":  # the recipe's recon conv output
            inputs = [channel_major(with_edges(sigmoid_normals(shape, rng)))
                      for shape in ((4, 3, 32, 32), (3, 6, 8))]
        else:
            base = sigmoid_normals((4, 6, 10, 12), rng)
            inputs = [with_edges(base[:, 1::2, ::3, 2:])]
            assert not inputs[0].flags.c_contiguous
        for x in inputs:
            if x.ndim:
                assert x.ravel()[:SIGMOID_EDGES.size].tobytes() == SIGMOID_EDGES.tobytes()
            out = sigmoid(Tensor(x)).data
            expected = sigmoid_oracle(x)
            assert out.shape == expected.shape
            assert out.strides == expected.strides
            assert np.array_equal(out.view(np.int64), expected.view(np.int64))


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
            # the flat moments are the oracle's, concatenated in slot order
            for flat_moment, moments in ((flat._m, oracle.m), (flat._v, oracle.v)):
                assert_same_bits(flat_moment, np.concatenate(
                    [moments[name].ravel() for name in flat._slots]))
            if step == 2:
                # what a Checkpoint holds: the parameter arrays, by reference
                held = {name: p.data for name, p in params.items()}
                snapshot = {name: a.copy() for name, a in held.items()}
        assert flat.step_count == 5
        for name in SHAPES_ADAM:
            assert_same_bits(held[name], snapshot[name])

    def test_stack_matches_one_optimizer_per_model(self):
        """[F, P] moments and an [F, 1] rate in the parameters' dtype: each
        model's parameters and moments are bit for bit those of its own
        optimizer, in float32, with a different rate per model."""
        rng = np.random.default_rng(43)
        models = 3
        starts = [{name: v.astype(np.float32) for name, v in self._draw(rng).items()}
                  for _ in range(models)]
        stack = Adam(SHAPES_ADAM, (models,))
        alone = [Adam(SHAPES_ADAM) for _ in range(models)]
        params = {name: Tensor(np.stack([s[name] for s in starts])) for name in SHAPES_ADAM}
        singles = [{name: Tensor(v) for name, v in s.items()} for s in starts]
        for step in range(1, 6):
            grads = [{name: v.astype(np.float32) for name, v in self._draw(rng).items()}
                     for _ in range(models)]
            rates = [10.0 ** -step, 3e-3, 0.1 / step]
            params = stack.step(params, {name: np.stack([g[name] for g in grads])
                                         for name in SHAPES_ADAM},
                                np.array(rates, np.float32)[:, None])
            singles = [opt.step(p, g, lr)
                       for opt, p, g, lr in zip(alone, singles, grads, rates)]
            for f in range(models):
                for name in SHAPES_ADAM:
                    assert params[name].data.dtype == np.float32
                    assert_same_bits(params[name].data[f], singles[f][name].data)
                assert_same_bits(stack._m[f], alone[f]._m)
                assert_same_bits(stack._v[f], alone[f]._v)

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
        loss = tensor_sum(conv2d(x, kernel, bias, relu=True))
    # taken before backward, which empties the tape
    conv = tape.nodes[0]
    return conv, backward(tape, loss), (x, kernel, bias)


class TestDeadInputGradient:
    def test_untracked_input_gets_no_dx_and_the_same_parameter_gradients(self):
        conv, grads, (_, kernel, bias) = _conv_case(watch_input=False)
        _, full_grads, (_, full_kernel, full_bias) = _conv_case(watch_input=True)
        assert_same_bits(grads[kernel], full_grads[full_kernel])
        assert_same_bits(grads[bias], full_grads[full_bias])
        assert conv.op == "conv2d"
        dx, dk, db = conv.backward(np.ones(conv.output.shape))
        assert dx is None
        assert dk.shape == kernel.shape and db.shape == bias.shape

    def test_watched_input_gets_dx(self):
        conv, grads, (x, _, _) = _conv_case(watch_input=True)
        dx, _, _ = conv.backward(np.ones(conv.output.shape))
        assert dx.shape == x.shape
        assert np.any(grads[x] != 0.0)

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
            loss = tensor_sum(conv2d(conv2d(x, k1, b1, relu=True), k2, b2))
        first, second = (n for n in tape.nodes if n.op == "conv2d")
        assert first.backward(np.ones(first.output.shape))[0] is None
        assert second.backward(np.ones(second.output.shape))[0] is not None
        assert np.any(backward(tape, loss)[k1] != 0.0)


# ---------------------------------------------------------------------------
# re-entrant backward closures


def recipe_tape(mode, rng):
    """The tape of one recipe training step's forward pass and loss
    (batch 4, 32 px, 2 stages, base width 8, phi 0.5), in ``mode``, on a
    float32 network as ``train`` builds it."""
    net = build(ArchConfig(n_stages=2, input_size=32, base_channels=8), seed=0,
                dtype=np.float32)
    images = Tensor(rng.uniform(0.0, 1.0, (4, 3, 32, 32)))
    targets = Tensor(np.eye(3, dtype=np.float32)[[0, 1, 2, 0]])
    tape = Tape()
    with tape:
        for p in net.params.values():
            tape.watch(p)
        if mode == "joint":
            out = forward_joint(net, images)
            combined_loss(cross_entropy(targets, out.class_probs),
                          mse(out.image, out.reconstruction), 0.5)
        else:
            cross_entropy(targets, forward_backbone(net, images))
    return tape


class TestBackwardClosuresReentrant:
    def test_every_recipe_joint_node_twice(self):
        """Each backward closure of a recipe joint tape, called twice with
        one output gradient, returns the same bits both times, and no call
        changes a node's input, its output or the gradient it was given.
        Timing a node calls its closure many times, so none may reuse a
        buffer it handed out or overwrite what it read."""
        rng = np.random.default_rng(67)
        tape = recipe_tape("joint", rng)
        # the decoder stages are fuse_skip nodes: no upsample2x2 or add
        # node is left on the decoder path
        assert {"conv2d", "maxpool2x2", "fuse_skip", "sigmoid", "mse"} <= {
            node.op for node in tape.nodes}

        def copies(arrays):
            return [None if a is None else np.array(a, copy=True) for a in arrays]

        for node in tape.nodes:
            held = copies([t.data for t in node.inputs] + [node.output.data])
            g = np.asarray(rng.normal(size=node.output.shape))
            g_before = g.copy()
            first = node.backward(g)
            first_bits = copies(first)
            second = node.backward(g)
            assert len(first) == len(second) == len(node.inputs), node.op
            for kept, a, b in zip(first_bits, first, second):
                if kept is None:
                    assert a is None and b is None, node.op
                    continue
                assert_same_bits(a, kept)
                assert_same_bits(b, kept)
            assert_same_bits(g, g_before)
            for kept, now in zip(held, [t.data for t in node.inputs] + [node.output.data]):
                assert_same_bits(now, kept)


class TestNodesCallableByName:
    @pytest.mark.parametrize("mode", ["joint", "backbone"])
    def test_op_name_and_inputs_reproduce_the_output_shape(self, mode):
        """``node.op`` names a function of ``jointnet.tensor`` or
        ``jointnet.training`` that, called with ``*node.inputs``, returns an
        output of the node's shape: the benchmark's op inventory re-invokes
        every recorded node this way, the loss blend's included."""
        tape = recipe_tape(mode, np.random.default_rng(83))
        ops = set()
        for node in tape.nodes:
            fn = (getattr(jointnet.tensor, node.op, None)
                  or getattr(jointnet.training, node.op))
            assert fn.__name__ == node.op
            assert fn(*node.inputs).shape == node.output.shape, node.op
            ops.add(node.op)
        assert "conv2d" in ops and "cross_entropy" in ops
        if mode == "joint":
            assert "weighted_sum" in ops


# ---------------------------------------------------------------------------
# the model axis


def per_model_layout(values):
    """A stack of arrays [F, ...] with each model's array laid out as
    ``channel_major`` lays out one: model-major, then channel-major."""
    buf = np.ascontiguousarray(values.swapaxes(-4, -3))
    return buf.swapaxes(-4, -3)


def assert_stack_matches_models(op, inputs, grad_layout, relu=None):
    """``op`` on the [F, ...] stacked ``inputs`` (every input watched)
    against ``op`` on model f's slices, for each f: the output and every
    input gradient, bit for bit and layout for layout."""
    kwargs = {} if relu is None else {"relu": relu}

    def run(arrays):
        tensors = [Tensor(a) for a in arrays]
        tape = Tape()
        with tape:
            for t in tensors:
                tape.watch(t)
            out = op(*tensors, **kwargs)
        (node,) = tape.nodes
        return out, node

    out, node = run(inputs)
    rng = np.random.default_rng(list(out.shape))
    g = rng.normal(size=out.shape).astype(out.data.dtype)
    if grad_layout == "per_model_channel_major":
        g = per_model_layout(g)
    grads = node.backward(g)
    for f in range(out.shape[0]):
        out_f, node_f = run([a[f] for a in inputs])
        assert_same_array(out.data[f], out_f.data)
        for a, e in zip(grads, node_f.backward(g[f])):
            assert_same_array(a[f], e)


# A stack of F models through each recipe layer is each model's own call;
# at F = 1, the stack of one every training run is, that is the unstacked
# call bit for bit and layout for layout.
stacks = pytest.mark.parametrize("models", [1, 2, 4])
dtypes = pytest.mark.parametrize("dtype", [np.float32, np.float64])


class TestModelAxis:
    @dtypes
    @stacks
    @pytest.mark.parametrize("layer", RECIPE_CONVS)
    def test_recipe_convs_bitwise(self, layer, models, dtype):
        """A stacked conv at every recipe conv shape (batch 4 per model)
        is each model's own conv: one 3-D ``np.matmul`` per tap calls each
        model's GEMM on its own operands."""
        c_in, c_out, k, size, relu = RECIPE_CONVS[layer]
        rng = np.random.default_rng([models, *map(ord, layer)])
        x = per_model_layout(
            np.maximum(rng.normal(size=(models, 4, c_in, size, size)), 0.0))
        kernel = rng.normal(size=(models, c_out, c_in, k, k)) / math.sqrt(c_in * k * k)
        bias = rng.normal(size=(models, c_out))
        assert_stack_matches_models(
            conv2d, [a.astype(dtype) for a in (x, kernel, bias)],
            "per_model_channel_major" if relu else "c_order", relu=relu)

    @dtypes
    @stacks
    @pytest.mark.parametrize("stage", ["dec1", "dec2"])
    def test_recipe_decoder_stages_bitwise(self, stage, models, dtype):
        rng = np.random.default_rng([*map(ord, stage)])
        cases = [stage_case(stage, rng) for _ in range(models)]
        inputs = [np.stack([case[i].data for case in cases]).astype(dtype)
                  for i in range(4)]
        inputs[0] = per_model_layout(inputs[0])
        assert_stack_matches_models(fuse_skip, inputs, "c_order")

    @dtypes
    @stacks
    def test_dense_bitwise(self, models, dtype):
        rng = np.random.default_rng(97)
        inputs = [rng.normal(size=shape).astype(dtype)
                  for shape in ((models, 4, 16), (models, 3, 16), (models, 3))]
        assert_stack_matches_models(dense, inputs, "c_order")

    @pytest.mark.parametrize("op,shapes", [
        (conv2d, ((3, 4, 2, 6, 6), (2, 3, 2, 3, 3), (2, 3))),  # 3 batches, 2 models
        (conv2d, ((2, 4, 2, 6, 6), (2, 3, 2, 3, 3), (3,))),  # an unstacked bias
        (conv2d, ((2, 2, 6, 6), (2, 3, 2, 3, 3), (2,))),  # bias of the wrong width
        (dense, ((3, 4, 5), (2, 3, 5), (2, 3))),
        (dense, ((2, 4, 5), (2, 3, 5), (3,))),
    ])
    def test_mismatched_model_axes_rejected(self, op, shapes):
        with pytest.raises(ValueError):
            op(*(Tensor(np.zeros(shape)) for shape in shapes))
