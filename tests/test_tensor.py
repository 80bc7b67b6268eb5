"""Tensor primitives: forward oracles, backward plumbing, invariants."""

import weakref

import numpy as np
import pytest

from jointnet import (NumericError, Tape, Tensor, backward, conv2d, dense,
                      fuse_skip, global_avg_pool, maxpool2x2, sigmoid, softmax,
                      tensor_sum, weighted_sum)

from upsample_op import upsample2x2


class TestTensorBasics:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_float32_and_float64(self, dtype):
        data = np.arange(4.0, dtype=dtype).reshape(2, 2)
        t = Tensor(data)
        assert t.data.dtype == dtype
        assert t.data is data

    @pytest.mark.parametrize("data", [[[1, 2], [3, 4]], np.arange(4).reshape(2, 2),
                                      np.ones((2, 2), np.float16),
                                      np.ones((2, 2), bool)])
    def test_converts_everything_else_to_float64(self, data):
        t = Tensor(data)
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_python_scalars_are_float64(self):
        assert Tensor(3.5).data.dtype == Tensor(2).data.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])

    def test_rejects_infinity(self):
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5


class TestConv2d:
    def test_same_padding_oracle(self):
        """3x3 all-ones kernel over 1..16 sums each 3x3 neighborhood, with
        zeros outside the image."""
        x = Tensor(np.arange(1.0, 17.0).reshape(1, 4, 4))
        out = conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, [[[14.0, 24.0, 30.0, 22.0],
                                                  [33.0, 54.0, 63.0, 45.0],
                                                  [57.0, 90.0, 99.0, 69.0],
                                                  [46.0, 72.0, 78.0, 54.0]]])

    def test_same_padding_preserves_dims(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c_in, c_out = rng.integers(1, 4, 2)
            h, w = rng.integers(3, 12, 2)
            k = rng.choice([1, 3, 5])
            x = Tensor(rng.normal(size=(c_in, h, w)))
            kernel = Tensor(rng.normal(size=(c_out, c_in, k, k)))
            out = conv2d(x, kernel, Tensor(np.zeros(c_out)))
            assert out.shape == (c_out, h, w)

    def test_bias_is_per_output_channel(self):
        x = Tensor(np.zeros((1, 4, 4)))
        out = conv2d(x, Tensor(np.zeros((2, 1, 3, 3))),
                     Tensor(np.array([1.5, -2.0])))
        assert np.all(out.data[0] == 1.5)
        assert np.all(out.data[1] == -2.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            conv2d(Tensor(np.zeros((2, 4, 4))),
                   Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.zeros(1)))

    def test_even_kernel_same_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(Tensor(np.zeros((1, 4, 4))),
                   Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros(1)))


class TestMaxpool:
    def test_oracle(self):
        x = Tensor(np.array([[[5.0, 1, 2, 0], [0, 0, 3, 3],
                              [7, 7, 1, 1], [7, 0, 0, 2]]]))
        np.testing.assert_array_equal(maxpool2x2(x).data, [[[5.0, 3.0], [7.0, 2.0]]])

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2x2(Tensor(np.zeros((1, 3, 4))))

    def test_tie_breaks_to_top_left(self):
        """A constant window routes its whole gradient to the first entry."""
        x = Tensor(np.ones((1, 2, 2)))
        tape = Tape()
        with tape:
            tape.watch(x)
            loss = tensor_sum(maxpool2x2(x))
        grad = backward(tape, loss)[x]
        np.testing.assert_array_equal(grad, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_pool_of_upsample_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=(2, 3, 5))
            roundtrip = maxpool2x2(upsample2x2(Tensor(x)))
            np.testing.assert_array_equal(roundtrip.data, x)


class TestUpsample:
    def test_each_value_fills_a_block(self):
        out = upsample2x2(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])))
        np.testing.assert_array_equal(
            out.data,
            [[[1.0, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]])

    def test_backward_sums_blocks(self):
        x = Tensor(np.zeros((1, 2, 2)))
        tape = Tape()
        with tape:
            tape.watch(x)
            loss = tensor_sum(upsample2x2(x))
        np.testing.assert_array_equal(backward(tape, loss)[x],
                                      np.full((1, 2, 2), 4.0))


class TestDenseAndActivations:
    def test_dense_oracle(self):
        out = dense(Tensor([1.0, 2.0]), Tensor([[1.0, 1.0], [0.0, 3.0]]),
                    Tensor([0.0, 1.0]))
        np.testing.assert_array_equal(out.data, [3.0, 7.0])

    def test_dense_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            dense(Tensor([1.0, 2.0, 3.0]), Tensor([[1.0, 1.0]]), Tensor([0.0]))

    def test_relu_clamps_negatives(self):
        """The relu fused into conv2d: an identity 1x1 kernel and zero bias
        leave only the clamp."""
        out = conv2d(Tensor([[[-2.0, 0.0, 3.0]]]), Tensor(np.ones((1, 1, 1, 1))),
                     Tensor([0.0]), relu=True)
        np.testing.assert_array_equal(out.data, [[[0.0, 0.0, 3.0]]])

    def test_softmax_oracle(self):
        out = softmax(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, [0.090031, 0.244728, 0.665241],
                                   atol=1e-6)

    def test_softmax_sums_to_one_for_large_inputs(self):
        """The stability shift keeps |x| up to 1e6 finite."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1e6, 1e6, rng.integers(2, 8))
            p = softmax(Tensor(x)).data
            assert np.all(np.isfinite(p))
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_sigmoid_saturates_without_overflow(self):
        out = sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_global_avg_pool(self):
        x = Tensor(np.stack([np.full((2, 2), 3.0), np.arange(4.0).reshape(2, 2)]))
        np.testing.assert_array_equal(global_avg_pool(x).data, [3.0, 1.5])


class TestWeightedSum:
    def test_value_and_rule(self):
        """weights[0] * a + weights[1] * b; the weights are data, so their
        gradient is None."""
        a, b = Tensor(np.array([1.0, -2.0])), Tensor(np.array([4.0, 0.5]))
        weights = Tensor(np.array([0.25, 0.75]))
        tape = Tape()
        with tape:
            out = weighted_sum(a, b, weights)
        np.testing.assert_array_equal(out.data, [3.25, -0.125])
        (node,) = tape.nodes
        assert node.op == "weighted_sum" and node.inputs == (a, b, weights)
        da, db, dw = node.backward(np.array([2.0, -4.0]))
        np.testing.assert_array_equal(da, [0.5, -1.0])
        np.testing.assert_array_equal(db, [1.5, -3.0])
        assert dw is None

    @pytest.mark.parametrize("a, b, weights", [
        ((2,), (3,), (2,)),
        ((2,), (2,), (3,)),
        ((), (), ()),
    ])
    def test_shapes_rejected(self, a, b, weights):
        with pytest.raises(ValueError, match="weighted_sum expects"):
            weighted_sum(Tensor(np.zeros(a)), Tensor(np.zeros(b)),
                         Tensor(np.zeros(weights)))


class TestBackward:
    def test_unreachable_parameter_gets_exact_zero(self):
        w = Tensor(np.ones((2, 2)))
        unused = Tensor(np.ones(3))
        tape = Tape()
        with tape:
            tape.watch(w)
            tape.watch(unused)
            loss = tensor_sum(w)
        grads = backward(tape, loss)
        assert np.all(grads[unused] == 0.0)
        np.testing.assert_array_equal(grads[w], np.ones((2, 2)))

    def test_zero_scale_routes_exact_zero(self):
        w = Tensor(np.array([1.0, 2.0]))
        tape = Tape()
        with tape:
            tape.watch(w)
            loss = weighted_sum(tensor_sum(sigmoid(w)), Tensor(3.0),
                                Tensor(np.array([0.0, 1.0])))
        assert np.all(backward(tape, loss)[w] == 0.0)

    def test_reused_tensor_accumulates(self):
        w = Tensor(np.array([2.0]))
        tape = Tape()
        with tape:
            tape.watch(w)
            loss = weighted_sum(tensor_sum(w), tensor_sum(w), Tensor(np.ones(2)))
        np.testing.assert_array_equal(backward(tape, loss)[w], [2.0])

    def test_seed_of_two_axes_rejected(self):
        w = Tensor(np.ones((2, 2)))
        tape = Tape()
        with tape:
            tape.watch(w)
            out = sigmoid(w)
        with pytest.raises(ValueError, match="scalar or a vector"):
            backward(tape, out)

    def test_vector_seed_differentiates_the_sum(self):
        """A vector of per-model losses seeds ones: the gradient of its
        sum, bit for bit, without a summing node on the tape."""
        rng = np.random.default_rng(3)
        values = rng.normal(size=3)
        grads = []
        for summed in (False, True):
            w = Tensor(values)
            tape = Tape()
            with tape:
                tape.watch(w)
                out = sigmoid(w)
                if summed:
                    out = tensor_sum(out)
            grads.append(backward(tape, out)[w])
        assert grads[0].tobytes() == grads[1].tobytes()

    def test_intermediate_activation_freed_by_backward(self):
        """backward releases each node as it goes: once it returns, nothing
        holds an activation the caller let go of, though the caller still
        holds the loss and the parameters."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 1, 4, 4)))
        kernel, bias = Tensor(rng.normal(size=(2, 1, 3, 3))), Tensor(np.zeros(2))
        tape = Tape()
        with tape:
            tape.watch(kernel)
            tape.watch(bias)
            hidden = conv2d(x, kernel, bias, relu=True)
            loss = tensor_sum(sigmoid(maxpool2x2(hidden)))
        freed = weakref.ref(hidden.data)
        del hidden
        assert freed() is not None  # the tape still holds it
        backward(tape, loss)
        assert freed() is None
        assert tape.nodes == []

    def test_second_backward_on_a_tape_raises(self):
        w = Tensor(np.array([0.5, -1.0]))
        tape = Tape()
        with tape:
            tape.watch(w)
            loss = tensor_sum(sigmoid(w))
        backward(tape, loss)
        with pytest.raises(ValueError, match="already differentiated"):
            backward(tape, loss)

    def test_no_recording_outside_tape(self):
        before = Tape()
        sigmoid(Tensor([1.0]))
        assert before.nodes == []


class TestBatchAxis:
    """A leading batch axis gives, row for row, the single-sample results."""

    RTOL = 1e-12

    def _forward_and_grads(self, fn, xs):
        x = Tensor(xs)
        tape = Tape()
        with tape:
            tape.watch(x)
            out = fn(x)
            loss = tensor_sum(sigmoid(out))
        return out.data, backward(tape, loss)[x]

    @pytest.mark.parametrize("name", ["conv_same", "maxpool", "upsample",
                                      "dense", "softmax", "global_avg_pool"])
    def test_rows_match_single_samples(self, name):
        rng = np.random.default_rng(17)
        kernel = Tensor(rng.normal(size=(3, 2, 3, 3)))
        cbias = Tensor(rng.normal(size=3))
        weights, dbias = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=3))
        fn, shape = {
            "conv_same": (lambda x: conv2d(x, kernel, cbias), (2, 6, 6)),
            "maxpool": (maxpool2x2, (2, 4, 6)),
            "upsample": (upsample2x2, (2, 3, 2)),
            "dense": (lambda x: dense(x, weights, dbias), (5,)),
            "softmax": (softmax, (4,)),
            "global_avg_pool": (global_avg_pool, (3, 4, 4)),
        }[name]
        batch = rng.normal(size=(3,) + shape)
        out, grad = self._forward_and_grads(fn, batch)
        for i in range(3):
            out_i, grad_i = self._forward_and_grads(fn, batch[i])
            np.testing.assert_allclose(out[i], out_i, rtol=self.RTOL, atol=0)
            np.testing.assert_allclose(grad[i], grad_i, rtol=self.RTOL, atol=0)

    def test_maxpool_ties_in_a_batch_go_to_first_position(self):
        x = Tensor(np.array([[[[1.0, 1.0], [1.0, 1.0]]],
                             [[[0.0, 5.0], [5.0, 5.0]]]]))
        tape = Tape()
        with tape:
            tape.watch(x)
            loss = tensor_sum(maxpool2x2(x))
        np.testing.assert_array_equal(
            backward(tape, loss)[x],
            [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 1.0], [0.0, 0.0]]]])

    def test_extra_leading_axes_fold_into_the_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 1, 4, 4))
        kernel, bias = Tensor(rng.normal(size=(2, 1, 3, 3))), Tensor(np.zeros(2))
        out = conv2d(Tensor(x), kernel, bias)
        assert out.shape == (2, 3, 2, 4, 4)
        flat = conv2d(Tensor(x.reshape(6, 1, 4, 4)), kernel, bias)
        np.testing.assert_array_equal(out.data.reshape(6, 2, 4, 4), flat.data)


class TestDtype:
    """Each primitive computes in its inputs' dtype: the output, every
    input gradient its rule returns, and ``backward``'s results, including
    the zeros of a parameter the loss never reaches."""

    CASES = {
        "conv2d": (lambda p: conv2d(p["x"], p["k"], p["b"]),
                   {"x": (2, 2, 5, 5), "k": (3, 2, 3, 3), "b": (3,)}),
        "conv2d_relu": (lambda p: conv2d(p["x"], p["k"], p["b"], relu=True),
                        {"x": (2, 2, 5, 5), "k": (3, 2, 3, 3), "b": (3,)}),
        "fuse_skip": (lambda p: fuse_skip(p["s"], p["x"], p["k"], p["b"]),
                      {"s": (2, 2, 4, 4), "x": (2, 3, 2, 2), "k": (3, 2, 3, 3),
                       "b": (3,)}),
        "maxpool2x2": (lambda p: maxpool2x2(p["x"]), {"x": (2, 3, 4, 4)}),
        "dense": (lambda p: dense(p["x"], p["w"], p["b"]),
                  {"x": (2, 4), "w": (3, 4), "b": (3,)}),
        "sigmoid": (lambda p: sigmoid(p["x"]), {"x": (2, 3)}),
        "softmax": (lambda p: softmax(p["x"]), {"x": (2, 3)}),
        "global_avg_pool": (lambda p: global_avg_pool(p["x"]), {"x": (2, 3, 4, 4)}),
        "weighted_sum": (lambda p: weighted_sum(p["a"], p["x"], Tensor(
                             np.array([0.75, 0.25], p["a"].data.dtype))),
                         {"a": (2, 3), "x": (2, 3)}),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outputs_and_gradients_keep_the_dtype(self, case, dtype):
        fn, shapes = self.CASES[case]
        rng = np.random.default_rng(11)
        params = {name: Tensor(rng.normal(size=shape).astype(dtype))
                  for name, shape in shapes.items()}
        unused = Tensor(np.ones(2, dtype))
        tape = Tape()
        with tape:
            for p in (*params.values(), unused):
                tape.watch(p)
            out = fn(params)
            loss = tensor_sum(sigmoid(out))
        assert out.data.dtype == loss.data.dtype == dtype
        for node in tape.nodes:
            rule = node.backward
            node.backward = lambda g, rule=rule: self._same_dtype(rule(g), dtype)
        grads = backward(tape, loss)
        assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}
        assert np.all(grads[unused] == 0.0)

    @staticmethod
    def _same_dtype(grads, dtype):
        assert {g.dtype for g in grads if g is not None} == {np.dtype(dtype)}
        return grads
