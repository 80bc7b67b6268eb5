"""Tensor primitives: forward oracles, backward plumbing, invariants."""

import numpy as np
import pytest

from jointnet import (NumericError, Tape, Tensor, add, backward, conv2d,
                      dense, global_avg_pool, maxpool2x2, relu, scale,
                      sigmoid, softmax, tensor_sum, upsample2x2)


class TestTensorBasics:
    def test_converts_to_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])

    def test_rejects_infinity(self):
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_scalar_item(self):
        assert Tensor(3.5).item() == 3.5


class TestConv2d:
    def test_valid_padding_oracle(self):
        """3x3 all-ones kernel over 1..16 sums each 3x3 neighborhood."""
        x = Tensor(np.arange(1.0, 17.0).reshape(1, 4, 4))
        out = conv2d(x, Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)),
                     stride=1, padding="valid")
        np.testing.assert_array_equal(out.data, [[[54.0, 63.0], [90.0, 99.0]]])

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

    def test_same_padding_stride2_ceil(self):
        x = Tensor(np.zeros((1, 7, 5)))
        out = conv2d(x, Tensor(np.zeros((2, 1, 3, 3))), Tensor(np.zeros(2)),
                     stride=2, padding="same")
        assert out.shape == (2, 4, 3)

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

    def test_oversized_kernel_valid_rejected(self):
        with pytest.raises(ValueError, match="larger"):
            conv2d(Tensor(np.zeros((1, 2, 2))),
                   Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)),
                   padding="valid")


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
        grad = backward(tape, loss)[x].data
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
        np.testing.assert_array_equal(backward(tape, loss)[x].data,
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
        out = relu(Tensor([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

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
        assert np.all(grads[unused].data == 0.0)
        np.testing.assert_array_equal(grads[w].data, np.ones((2, 2)))

    def test_zero_scale_routes_exact_zero(self):
        w = Tensor(np.array([1.0, 2.0]))
        tape = Tape()
        with tape:
            tape.watch(w)
            loss = scale(tensor_sum(sigmoid(w)), 0.0)
        assert np.all(backward(tape, loss)[w].data == 0.0)

    def test_reused_tensor_accumulates(self):
        w = Tensor(np.array([2.0]))
        tape = Tape()
        with tape:
            tape.watch(w)
            loss = add(tensor_sum(w), tensor_sum(w))
        np.testing.assert_array_equal(backward(tape, loss)[w].data, [2.0])

    def test_non_scalar_seed_rejected(self):
        w = Tensor(np.ones(2))
        tape = Tape()
        with tape:
            tape.watch(w)
            out = relu(w)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, out)

    def test_no_recording_outside_tape(self):
        before = Tape()
        relu(Tensor([1.0]))
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
        return out.data, backward(tape, loss)[x].data

    @pytest.mark.parametrize("name", ["conv_same", "conv_valid_stride2",
                                      "maxpool", "upsample", "dense",
                                      "softmax", "global_avg_pool"])
    def test_rows_match_single_samples(self, name):
        rng = np.random.default_rng(17)
        kernel = Tensor(rng.normal(size=(3, 2, 3, 3)))
        cbias = Tensor(rng.normal(size=3))
        weights, dbias = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=3))
        fn, shape = {
            "conv_same": (lambda x: conv2d(x, kernel, cbias), (2, 6, 6)),
            "conv_valid_stride2": (lambda x: conv2d(x, kernel, cbias, 2, "valid"),
                                   (2, 7, 7)),
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
            backward(tape, loss)[x].data,
            [[[[1.0, 0.0], [0.0, 0.0]]], [[[0.0, 1.0], [0.0, 0.0]]]])

    def test_extra_leading_axes_fold_into_the_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 1, 4, 4))
        kernel, bias = Tensor(rng.normal(size=(2, 1, 3, 3))), Tensor(np.zeros(2))
        out = conv2d(Tensor(x), kernel, bias)
        assert out.shape == (2, 3, 2, 4, 4)
        flat = conv2d(Tensor(x.reshape(6, 1, 4, 4)), kernel, bias)
        np.testing.assert_array_equal(out.data.reshape(6, 2, 4, 4), flat.data)
