"""Finite-difference gradient verification."""

import numpy as np
import pytest

from jointnet import Tensor, gradcheck
from jointnet.gradcheck import relative_error, run_battery
from jointnet.tensor import dense, tensor_sum


class TestRelativeError:
    def test_identical_values(self):
        assert relative_error(1.0, 1.0) == 0.0

    def test_near_zero_uses_floor(self):
        # both sides tiny: the 1e-8 floor keeps the ratio bounded
        assert relative_error(1e-12, 2e-12) == pytest.approx(1e-4)

    def test_sign_flip_is_large(self):
        assert relative_error(1.0, -1.0) == 2.0


class TestGradcheck:
    def test_correct_gradient_passes(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=4))
        params = {"w": Tensor(rng.normal(size=(3, 4))),
                  "b": Tensor(rng.normal(size=3))}
        result = gradcheck(lambda p: tensor_sum(dense(x, p["w"], p["b"])), params)
        assert result.passed
        assert result.max_relative_error < 1e-6
        assert result.checked == 15

    def test_wrong_gradient_fails(self):
        """An op lying about its backward must be caught."""
        from jointnet.tensor import record

        def bad_double(t: Tensor) -> Tensor:
            out = Tensor(t.data * 2.0)
            record("bad_double", (t,), out, lambda g: (g * 3.0,))
            return out

        params = {"w": Tensor(np.array([1.0, -2.0]))}
        result = gradcheck(lambda p: tensor_sum(bad_double(p["w"])), params)
        assert not result.passed
        assert result.worst_param == "w"

    def test_non_scalar_loss_rejected(self):
        params = {"w": Tensor(np.ones(2))}
        with pytest.raises(ValueError, match="scalar"):
            gradcheck(lambda p: p["w"], params)


class TestBattery:
    def test_all_checks_pass_on_reference_seed(self, reference_battery):
        results, _ = reference_battery
        names = [r.name for r in results]
        assert "joint_16x16_2stage" in names
        assert "dense_mse" in names
        assert "conv_softmax_head" in names
        for r in results:
            assert r.passed, f"{r.name}: {r.max_relative_error}"

    def test_batched_cases_carry_a_batch_axis(self):
        """Each stock primitive and the joint network are also checked on a
        leading batch axis of 2 (the pass/fail runs with the battery)."""
        from jointnet.gradcheck import standard_battery
        names = {name for name, _, _ in standard_battery(seed=0)}
        for case in ("conv2d_same", "conv2d_valid_stride2", "maxpool2x2",
                     "upsample2x2", "dense", "softmax_cross_entropy",
                     "global_avg_pool", "joint_16x16_2stage"):
            assert case in names and f"{case}_batch2" in names, case

    def test_second_seed_passes(self):
        for r in run_battery(seed=1):
            assert r.passed, f"{r.name}: {r.max_relative_error}"
