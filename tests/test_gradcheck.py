"""Finite-difference gradient verification."""

import numpy as np
import pytest

from jointnet import (ArchConfig, JointNetwork, Tape, Tensor, TrainConfig, backward,
                      build, combined_loss, cross_entropy, forward_backbone,
                      forward_joint, gradcheck, mse, synth_generate)
from jointnet.gradcheck import (FLOOR, STEP, TOLERANCE, relative_error, run_battery,
                                standard_battery)
from jointnet.tensor import dense, tensor_sum, weighted_sum
from jointnet.training import _batch_losses

# The largest relative L2 error of a float32 gradient tensor against the
# float64 one (``relative_l2_errors``): seeds 0-7 read at most 7.6e-7 and
# seeds 0-31 at most 2.3e-6 (seed 18).
DTYPE_TOLERANCE = 1e-5


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

    def test_non_finite_gradient_fails_at_its_entry(self):
        """The tape returns a non-finite gradient as it is, and gradcheck
        fails at that parameter and entry."""
        from jointnet.tensor import record

        def inf_at_one(t: Tensor) -> Tensor:
            out = Tensor(t.data * 2.0)
            record("inf_at_one", (t,), out,
                   lambda g: (np.where(np.arange(t.size) == 2, np.inf, g * 2.0),))
            return out

        params = {"v": Tensor(np.ones(2)), "w": Tensor(np.array([1.0, -2.0, 0.5]))}
        ones = Tensor(np.ones(2))
        result = gradcheck(lambda p: weighted_sum(tensor_sum(p["v"]),
                                                  tensor_sum(inf_at_one(p["w"])), ones),
                           params)
        assert not result.passed
        assert result.max_relative_error == float("inf")
        assert (result.worst_param, result.worst_index) == ("w", 2)

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

    def test_every_check_runs_in_float64(self):
        """Central differences at STEP need float64, whatever dtype
        ``build`` defaults to."""
        for name, fn, params in standard_battery(seed=0):
            assert {p.data.dtype for p in params.values()} == {np.dtype(np.float64)}, name
            assert fn(params).data.dtype == np.float64, name

    def test_batched_cases_carry_a_batch_axis(self):
        """Each stock primitive and the joint network are also checked on a
        leading batch axis of 2 (the pass/fail runs with the battery)."""
        names = {name for name, _, _ in standard_battery(seed=0)}
        for case in ("conv2d_same", "maxpool2x2", "fuse_skip",
                     "dense", "softmax_cross_entropy", "global_avg_pool",
                     "joint_16x16_2stage"):
            assert case in names and f"{case}_batch2" in names, case

    def test_model_axis_cases_stack_two_models(self):
        """The ops that take a model axis, and the lockstep joint loss, are
        checked on a stack of two models: every parameter leads with it."""
        cases = {name: params for name, _, params in standard_battery(seed=0)}
        for case in ("conv2d_same", "conv2d_relu", "fuse_skip", "dense",
                     "joint_8x8_1stage"):
            params = cases[f"{case}_models2"]
            assert {p.shape[0] for name, p in params.items()
                    if name in ("k", "b", "w") or "." in name} == {2}, case

    def test_primitive_checks_cover_every_op_the_network_records(self):
        """Each op on a joint or backbone training tape is also on the tape
        of a battery entry smaller than the full network, so gate 1 checks
        it in isolation."""
        def recorded_ops(fn, *args) -> set[str]:
            tape = Tape()
            with tape:
                fn(*args)
            return {node.op for node in tape.nodes}

        def joint_step(net, images, labels):
            out = forward_joint(net, images)
            combined_loss(cross_entropy(labels, out.class_probs),
                          mse(images, out.reconstruction), 0.5)

        def backbone_step(net, images, labels):
            cross_entropy(labels, forward_backbone(net, images))

        net = build(ArchConfig(n_stages=2, input_channels=1, input_size=16,
                               base_channels=2, n_classes=3), seed=0)
        batch = (net, Tensor(np.random.default_rng(3).uniform(0.0, 1.0, (2, 1, 16, 16))),
                 Tensor(np.eye(3)[[0, 2]]))
        network_ops = (recorded_ops(joint_step, *batch)
                       | recorded_ops(backbone_step, *batch))
        # the decoder records one fuse_skip per stage, not upsample2x2
        assert {"conv2d", "maxpool2x2", "fuse_skip", "dense"} <= network_ops
        battery_ops = set().union(*(recorded_ops(fn, params)
                                    for name, fn, params in standard_battery(seed=0)
                                    if not name.startswith("joint")))
        assert network_ops <= battery_ops, network_ops - battery_ops

    @pytest.mark.slow
    def test_second_seed_passes(self):
        for r in run_battery(seed=1):
            assert r.passed, f"{r.name}: {r.max_relative_error}"


def recipe_gradients(seed: int, dtype) -> dict[str, np.ndarray]:
    """The gradient ``train`` takes on the recipe network (``ArchConfig()``,
    joint mode, phi = 0.5) for one batch of 4 synthetic images, computed in
    ``dtype``, by parameter name. The weights are ``build``'s float32 ones
    and the images are rounded to float32, so every dtype differentiates
    the same function at the same point."""
    arch = ArchConfig()
    start = build(arch, seed=seed, dtype=np.float32)
    net = JointNetwork(arch, {name: Tensor(p.data.astype(dtype))
                              for name, p in start.params.items()})
    images, labels = synth_generate(2, arch.input_size, seed=seed).batch([0, 2, 4, 1])
    images = Tensor(images.data.astype(np.float32).astype(dtype))
    tape = Tape()
    with tape:
        for p in net.params.values():
            tape.watch(p)
        loss = _batch_losses(net, images, labels, TrainConfig(phi=0.5))[0]
    grads = backward(tape, loss)
    return {name: grads[p] for name, p in net.params.items()}


def relative_l2_errors(grads: dict[str, np.ndarray],
                       reference: dict[str, np.ndarray]) -> dict[str, float]:
    """||g - ref|| / max(||ref||, FLOOR) for each tensor, in float64."""
    return {name: float(np.linalg.norm(grads[name].astype(np.float64) - ref)
                        / max(float(np.linalg.norm(ref)), FLOOR))
            for name, ref in reference.items()}


class TestFloat32AgainstFloat64:
    """The recipe network's float32 gradient matches its float64 gradient
    at the same float32-representable weights and batch of 4 (phi = 0.5),
    tensor by tensor, within DTYPE_TOLERANCE; the finite-difference
    constants are untouched."""

    def test_constants(self):
        assert (STEP, TOLERANCE, DTYPE_TOLERANCE) == (1e-5, 1e-4, 1e-5)

    @pytest.mark.parametrize("seed", range(8))
    def test_float32_gradient_matches_float64(self, seed):
        low = recipe_gradients(seed, np.float32)
        reference = recipe_gradients(seed, np.float64)
        assert {g.dtype for g in low.values()} == {np.dtype(np.float32)}
        assert {g.dtype for g in reference.values()} == {np.dtype(np.float64)}
        errors = relative_l2_errors(low, reference)
        assert list(errors) == list(reference)
        worst = max(errors, key=errors.get)
        assert errors[worst] <= DTYPE_TOLERANCE, (worst, errors[worst])
        # float32 rounding is visible, so the two are not the same function
        assert errors[worst] > 0.0

    @pytest.mark.parametrize("name", ["enc1.conv1.w", "classifier.dense.b", "recon.conv.w"])
    def test_a_gradient_off_by_1e_3_fails(self, name):
        low = recipe_gradients(0, np.float32)
        reference = recipe_gradients(0, np.float64)
        low[name] = low[name] * np.float32(1 + 1e-3)
        errors = relative_l2_errors(low, reference)
        assert errors[name] > DTYPE_TOLERANCE
        assert max(e for n, e in errors.items() if n != name) <= DTYPE_TOLERANCE
