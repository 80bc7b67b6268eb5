"""Losses, optimizer, scheduler, and the training loops."""

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from jointnet import (Adam, ArchConfig, ConfigError, NumericError,
                      PlateauScheduler, Tape, Tensor, TrainConfig, backward,
                      build, combined_loss, cross_entropy, forward_joint,
                      kfold_train, mse, record, save_checkpoint, softmax,
                      stratified_folds, synth_generate, train, weighted_sum)
from jointnet import training
from jointnet.data import Dataset
from jointnet.network import stacked
from jointnet.training import LR_FLOOR, _batch_losses

import golden
from peaks import traced_peak, traced_peaks
from upsample_op import add

TINY_ARCH = ArchConfig(n_stages=1, input_channels=1, input_size=16,
                       base_channels=2, n_classes=3)


def _tiny_dataset(n_per_class: int, seed: int = 0) -> Dataset:
    """Random images whose mean brightness encodes the class."""
    rng = np.random.default_rng(seed)
    images, labels, sources = [], [], []
    for label, level in enumerate((0.2, 0.5, 0.8)):
        for i in range(n_per_class):
            images.append(np.clip(rng.normal(level, 0.05, (1, 16, 16)), 0.0, 1.0))
            labels.append(label)
            sources.append(f"tiny/{label}/{i}")
    return Dataset(np.stack(images), labels, sources, ["dark", "mid", "bright"])


class TestLosses:
    def test_cross_entropy_oracle(self):
        loss = cross_entropy(Tensor([0.0, 1.0, 0.0]), Tensor([0.1, 0.8, 0.1]))
        assert loss.item() == pytest.approx(0.2231435513, abs=1e-9)

    def test_cross_entropy_uniform(self):
        third = 1.0 / 3.0
        loss = cross_entropy(Tensor([1.0, 0.0, 0.0]), Tensor([third] * 3))
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-12)

    def test_cross_entropy_clamp_bounds_loss(self):
        loss = cross_entropy(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert loss.item() == pytest.approx(-np.log(1e-12))

    def test_cross_entropy_rejects_non_onehot(self):
        with pytest.raises(ValueError, match="one-hot"):
            cross_entropy(Tensor([0.5, 0.5]), Tensor([0.5, 0.5]))

    def test_cross_entropy_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="probability"):
            cross_entropy(Tensor([1.0, 0.0]), Tensor([0.9, 0.3]))

    def test_float32_row_off_by_1e_3_rejected(self):
        onehot = Tensor(np.array([0.0, 1.0, 0.0], np.float32))
        with pytest.raises(ValueError, match="probability"):
            cross_entropy(onehot, Tensor(np.array([0.2, 0.3, 0.501], np.float32)))

    def test_float64_bound_stays_1e_9(self):
        onehot = Tensor([0.0, 1.0, 0.0])
        cross_entropy(onehot, Tensor([0.2, 0.3, 0.5 + 5e-10]))
        with pytest.raises(ValueError, match="probability"):
            cross_entropy(onehot, Tensor([0.2, 0.3, 0.5 + 2e-9]))

    @pytest.mark.parametrize("k", [2, 3, 10, 100])
    def test_float32_softmax_rows_accepted(self, k):
        rng = np.random.default_rng(k)
        logits = rng.normal(size=(500, k)) * rng.choice([0.1, 1.0, 30.0], size=(500, 1))
        probs = softmax(Tensor(logits.astype(np.float32)))
        onehot = Tensor(np.eye(k, dtype=np.float32)[rng.integers(0, k, 500)])
        assert cross_entropy(onehot, probs).data.dtype == np.float32

    def test_mse_oracle(self):
        loss = mse(Tensor([0.0, 0.5, 1.0]), Tensor([0.0, 0.8, 0.7]))
        assert loss.item() == pytest.approx(0.06, abs=1e-12)

    def test_cross_entropy_is_mean_over_rows(self):
        y = Tensor([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        p = Tensor([[0.1, 0.8, 0.1], [0.5, 0.25, 0.25]])
        rows = [cross_entropy(Tensor(y.data[i]), Tensor(p.data[i])).item()
                for i in range(2)]
        assert cross_entropy(y, p).item() == pytest.approx(sum(rows) / 2, abs=1e-15)

    def test_cross_entropy_checks_every_row(self):
        with pytest.raises(ValueError, match="one-hot"):
            cross_entropy(Tensor([[1.0, 0.0], [1.0, 1.0]]),
                          Tensor([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="probability"):
            cross_entropy(Tensor([[1.0, 0.0], [0.0, 1.0]]),
                          Tensor([[0.5, 0.5], [0.9, 0.3]]))

    def test_mse_of_a_batch_is_mean_of_images(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(size=(2, 1, 4, 4)), rng.uniform(size=(2, 1, 4, 4))
        per_image = [mse(Tensor(a[i]), Tensor(b[i])).item() for i in range(2)]
        assert mse(Tensor(a), Tensor(b)).item() == pytest.approx(
            sum(per_image) / 2, abs=1e-15)

    def test_mse_differentiates_the_reconstruction_only(self):
        """The input image is a target, so its gradient is None; the
        reconstruction's is 2 (recon - image) g / n."""
        image, recon = Tensor([0.0, 0.5, 1.0, 0.25]), Tensor([0.0, 0.8, 0.7, 0.5])
        tape = Tape()
        with tape:
            mse(image, recon)
        (node,) = tape.nodes
        d_image, d_recon = node.backward(np.array(3.0))
        assert d_image is None
        np.testing.assert_array_equal(
            d_recon, (2.0 / 4) * (recon.data - image.data) * 3.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse(Tensor([0.0]), Tensor([0.0, 1.0]))

    def test_combined_phi_out_of_range(self):
        ls, lu = Tensor(1.0), Tensor(2.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            combined_loss(ls, lu, 1.5)

    def test_combined_interpolates(self):
        ls, lu = Tensor(2.0), Tensor(4.0)
        assert combined_loss(ls, lu, 0.25).item() == pytest.approx(3.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("phi", [0.9, 0.5])
    def test_combined_matches_the_three_node_blend(self, phi, dtype):
        """The one-node blend against the three nodes it replaced,
        ``add(scale(ls, phi), scale(lu, 1 - phi))``: the value and both
        loss gradients, bit for bit. Each weight is a Python float rounded
        once to the dtype; at phi = 0.9, float32(1 - 0.9) differs from
        1 - float32(0.9), so a weight computed in float32 fails here."""
        rng = np.random.default_rng(int(phi * 10))
        values = rng.uniform(0.0, 3.0, 2).astype(dtype)
        seed = np.array(rng.uniform(0.5, 2.0), dtype)
        results = []
        for blend in (combined_loss,
                      lambda ls, lu, phi: add(_scale(ls, phi), _scale(lu, 1.0 - phi))):
            ls, lu = Tensor(values[0]), Tensor(values[1])
            tape = Tape()
            with tape:
                tape.watch(ls)
                tape.watch(lu)
                loss = blend(ls, lu, phi)
            # the blend's last node gets ``seed`` as its output gradient,
            # so the gradients are not the weights alone
            rule = tape.nodes[-1].backward
            tape.nodes[-1].backward = lambda g, rule=rule: rule(seed * g)
            grads = backward(tape, loss)
            results.append([loss.data, grads[ls], grads[lu]])
        for actual, expected in zip(*results):
            assert actual.dtype == expected.dtype == dtype
            assert actual.tobytes() == expected.tobytes()


def _scale(x: Tensor, factor: float) -> Tensor:
    """The taped multiplication by a Python float that the loss blend was
    built from, kept as the oracle of ``combined_loss``."""
    out = Tensor(x.data * factor)
    record("scale", (x,), out, lambda g: (g * factor,))
    return out


class TestLossRouting:
    """The blend endpoints must route exact zeros, not merely small values."""

    @pytest.mark.parametrize("seed", range(10))
    def test_endpoint_gradients_and_midpoint_value(self, seed):
        net = build(TINY_ARCH, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed + 1000)
        image = Tensor(rng.uniform(0.0, 1.0, (1, 16, 16)))
        label = Tensor(np.eye(3)[seed % 3])
        groups = net.parameter_groups()

        values = {}
        for phi in (0.0, 0.5, 1.0):
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                out = forward_joint(net, image)
                loss = combined_loss(cross_entropy(label, out.class_probs),
                                     mse(image, out.reconstruction), phi)
            grads = backward(tape, loss)
            values[phi] = loss.item()
            by_name = {name: grads[p] for name, p in net.params.items()}
            if phi == 1.0:
                for name in groups["decoder"]:
                    assert np.all(by_name[name] == 0.0), name
            if phi == 0.0:
                for name in groups["classifier"]:
                    assert np.all(by_name[name] == 0.0), name
                assert any(np.any(by_name[n] != 0.0) for n in groups["encoder"])
        assert abs(values[0.5] - (values[0.0] + values[1.0]) / 2.0) <= 1e-12


class TestDtypeFollowsParameters:
    """A recipe step computes in the parameter dtype from the loss down:
    every tape node's output, every gradient a backward rule gets or
    returns, every gradient ``backward`` returns and every tensor
    ``Adam.step`` returns. The images come from the float64 data path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["joint", "backbone"])
    def test_recipe_step(self, dtype, mode):
        dtype = np.dtype(dtype)
        net = build(ArchConfig(), seed=0, dtype=dtype)
        images, labels = synth_generate(2, 32, seed=0).batch([0, 2, 4, 1])
        assert images.data.dtype == np.float64
        optimizer = Adam({name: p.shape for name, p in net.params.items()})
        for _ in range(2):  # the second step reads the moments
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                loss = _batch_losses(net, images, labels, TrainConfig(mode=mode))[0]
            assert {(node.op, node.output.data.dtype) for node in tape.nodes} == {
                (node.op, dtype) for node in tape.nodes}
            seen = set()

            def watching(op, rule):
                def run(g):
                    grads = rule(g)
                    seen.update((op, a.dtype) for a in (g, *grads) if a is not None)
                    return grads
                return run

            for node in tape.nodes:
                node.backward = watching(node.op, node.backward)
            grads = backward(tape, loss)
            assert {dt for _, dt in seen} == {dtype}, seen
            assert {g.dtype for g in grads.values()} == {dtype}
            net.params = optimizer.step(
                net.params, {name: grads[p] for name, p in net.params.items()}, 1e-4)
            assert {p.data.dtype for p in net.params.values()} == {dtype}
        assert optimizer._m.dtype == optimizer._v.dtype == dtype

    def test_train_builds_float32_networks(self):
        result = kfold_train(_tiny_dataset(2), TINY_ARCH,
                             TrainConfig(epochs=1, folds=2, batch_size=4))
        assert {a.dtype for fold in result.folds
                for a in fold.checkpoint.params.values()} == {np.dtype(np.float32)}


class TestAdam:
    def test_first_step_oracle(self):
        """With unit gradient, bias correction makes the first step lr-sized."""
        opt = Adam({"w": ()})
        params = {"w": Tensor(0.0)}
        out = opt.step(params, {"w": np.array(1.0)}, lr=1e-4)
        assert abs(out["w"].item() + 1e-4) < 1e-11
        assert opt.step_count == 1

    def test_inputs_not_mutated(self):
        opt = Adam({"w": (2,)})
        params = {"w": Tensor([1.0, 2.0])}
        opt.step(params, {"w": np.array([0.5, -0.5])}, lr=0.01)
        np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])

    def test_shared_step_counter(self):
        opt = Adam({"a": (1,), "b": (1,)})
        params = {"a": Tensor([0.0]), "b": Tensor([0.0])}
        params = opt.step(params, {"a": np.ones(1), "b": np.ones(1)}, lr=0.1)
        opt.step(params, {"a": np.ones(1), "b": np.ones(1)}, lr=0.1)
        assert opt.step_count == 2

    def test_non_finite_gradient_rejected(self):
        opt = Adam({"w": (1,)})
        with pytest.raises(NumericError, match="'w'"):
            opt.step({"w": Tensor([0.0])}, {"w": np.array([np.nan])}, lr=0.1)


class TestPlateau:
    def test_acceptance_trace(self):
        """[1.0, .9, .91, .92, .93, .94]: one cut, at the final epoch."""
        sched = PlateauScheduler(1e-4, patience=4, kappa=0.1)
        rates = [sched.step(v) for v in [1.0, 0.9, 0.91, 0.92, 0.93, 0.94]]
        assert rates[:5] == [1e-4] * 5
        assert rates[5] == pytest.approx(1e-5)

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(1.0, patience=2, kappa=0.5)
        for v in [1.0, 1.1, 0.9, 1.0]:
            sched.step(v)
        assert sched.lr == 1.0

    def test_equal_loss_is_not_improvement(self):
        sched = PlateauScheduler(1.0, patience=2, kappa=0.5)
        sched.step(1.0)
        sched.step(1.0)
        assert sched.step(1.0) == 0.5

    def test_floor_clamps(self):
        sched = PlateauScheduler(1e-6, patience=1, kappa=0.1)
        sched.step(1.0)
        sched.step(1.0)
        sched.step(1.0)
        assert sched.lr == 1e-7


class TestTrainConfig:
    def test_phi_range_enforced(self):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            TrainConfig(phi=1.5)

    def test_kappa_range_enforced(self):
        with pytest.raises(ConfigError, match="kappa"):
            TrainConfig(kappa=1.0)

    def test_lr_floor_enforced(self):
        assert TrainConfig(lr=LR_FLOOR).lr == LR_FLOOR
        with pytest.raises(ConfigError, match="lr must be >= 1e-07"):
            TrainConfig(lr=LR_FLOOR / 2)

    @pytest.mark.parametrize("lr", [math.inf, math.nan])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be >= 1e-07 and finite"):
            TrainConfig(lr=lr)

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.phi, cfg.lr, cfg.kappa, cfg.patience) == (0.5, 1e-4, 0.1, 4)
        assert (cfg.epochs, cfg.batch_size, cfg.folds) == (30, 4, 5)


class TestBatchOrder:
    def test_gradient_independent_of_sample_order(self):
        """Mean-loss gradients must not depend on intra-batch ordering."""
        net = build(TINY_ARCH, seed=0)
        ds = _tiny_dataset(2)
        a, b = ds.samples[0], ds.samples[4]
        results = []
        for pair in ((a, b), (b, a)):
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                losses = []
                for s in sorted(pair, key=lambda s: s.source_id):
                    out = forward_joint(net, s.image)
                    losses.append(combined_loss(
                        cross_entropy(Tensor(np.eye(3)[s.label]), out.class_probs),
                        mse(s.image, out.reconstruction), 0.5))
                half = Tensor(np.full(2, 0.5, out.image.data.dtype))
                mean = weighted_sum(*losses, half)
            grads = backward(tape, mean)
            results.append({n: grads[p] for n, p in net.params.items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])


class TestBatchedStep:
    def test_batch_gradient_is_mean_of_sample_gradients(self):
        """One tape over a stacked batch gives the mean of the per-image
        gradients, for distinct images and labels."""
        net = build(ArchConfig(n_stages=2, input_channels=1, input_size=16,
                               base_channels=4, n_classes=3), seed=0, dtype=np.float64)
        rng = np.random.default_rng(8)
        images = rng.uniform(0.0, 1.0, (3, 1, 16, 16))
        labels = np.eye(3)[[2, 0, 1]]

        def loss_and_grads(x, y):
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                out = forward_joint(net, Tensor(x))
                loss = combined_loss(cross_entropy(Tensor(y), out.class_probs),
                                     mse(Tensor(x), out.reconstruction), 0.5)
            grads = backward(tape, loss)
            return loss.item(), {n: grads[p] for n, p in net.params.items()}

        batch_loss, batch_grads = loss_and_grads(images, labels)
        singles = [loss_and_grads(images[i], labels[i]) for i in range(3)]
        assert batch_loss == pytest.approx(sum(l for l, _ in singles) / 3, rel=1e-12)
        for name, got in batch_grads.items():
            want = sum(g[name] for _, g in singles) / 3
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("mode", ["joint", "backbone"])
    def test_validation_runs_one_forward_per_chunk(self, monkeypatch, mode):
        from jointnet import training
        from jointnet.tensor import active_tape

        name = "forward_joint" if mode == "joint" else "forward_backbone"
        original = getattr(training, name)
        calls = {"taped": [], "untaped": []}

        def counting(net, images):
            key = "untaped" if active_tape() is None else "taped"
            assert images.shape[:1] == net.stack == (1,)
            calls[key].append(images.shape[1])
            return original(net, images)

        monkeypatch.setattr(training, name, counting)
        train(build(TINY_ARCH, seed=0), _tiny_dataset(3), _tiny_dataset(2, seed=9),
              TrainConfig(epochs=2, batch_size=4, seed=0, mode=mode))
        # 9 training samples make batches of 4, 4, 1; 6 validation
        # samples make chunks of 4 and 2; one forward pass each
        assert calls["taped"] == [4, 4, 1] * 2
        assert calls["untaped"] == [4, 2] * 2


# The traced peak of one float64 recipe joint step, tape and backward (a
# float32 step takes half the bytes and would hide the regressions below):
# 2.43 MiB, the forward pass's own peak, when backward frees each array
# after its last reader; 3.18 MiB when backward held each node, its output
# gradient and the previous node's input gradients through the next rule
# (3.57 MiB with a conv2d, an upsample2x2 and an add per decoder stage, and
# 4.84 MiB when the tape also held every activation until the pass ended).
STEP_PEAK_BOUND = int(2.5 * 2**20)
# The arrays a float64 recipe joint tape holds once its forward pass and
# loss are recorded: 1.88 MiB with fused decoder stages, 3.13 MiB when each
# stage also kept its conv output and its upsampled map.
TAPE_HELD_BOUND = int(2.0 * 2**20)


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_held_bytes(tape: Tape, params) -> int:
    """Bytes of the distinct base arrays that the tape's nodes reference
    through their inputs, their outputs and their backward closures'
    cells (followed into nested closures), the parameters' excluded."""
    excluded = {id(_base(p.data)) for p in params}
    held: dict[int, np.ndarray] = {}
    seen: set[int] = set()

    def visit(obj):
        if isinstance(obj, Tensor):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            base = _base(obj)
            if id(base) not in excluded:
                held[id(base)] = base
        elif callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in getattr(obj, "__closure__", None) or ():
                visit(cell.cell_contents)

    for node in tape.nodes:
        for t in node.inputs + (node.output,):
            visit(t)
        visit(node.backward)
    return sum(a.nbytes for a in held.values())


class TestStepMemory:
    @staticmethod
    def _recipe(models: int = 1):
        """The recording of a float64 recipe joint step of a stack of
        ``models`` models, as training runs it, each with its own batch of 4."""
        net = stacked([build(ArchConfig(n_stages=2, input_size=32, base_channels=8),
                             seed=f, dtype=np.float64) for f in range(models)])
        rng = np.random.default_rng(0)
        images = Tensor(rng.uniform(0.0, 1.0, (models, 4, 3, 32, 32)))
        labels = np.array([[0, 1, 2, 0], [2, 2, 1, 0], [1, 0, 0, 2]][:models])
        config = TrainConfig(phi=0.5)

        def record():
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                loss = _batch_losses(net, images, labels, config)[0]
            return tape, loss

        return net, record

    def test_recipe_joint_step_peak(self):
        """One training step at the recipe (batch 4, 32 px, 2 stages, base
        width 8, phi 0.5) stays under a bound that a backward holding each
        node and gradient past its last reader exceeds."""
        _, record = self._recipe()
        peak = traced_peak(lambda: backward(*record()))
        assert peak <= STEP_PEAK_BOUND, f"one joint step peaked at {peak} bytes"

    def test_recipe_joint_backward_peaks_below_its_forward_pass(self):
        """Backward frees each map and gradient after its last reader, so a
        recipe joint step's backward pass (counting the tape it consumes)
        peaks no higher than the forward pass and loss that recorded the
        tape: 2.31 against 2.43 MiB. Holding each node, its output gradient
        and the previous input gradients through the next rule read 3.18."""
        _, record = self._recipe()
        forward, back = traced_peaks(record, lambda recorded: backward(*recorded))
        assert back <= forward, f"backward peaked at {back} bytes, forward at {forward}"

    def test_recipe_joint_tape_holds_no_intermediate_map(self):
        """After the forward pass and the loss, a recipe joint tape has 18
        nodes and holds no more arrays than the fused decoder needs: a
        decoder stage that kept its conv output or its upsampled map would
        exceed the bound."""
        net, record = self._recipe()
        tape, _ = record()
        assert len(tape.nodes) == 18
        held = tape_held_bytes(tape, net.params.values())
        assert held <= TAPE_HELD_BOUND, f"the tape holds {held} bytes"

    def test_group_of_two_step_peak(self):
        """A lockstep step of two recipe models holds two models' maps, and
        no more: within twice the one-model bounds, with the same 18 nodes."""
        net, record = self._recipe(models=2)
        peak = traced_peak(lambda: backward(*record()))
        assert peak <= 2 * STEP_PEAK_BOUND, f"a group step peaked at {peak} bytes"
        tape, _ = record()
        assert len(tape.nodes) == 18
        held = tape_held_bytes(tape, net.params.values())
        assert held <= 2 * TAPE_HELD_BOUND, f"the group's tape holds {held} bytes"


class TestTrainLoop:
    def test_learns_tiny_problem(self):
        ds = _tiny_dataset(6)
        val = _tiny_dataset(2, seed=9)
        net = build(TINY_ARCH, seed=0)
        cfg = TrainConfig(epochs=8, batch_size=4, seed=0, lr=1e-3)
        result = train(net, ds, val, cfg)
        assert result.log[-1].train_loss < result.log[0].train_loss
        assert len(result.log) == 8
        assert result.checkpoint.epoch == min(
            range(1, 9), key=lambda e: result.log[e - 1].val_loss)

    def test_deterministic_repeat(self):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=1)
        runs = []
        for _ in range(2):
            net = build(TINY_ARCH, seed=1)
            runs.append(train(net, _tiny_dataset(4), _tiny_dataset(2, seed=9),
                              cfg))
        for e1, e2 in zip(runs[0].log, runs[1].log):
            assert (e1.train_loss, e1.val_loss) == (e2.train_loss, e2.val_loss)
        for name in runs[0].checkpoint.params:
            np.testing.assert_array_equal(runs[0].checkpoint.params[name],
                                          runs[1].checkpoint.params[name])

    def test_backbone_mode_logs_zero_lu(self):
        result = train(build(TINY_ARCH, seed=0), _tiny_dataset(4),
                       _tiny_dataset(2, seed=9),
                       TrainConfig(epochs=1, seed=0, mode="backbone"))
        assert result.log[0].train_lu == 0.0

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(build(TINY_ARCH, seed=0),
                  Dataset(np.empty((0, 1, 16, 16)), [], [], ["a", "b", "c"]),
                  _tiny_dataset(1), TrainConfig(epochs=1))

    @pytest.mark.parametrize("role, row, label", [("training", 0, 7),
                                                   ("validation", 1, -1),
                                                   ("validation", 2, 3)])
    def test_label_out_of_range_rejected(self, role, row, label):
        """The message names the first offending sample's source."""
        good = _tiny_dataset(1)
        labels = good.labels.copy()
        labels[row:] = label
        bad = Dataset(good.images, labels, good.sources, good.class_names)
        sets = (bad, good) if role == "training" else (good, bad)
        want = (f"{role} sample '{good.sources[row]}' has label {label}, "
                f"outside 0..2")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            train(build(TINY_ARCH, seed=0), *sets, TrainConfig(epochs=1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            TrainConfig(epochs=1, mode="hybrid")

    def test_non_finite_gradient_names_the_parameter(self, monkeypatch):
        """A non-finite gradient reaches the optimizer, which names its
        parameter; the tape does not stop it earlier."""
        from jointnet import training
        from jointnet.tensor import record

        original = training.forward_joint

        def with_bad_op(net, images):
            out = original(net, images)
            bias = net.params["recon.conv.b"]
            recon = Tensor(out.reconstruction.data)
            # passes the reconstruction through; its gradient for the
            # bias is infinite
            record("bad_grad", (out.reconstruction, bias), recon,
                   lambda g: (g, np.full(bias.shape, np.inf)))
            return dataclasses.replace(out, reconstruction=recon)

        monkeypatch.setattr(training, "forward_joint", with_bad_op)
        with pytest.raises(NumericError,
                           match="non-finite gradient for parameter 'recon.conv.b'"):
            train(build(TINY_ARCH, seed=0), _tiny_dataset(2),
                  _tiny_dataset(1, seed=9), TrainConfig(epochs=1))


class TestPhiOne:
    """At phi = 1 the reconstruction term is scaled by exactly zero, so joint
    mode trains the backbone's encoder and classifier bit for bit, and at
    phi < 1 joint minus backbone is the effect of (1 - phi) L_u alone."""

    @staticmethod
    def _train(mode: str, phi: float):
        net = build(TINY_ARCH, seed=0)
        result = train(net, _tiny_dataset(4), _tiny_dataset(2, seed=9),
                       TrainConfig(phi=phi, epochs=3, batch_size=4, seed=0, mode=mode))
        groups = net.parameter_groups()
        shared = {name: net.params[name].data
                  for name in groups["encoder"] + groups["classifier"]}
        return result, shared

    def test_joint_at_phi_one_trains_the_backbone_classifier(self):
        joint, joint_params = self._train("joint", 1.0)
        backbone, backbone_params = self._train("backbone", 1.0)
        for name in joint_params:
            assert np.array_equal(joint_params[name], backbone_params[name]), name
        assert len(joint.log) == len(backbone.log) == 3
        for j, b in zip(joint.log, backbone.log):
            assert (j.val_loss, j.val_accuracy) == (b.val_loss, b.val_accuracy)
            assert j.train_ls == b.train_loss
        assert joint.checkpoint.epoch == backbone.checkpoint.epoch

    def test_joint_below_phi_one_trains_another_classifier(self):
        """The check above has power: with L_u in the blend, the shared
        tensors move away from the backbone's."""
        _, joint_params = self._train("joint", 0.5)
        _, backbone_params = self._train("backbone", 0.5)
        assert not all(np.array_equal(joint_params[name], backbone_params[name])
                       for name in joint_params)


class TestKFold:
    def test_folds_cover_and_select_best(self):
        ds = _tiny_dataset(6)
        result = kfold_train(ds, TINY_ARCH,
                             TrainConfig(epochs=2, folds=3, seed=0, batch_size=4))
        assert len(result.folds) == 3
        best = result.folds[result.best_fold]
        assert all(best.val_accuracy >= f.val_accuracy or
                   (best.val_accuracy == f.val_accuracy and
                    best.checkpoint.best_val_loss <= f.checkpoint.best_val_loss)
                   for f in result.folds)

    def test_fold_seeds_offset_by_fold(self, monkeypatch):
        from jointnet import training
        seen = []
        original = training._train_group

        def recording(net, sets, config, seeds):
            seen.append((config, seeds))
            return original(net, sets, config, seeds)

        monkeypatch.setattr(training, "_train_group", recording)
        config = TrainConfig(epochs=1, folds=2, seed=5, lr=1e-3, batch_size=3)
        kfold_train(_tiny_dataset(2), TINY_ARCH, config)
        assert seen == [(config, [5, 6])]

    @staticmethod
    def _best_of(monkeypatch, scores) -> int:
        """kfold_train's pick when fold f's best epoch (the second of two)
        has ``scores[f]`` = (val_accuracy, val_loss). Epoch 1 reads a
        higher accuracy, so only the best epoch's accuracy gives the
        intended ranking."""
        from jointnet import Checkpoint, EpochLog, TrainResult, training
        canned = iter(
            TrainResult(Checkpoint(TINY_ARCH, {}, 2, loss),
                        [EpochLog(1, 1.0, 1.0, 0.0, loss + 1.0, 1.0, 1e-3, 0.5),
                         EpochLog(2, 1.0, 1.0, 0.0, loss, accuracy, 1e-3, 0.5)])
            for accuracy, loss in scores)
        monkeypatch.setattr(training, "_train_group",
                            lambda net, sets, config, seeds: [next(canned) for _ in seeds])
        result = kfold_train(_tiny_dataset(len(scores)), TINY_ARCH,
                             TrainConfig(epochs=2, folds=len(scores), seed=0))
        assert len(result.folds) == len(scores)
        return result.best_fold

    def test_accuracy_tie_goes_to_lower_loss(self, monkeypatch):
        assert self._best_of(monkeypatch,
                             [(0.5, 0.1), (0.75, 0.9), (0.75, 0.4)]) == 2

    def test_full_tie_goes_to_earlier_fold(self, monkeypatch):
        assert self._best_of(monkeypatch,
                             [(0.75, 0.4), (0.75, 0.3), (0.75, 0.3)]) == 1

    def test_fold_sets_share_the_dataset_array(self, monkeypatch):
        """Every fold's training and validation set holds rows of the
        dataset's one image array, not a copy."""
        dataset = _tiny_dataset(4)
        seen = []
        original = training._train_group

        def recording(net, sets, config, seeds):
            seen.extend(sets)
            return original(net, sets, config, seeds)

        monkeypatch.setattr(training, "_train_group", recording)
        kfold_train(dataset, TINY_ARCH, TrainConfig(epochs=1, folds=2, seed=0))
        assert len(seen) == 2
        for train_set, val_set in seen:
            assert train_set.images is dataset.images and val_set.images is dataset.images
            assert sorted(train_set.rows.tolist() + val_set.rows.tolist()) == list(range(12))

    def test_class_smaller_than_folds_rejected(self):
        from jointnet import DataError
        ds = _tiny_dataset(2)
        with pytest.raises(DataError, match="fewer"):
            kfold_train(ds, TINY_ARCH, TrainConfig(epochs=1, folds=3, seed=0))


def _alone(dataset: Dataset, arch: ArchConfig, config: TrainConfig):
    """Each fold of ``kfold_train`` trained on its own with ``train``."""
    return [train(build(arch, seed=config.seed + f), dataset.subset(train_idx),
                  dataset.subset(val_idx), replace(config, seed=config.seed + f))
            for f, (train_idx, val_idx) in enumerate(
                stratified_folds(dataset, config.folds, config.seed))]


def assert_same_results(got, expected, tmp_path):
    """Bit-identical checkpoint files and logs, model by model."""
    assert len(got) == len(expected)
    for f, (a, b) in enumerate(zip(got, expected)):
        save_checkpoint(a.checkpoint, tmp_path / "got.ckpt")
        save_checkpoint(b.checkpoint, tmp_path / "expected.ckpt")
        assert ((tmp_path / "got.ckpt").read_bytes()
                == (tmp_path / "expected.ckpt").read_bytes()), f"model {f}"
        assert [repr(astuple(e)) for e in a.log] == [repr(astuple(e)) for e in b.log], f


def _recording_groups(monkeypatch) -> list[list[int]]:
    """Patch ``_train_group`` to record each group's seeds."""
    groups = []
    original = training._train_group

    def recording(net, sets, config, seeds):
        groups.append(seeds)
        return original(net, sets, config, seeds)

    monkeypatch.setattr(training, "_train_group", recording)
    return groups


def _uneven_dataset(counts) -> Dataset:
    """``_tiny_dataset``'s images with ``counts[c]`` samples of class c."""
    full = _tiny_dataset(max(counts))
    per_class = max(counts)
    return full.subset([c * per_class + i for c, n in enumerate(counts) for i in range(n)])


class TestLockstep:
    """A group of folds trained on one tape gives, fold for fold, the
    checkpoint bytes and the log of training each fold alone."""

    # recipe width at 32 px: one eval chunk holds 10 float32 images, so at
    # batch 4 a group holds 2 folds
    ARCH = ArchConfig()

    @pytest.mark.parametrize("mode", ["joint", "backbone"])
    def test_kfold_float32_matches_folds_alone(self, monkeypatch, tmp_path, mode):
        """Three equal folds at group size 2: a group of two, then the odd
        fold alone."""
        dataset = synth_generate(3, 32, seed=4)
        config = TrainConfig(epochs=2, folds=3, seed=2, batch_size=4, lr=1e-3, mode=mode)
        groups = _recording_groups(monkeypatch)
        result = kfold_train(dataset, self.ARCH, config)
        assert groups == [[2, 3], [4]]
        assert_same_results(result.folds, _alone(dataset, self.ARCH, config), tmp_path)

    @pytest.mark.parametrize("mode", ["joint", "backbone"])
    def test_group_float64_matches_models_alone(self, tmp_path, mode):
        dataset = synth_generate(3, 32, seed=5)
        config = TrainConfig(epochs=2, batch_size=4, seed=7, lr=1e-3, mode=mode)
        seeds = [7, 8, 9]
        sets = [(dataset.subset(train_idx), dataset.subset(val_idx))
                for train_idx, val_idx in stratified_folds(dataset, 3, seed=1)]

        def net(seed):
            return build(self.ARCH, seed=seed, dtype=np.float64)

        stack = stacked([net(s) for s in seeds])
        grouped = training._train_group(stack, sets, config, seeds)
        alone = [train(net(s), t, v, replace(config, seed=s))
                 for s, (t, v) in zip(seeds, sets)]
        assert {a.dtype for r in grouped for a in r.checkpoint.params.values()} == {
            np.dtype(np.float64)}
        assert_same_results(grouped, alone, tmp_path)

    def test_plateau_cut_in_one_model_only(self, tmp_path):
        """Each model keeps its own schedule: here the second model's
        validation loss stalls and its rate is cut, the first's is not."""
        config = TrainConfig(epochs=6, batch_size=4, seed=0, lr=0.03, patience=1,
                             kappa=0.5)
        seeds = [0, 1]
        sets = [(_tiny_dataset(3), _tiny_dataset(2, seed=9))] * 2

        def net(seed):
            return build(TINY_ARCH, seed=seed, dtype=np.float64)

        stack = stacked([net(s) for s in seeds])
        grouped = training._train_group(stack, sets, config, seeds)
        assert {e.lr for e in grouped[0].log} == {0.03}
        assert len({e.lr for e in grouped[1].log}) > 1
        alone = [train(net(s), *pair, replace(config, seed=s))
                 for s, pair in zip(seeds, sets)]
        assert_same_results(grouped, alone, tmp_path)

    @pytest.mark.parametrize("counts,expected", [
        ((4, 5, 3), [[0], [1], [2]]),  # training sets of 7, 8 and 9
        ((5, 5, 5), [[0, 1], [2]]),  # 9, 9 and 12
    ])
    def test_unequal_folds_train_apart(self, monkeypatch, tmp_path, counts, expected):
        dataset = _uneven_dataset(counts)
        config = TrainConfig(epochs=2, folds=3, seed=0, batch_size=4)
        groups = _recording_groups(monkeypatch)
        result = kfold_train(dataset, TINY_ARCH, config)
        assert groups == expected
        assert_same_results(result.folds, _alone(dataset, TINY_ARCH, config), tmp_path)

    def test_group_size_follows_the_eval_chunk(self, monkeypatch):
        """At most ``predict_chunk // batch_size`` folds share a group: 2 for
        the float32 recipe at batch 4, and one fold per group at batch 8."""
        dataset = synth_generate(4, 32, seed=6)
        for batch_size, expected in ((4, [[0, 1], [2, 3]]), (8, [[0], [1], [2], [3]])):
            groups = _recording_groups(monkeypatch)
            kfold_train(dataset, self.ARCH, TrainConfig(epochs=1, folds=4, seed=0,
                                                        batch_size=batch_size))
            assert groups == expected

    @pytest.mark.parametrize("models, seeds", [(2, [0]), (1, [0, 1])])
    def test_group_needs_one_model_per_seed(self, models, seeds):
        net = stacked([build(TINY_ARCH, seed=f) for f in range(models)])
        with pytest.raises(ValueError, match="stack of"):
            training._train_group(net, [(_tiny_dataset(1), _tiny_dataset(1))] * len(seeds),
                                  TrainConfig(epochs=1), seeds)

    def test_group_networks_are_built_when_the_group_starts(self, monkeypatch):
        """The four recipe folds make two groups of two, and each group's
        two networks are built just before it trains."""
        calls = []
        build_, train_group = training.build, training._train_group

        def recording_build(*args, **kwargs):
            calls.append("build")
            return build_(*args, **kwargs)

        def recording_group(*args):
            calls.append("group")
            return train_group(*args)

        monkeypatch.setattr(training, "build", recording_build)
        monkeypatch.setattr(training, "_train_group", recording_group)
        kfold_train(synth_generate(4, 32, seed=6), self.ARCH,
                    TrainConfig(epochs=1, folds=4, seed=0, batch_size=4))
        assert calls == ["build", "build", "group"] * 2

    def test_checkpoints_share_no_memory(self):
        """Each fold's best checkpoint owns its arrays and shares no memory
        with another fold's. A view of its row of the stack that trained
        it would overlap no other fold's row, but would keep the whole
        stack, the other folds' parameters with it, alive: its base shows
        it."""
        result = kfold_train(synth_generate(4, 32, seed=6), self.ARCH,
                             TrainConfig(epochs=2, folds=4, seed=0, batch_size=4))
        params = [fold.checkpoint.params for fold in result.folds]
        for f, mine in enumerate(params):
            assert all(a.base is None for a in mine.values())
            for other in params[f + 1:]:
                assert not any(np.shares_memory(a, b)
                               for a in mine.values() for b in other.values())


# sha256 of ``_train_digest(mode)`` as the unstacked training loop of
# earlier versions gave it, where the numeric environment is the golden
# manifest's: training a network as a stack of one changed no byte.
UNSTACKED_DIGESTS = {
    "joint": "ac879c9cef1f75367fb7a3513d50199eddb63ba5c3dcbf56b32dc7cbb3e9448b",
    "backbone": "2bf2aa70a977f13eeacf7188042a1d7db8cb6872832616c5338232eb0a95e4fe",
}


def _train_digest(mode: str, tmp_path) -> str:
    """sha256 of a recipe ``train`` run: its checkpoint file, its log and
    the network's final parameters, which differ from the checkpoint's,
    as the best epoch is not the last. The joint run also cuts its rate."""
    net = build(ArchConfig(), seed=3)
    result = train(net, synth_generate(3, 32, seed=11), synth_generate(2, 32, seed=12),
                   TrainConfig(epochs=4, batch_size=4, seed=3, lr=3e-2, patience=1,
                               mode=mode))
    digest = hashlib.sha256()
    save_checkpoint(result.checkpoint, tmp_path / "m.ckpt")
    digest.update((tmp_path / "m.ckpt").read_bytes())
    for e in result.log:
        digest.update(repr(astuple(e)).encode())
    for p in net.params.values():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mode", ["joint", "backbone"])
def test_train_bytes_match_the_unstacked_loop(tmp_path, mode):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    if golden.fingerprint() != manifest["fingerprint"]:
        pytest.skip("the numeric environment is not the golden manifest's")
    assert _train_digest(mode, tmp_path) == UNSTACKED_DIGESTS[mode]
