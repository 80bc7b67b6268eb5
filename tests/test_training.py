"""Losses, optimizer, scheduler, and the training loops."""

import numpy as np
import pytest

from jointnet import (Adam, ArchConfig, ConfigError, NumericError,
                      PlateauScheduler, Tape, Tensor, TrainConfig, add,
                      backward, build, combined_loss, cross_entropy,
                      forward_joint, kfold_train, mse, scale, train)
from jointnet.data import Dataset, Sample
from jointnet.training import LR_FLOOR

TINY_ARCH = ArchConfig(n_stages=1, input_channels=1, input_size=16,
                       base_channels=2, n_classes=3)


def _tiny_dataset(n_per_class: int, seed: int = 0) -> Dataset:
    """Random images whose mean brightness encodes the class."""
    rng = np.random.default_rng(seed)
    samples = []
    for label, level in enumerate((0.2, 0.5, 0.8)):
        for i in range(n_per_class):
            img = np.clip(rng.normal(level, 0.05, (1, 16, 16)), 0.0, 1.0)
            samples.append(Sample(Tensor(img), label, f"tiny/{label}/{i}"))
    return Dataset(samples, ["dark", "mid", "bright"])


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


class TestLossRouting:
    """The blend endpoints must route exact zeros, not merely small values."""

    @pytest.mark.parametrize("seed", range(10))
    def test_endpoint_gradients_and_midpoint_value(self, seed):
        net = build(TINY_ARCH, seed=seed)
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
            by_name = {name: grads[p].data for name, p in net.params.items()}
            if phi == 1.0:
                for name in groups["decoder"]:
                    assert np.all(by_name[name] == 0.0), name
            if phi == 0.0:
                for name in groups["classifier"]:
                    assert np.all(by_name[name] == 0.0), name
                assert any(np.any(by_name[n] != 0.0) for n in groups["encoder"])
        assert abs(values[0.5] - (values[0.0] + values[1.0]) / 2.0) <= 1e-12


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
                total = None
                for s in sorted(pair, key=lambda s: s.source_id):
                    out = forward_joint(net, s.image)
                    loss = combined_loss(
                        cross_entropy(Tensor(np.eye(3)[s.label]), out.class_probs),
                        mse(s.image, out.reconstruction), 0.5)
                    total = loss if total is None else add(total, loss)
                batch_loss = scale(total, 0.5)
            grads = backward(tape, batch_loss)
            results.append({n: grads[p].data for n, p in net.params.items()})
        for name in results[0]:
            np.testing.assert_array_equal(results[0][name], results[1][name])


class TestBatchedStep:
    def test_batch_gradient_is_mean_of_sample_gradients(self):
        """One tape over a stacked batch gives the mean of the per-image
        gradients, for distinct images and labels."""
        net = build(ArchConfig(n_stages=2, input_channels=1, input_size=16,
                               base_channels=4, n_classes=3), seed=0)
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
            return loss.item(), {n: grads[p].data for n, p in net.params.items()}

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
            calls[key].append(images.shape[0])
            return original(net, images)

        monkeypatch.setattr(training, name, counting)
        train(build(TINY_ARCH, seed=0), _tiny_dataset(3), _tiny_dataset(2, seed=9),
              TrainConfig(epochs=2, batch_size=4, seed=0), mode=mode)
        # 9 training samples make batches of 4, 4, 1; 6 validation
        # samples make chunks of 4 and 2; one forward pass each
        assert calls["taped"] == [4, 4, 1] * 2
        assert calls["untaped"] == [4, 2] * 2


class TestTrainLoop:
    def test_learns_tiny_problem(self):
        ds = _tiny_dataset(6)
        val = _tiny_dataset(2, seed=9)
        net = build(TINY_ARCH, seed=0)
        cfg = TrainConfig(epochs=8, batch_size=4, seed=0, lr=1e-3)
        result = train(net, ds, val, cfg, mode="joint")
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
                              cfg, mode="joint"))
        for e1, e2 in zip(runs[0].log, runs[1].log):
            assert (e1.train_loss, e1.val_loss) == (e2.train_loss, e2.val_loss)
        for name in runs[0].checkpoint.params:
            np.testing.assert_array_equal(runs[0].checkpoint.params[name],
                                          runs[1].checkpoint.params[name])

    def test_backbone_mode_logs_zero_lu(self):
        result = train(build(TINY_ARCH, seed=0), _tiny_dataset(4),
                       _tiny_dataset(2, seed=9),
                       TrainConfig(epochs=1, seed=0), mode="backbone")
        assert result.log[0].train_lu == 0.0

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(build(TINY_ARCH, seed=0), Dataset([], ["a", "b", "c"]),
                  _tiny_dataset(1), TrainConfig(epochs=1))

    def test_label_out_of_range_rejected(self):
        bad = _tiny_dataset(2)
        bad.samples[0].label = 7
        with pytest.raises(ValueError, match="label"):
            train(build(TINY_ARCH, seed=0), bad, _tiny_dataset(1),
                  TrainConfig(epochs=1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            train(build(TINY_ARCH, seed=0), _tiny_dataset(2), _tiny_dataset(1),
                  TrainConfig(epochs=1), mode="hybrid")


class TestKFold:
    def test_folds_cover_and_select_best(self):
        ds = _tiny_dataset(6)
        result = kfold_train(ds, TINY_ARCH,
                             TrainConfig(epochs=2, folds=3, seed=0, batch_size=4))
        assert len(result.folds) == 3
        assert result.best_fold == result.folds[result.best_fold].fold
        best = result.folds[result.best_fold]
        assert all(best.val_accuracy >= f.val_accuracy or
                   (best.val_accuracy == f.val_accuracy and
                    best.val_loss <= f.val_loss)
                   for f in result.folds)

    def test_fold_seeds_offset_by_fold(self, monkeypatch):
        from jointnet import training
        seen = []
        original = training.train

        def recording(net, train_set, val_set, config, mode="joint"):
            seen.append(config)
            return original(net, train_set, val_set, config, mode=mode)

        monkeypatch.setattr(training, "train", recording)
        config = TrainConfig(epochs=1, folds=2, seed=5, lr=1e-3, batch_size=3)
        kfold_train(_tiny_dataset(2), TINY_ARCH, config)
        assert [c.seed for c in seen] == [5, 6]
        assert all(c == TrainConfig(epochs=1, folds=2, seed=c.seed, lr=1e-3,
                                    batch_size=3) for c in seen)

    def test_class_smaller_than_folds_rejected(self):
        from jointnet import DataError
        ds = _tiny_dataset(2)
        with pytest.raises(DataError, match="fewer"):
            kfold_train(ds, TINY_ARCH, TrainConfig(epochs=1, folds=3, seed=0))
