"""Release gate: the nine shipping checks, one test per check.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per check;
add -s for the measured numbers. Checks 6 and 7 train real networks and
dominate the runtime (a few minutes total).
"""

import time

import numpy as np
import pytest

from jointnet import (ArchConfig, MetricsReport, PlateauScheduler, Tape,
                      Tensor, TrainConfig, backward, build, combined_loss,
                      compare_report, confusion, cross_entropy, evaluate,
                      forward_backbone, forward_joint, load_checkpoint,
                      metrics, mse, save_checkpoint, synth_generate,
                      to_network, train)
from jointnet.cli import main as cli_main

# Frozen robustness-check recipe: clean training runs short enough that
# neither mode overfits the noiseless regime before evaluation on the
# perturbed split.
WILD_TRAIN_PER_CLASS = 60
WILD_EPOCHS = 12
WILD_SEEDS = range(5)


def test_1_gradient_battery(reference_battery):
    results, elapsed = reference_battery
    worst = max(r.max_relative_error for r in results)
    assert all(r.passed for r in results), \
        [r.name for r in results if not r.passed]
    assert worst <= 1e-4
    assert elapsed < 60.0
    print(f"\n[gate 1] gradient battery: {len(results)} checks, "
          f"max rel err {worst:.3e} <= 1e-4 in {elapsed:.1f}s")


def test_2_blend_endpoint_routing():
    arch = ArchConfig(n_stages=1, input_channels=1, input_size=16,
                      base_channels=2, n_classes=3)
    for seed in range(10):
        net = build(arch, seed=seed)
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
                    assert np.all(by_name[name] == 0.0), (seed, name)
            if phi == 0.0:
                for name in groups["classifier"]:
                    assert np.all(by_name[name] == 0.0), (seed, name)
        assert abs(values[0.5] - (values[0.0] + values[1.0]) / 2.0) <= 1e-12
    print("\n[gate 2] blend routing: exact zeros at both endpoints and "
          "midpoint value within 1e-12, 10 seeds")


def test_3_shape_audit():
    audited = 0
    for n in (1, 2, 3):
        for size in (16, 32, 64):
            if size % 2 ** (n + 1) != 0:
                continue
            arch = ArchConfig(n_stages=n, input_channels=3, input_size=size)
            net = build(arch, seed=0)
            rng = np.random.default_rng(size + n)
            out = forward_joint(net, Tensor(rng.uniform(0, 1, (3, size, size))))
            assert out.reconstruction.shape == (3, size, size)
            assert len(out.attention_maps) == n
            cb = arch.bottleneck_channels
            for i in range(1, n + 1):
                side = size // 2 ** (n - i)
                assert out.attention_maps[i - 1].shape == (cb, side, side)
                # fusion is well-posed only if the skip conv emits the same
                # depth the upsample carries (the bottleneck width)
                assert net.params[f"dec{i}.skip.w"].shape[0] == cb
            audited += 1
    assert audited == 9
    print(f"\n[gate 3] shape audit: {audited} configurations, decoder map i "
          "at input/2^(n-i), reconstruction at input shape, fused depths equal")


def brute_force_counts(counts: np.ndarray):
    k = counts.shape[0]
    sens, spec = [], []
    for c in range(k):
        tp = fn = fp = tn = 0
        for i in range(k):
            for j in range(k):
                v = int(counts[i, j])
                if i == c and j == c:
                    tp += v
                elif i == c:
                    fn += v
                elif j == c:
                    fp += v
                else:
                    tn += v
        sens.append(tp / (tp + fn) if tp + fn else 0.0)
        spec.append(tn / (tn + fp) if tn + fp else 0.0)
    accuracy = sum(int(counts[i, i]) for i in range(k)) / counts.sum()
    return accuracy, sum(sens) / k, sum(spec) / k


def test_4_metrics_against_recount():
    from jointnet import ConfusionMatrix
    rng = np.random.default_rng(4)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        counts = rng.integers(0, 50, (k, k))
        while counts.sum() == 0:
            counts = rng.integers(0, 50, (k, k))
        report = metrics(ConfusionMatrix(counts.astype(np.int64)))
        acc, sens, spec = brute_force_counts(counts)
        assert abs(report.accuracy - acc) <= 1e-12
        assert abs(report.sensitivity - sens) <= 1e-12
        assert abs(report.specificity - spec) <= 1e-12
    fixed = metrics(ConfusionMatrix(np.array([[50, 10], [5, 35]])))
    assert fixed.accuracy == pytest.approx(0.85, abs=1e-12)
    assert fixed.sensitivity == pytest.approx(0.854167, abs=1e-6)
    assert fixed.specificity == pytest.approx(0.854167, abs=1e-6)
    print("\n[gate 4] metrics: 1000 random matrices match a brute-force "
          "recount to 1e-12; [[50,10],[5,35]] -> 0.85 / 0.854167 / 0.854167")


def test_5_scheduler_single_cut():
    sched = PlateauScheduler(1e-4, patience=4, kappa=0.1)
    rates = [sched.step(v) for v in [1.0, 0.9, 0.91, 0.92, 0.93, 0.94]]
    assert rates[:5] == [1e-4] * 5
    assert rates[5] == pytest.approx(1e-5, rel=1e-12)
    assert sum(1 for a, b in zip(rates, rates[1:]) if b != a) == 1
    print("\n[gate 5] scheduler: exactly one cut, 1e-4 -> 1e-5 at the "
          "final epoch")


def test_6_synthetic_learnability():
    start = time.monotonic()
    train_set = synth_generate(100, 32, "none", seed=0)
    val_set = synth_generate(30, 32, "none", seed=1)
    net = build(ArchConfig(), seed=0)
    result = train(net, train_set, val_set, TrainConfig(epochs=30, seed=0),
                   mode="joint")
    elapsed = time.monotonic() - start
    best = result.log[result.checkpoint.epoch - 1]
    assert best.val_accuracy >= 0.95
    assert result.log[-1].train_lu < result.log[0].train_lu
    assert elapsed < 900.0
    print(f"\n[gate 6] learnability: val accuracy {best.val_accuracy:.3f} "
          f">= 0.95 at epoch {result.checkpoint.epoch}; train L_u "
          f"{result.log[0].train_lu:.4f} -> {result.log[-1].train_lu:.4f} "
          f"in {elapsed:.0f}s")


def test_7_wild_robustness_direction():
    wild = synth_generate(100, 32, "wild", seed=100)
    arch = ArchConfig()
    accs = {}
    for mode in ("joint", "backbone"):
        accs[mode] = []
        for s in WILD_SEEDS:
            train_set = synth_generate(WILD_TRAIN_PER_CLASS, 32, "none", seed=s)
            val_set = synth_generate(20, 32, "none", seed=50 + s)
            net = build(arch, seed=s)
            result = train(net, train_set, val_set,
                           TrainConfig(epochs=WILD_EPOCHS, seed=s), mode=mode)
            accs[mode].append(
                evaluate(to_network(result.checkpoint), wild)[1].accuracy)
    means = {mode: sum(v) / len(v) for mode, v in accs.items()}
    assert means["joint"] >= means["backbone"]
    per_seed = {m: [round(a, 3) for a in v] for m, v in accs.items()}
    print(f"\n[gate 7] wild robustness: joint {means['joint']:.4f} >= "
          f"backbone {means['backbone']:.4f} over {len(accs['joint'])} seeds "
          f"(joint {per_seed['joint']}, backbone {per_seed['backbone']})")


TINY_CONFIG = """\
n_stages = 1
input_channels = 1
input_size = 16
base_channels = 2
epochs = 2
folds = 2
lr = 0.001
"""


def test_8_determinism_and_persistence(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data_dir), "--per-class", "6",
                     "--size", "16", "--seed", "3"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    artifacts = []
    for run in ("a", "b"):
        ckpt, log = tmp_path / f"{run}.ckpt", tmp_path / f"{run}.log"
        assert cli_main(["train", "--data", str(data_dir), "--config",
                         str(cfg), "--out", str(ckpt), "--log", str(log)]) == 0
        artifacts.append((ckpt.read_bytes(), log.read_bytes()))
    assert artifacts[0] == artifacts[1]

    ckpt = load_checkpoint(tmp_path / "a.ckpt")
    probe = synth_generate(5, 16, "wild", seed=9, channels=1)
    pre = [forward_backbone(to_network(ckpt), s.image).data for s in probe.samples]
    save_checkpoint(ckpt, tmp_path / "resaved.ckpt")
    reloaded = load_checkpoint(tmp_path / "resaved.ckpt")
    post = [forward_backbone(to_network(reloaded), s.image).data
            for s in probe.samples]
    for a, b in zip(pre, post):
        np.testing.assert_array_equal(a, b)
    print("\n[gate 8] determinism: repeated runs byte-identical (checkpoint "
          "and log); save -> load -> eval bit-exact")


def test_9_comparison_convention():
    def report_at(acc):
        return MetricsReport(accuracy=acc, sensitivity=acc, specificity=acc,
                             per_class=[(acc, acc)] * 3, degenerate_classes=[])

    table = compare_report("resnet50", report_at(0.8340),
                           "joint", report_at(0.9240))
    accuracy_row = next(line for line in table.splitlines()
                        if line.startswith("Accuracy"))
    assert "+9.00 ↑" in accuracy_row
    print("\n[gate 9] comparison table: 83.40 vs 92.40 renders as '+9.00 ↑'")
