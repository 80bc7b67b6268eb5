"""Finite-difference verification of tape gradients.

``gradcheck`` compares analytic gradients against central differences for a
scalar-valued function of named parameters. ``standard_battery`` builds the
stock set of checks (every primitive plus small composed networks) used by
the CLI and the release tests. Finite differences at ``STEP`` need float64,
so every check here runs on float64 tensors and networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import GRADCHECK, make_rng
from .tensor import Tape, Tensor, backward

STEP = 1e-5
TOLERANCE = 1e-4
FLOOR = 1e-8


@dataclass
class GradcheckResult:
    """Outcome of one finite-difference sweep."""

    name: str
    max_relative_error: float
    passed: bool
    worst_param: str
    worst_index: int
    checked: int


def relative_error(analytic: float, numeric: float) -> float:
    """|a - n| / max(|a|, |n|, floor); the floor keeps near-zero pairs honest."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), FLOOR)


def gradcheck(loss_fn: Callable[[dict[str, Tensor]], Tensor],
              params: dict[str, Tensor],
              name: str = "gradcheck") -> GradcheckResult:
    """Check d loss_fn / d params against central differences of ``STEP``;
    the check passes when no relative error exceeds ``TOLERANCE``.

    ``loss_fn`` must return a scalar Tensor and must read parameter values
    through the passed dict so that in-place perturbations are visible.
    """
    tape = Tape()
    with tape:
        for p in params.values():
            tape.watch(p)
        loss = loss_fn(params)
    if loss.shape != ():
        raise ValueError(f"{name}: loss_fn must return a scalar, got shape {loss.shape}")
    grads = backward(tape, loss)

    worst = 0.0
    worst_param = ""
    worst_index = -1
    checked = 0
    for key, p in params.items():
        flat = p.data.reshape(-1)
        aflat = grads[p].reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + STEP
            up = float(loss_fn(params).data)
            flat[i] = saved - STEP
            down = float(loss_fn(params).data)
            flat[i] = saved
            numeric = (up - down) / (2.0 * STEP)
            err = relative_error(float(aflat[i]), numeric)
            checked += 1
            if not np.isfinite(err):
                return GradcheckResult(name, float("inf"), False, key, i, checked)
            if err > worst:
                worst, worst_param, worst_index = err, key, i
    return GradcheckResult(name, worst, worst <= TOLERANCE, worst_param,
                           worst_index, checked)


# ---------------------------------------------------------------------------
# stock checks


def standard_battery(seed: int) -> list[tuple[str, Callable[[dict[str, Tensor]], Tensor], dict[str, Tensor]]]:
    """(name, loss_fn, params) triples covering every primitive and both loss
    heads, on one sample and on a batch of two, then the primitives that
    take a model axis on a stack of two models, finishing with a full
    two-stage joint network on one 16x16 input and on a batch of two, and
    the loss of a stack of two joint networks as lockstep training takes
    it."""
    from . import training
    from .network import ArchConfig, build, stacked
    from .tensor import (conv2d, dense, fuse_skip, global_avg_pool, maxpool2x2,
                         sigmoid, softmax, tensor_sum, weighted_sum)

    rng = make_rng(seed, GRADCHECK)

    def t(*shape) -> Tensor:
        return Tensor(rng.uniform(-1.0, 1.0, shape))

    checks: list[tuple[str, Callable, dict[str, Tensor]]] = []

    x_conv = t(2, 6, 6)
    checks.append((
        "conv2d_same",
        lambda p: tensor_sum(conv2d(x_conv, p["k"], p["b"])),
        {"k": t(3, 2, 3, 3), "b": t(3)},
    ))
    checks.append((
        "maxpool2x2",
        lambda p: tensor_sum(maxpool2x2(p["x"])),
        {"x": t(2, 4, 4)},
    ))
    x_dense = t(4)
    checks.append((
        "dense",
        lambda p: tensor_sum(dense(x_dense, p["w"], p["b"])),
        {"w": t(3, 4), "b": t(3)},
    ))
    x_dm, target_dm = t(3), t(3)
    checks.append((
        "dense_mse",
        lambda p: training.mse(target_dm, dense(x_dm, p["w"], p["b"])),
        {"w": t(3, 3), "b": t(3)},
    ))
    checks.append((
        "conv2d_relu",
        lambda p: tensor_sum(conv2d(p["x"], p["k"], p["b"], relu=True)),
        {"x": t(2, 5, 5), "k": t(3, 2, 3, 3), "b": t(3)},
    ))
    checks.append((
        "sigmoid",
        lambda p: tensor_sum(sigmoid(p["x"])),
        {"x": t(2, 3, 3)},
    ))
    onehot3 = Tensor(np.array([0.0, 1.0, 0.0]))
    checks.append((
        "softmax_cross_entropy",
        lambda p: training.cross_entropy(onehot3, softmax(p["x"])),
        {"x": t(3)},
    ))
    checks.append((
        "global_avg_pool",
        lambda p: tensor_sum(global_avg_pool(p["x"])),
        {"x": t(3, 4, 4)},
    ))
    blend = Tensor(np.array([0.75, 0.25]))
    checks.append((
        "weighted_sum",
        lambda p: tensor_sum(weighted_sum(p["a"], p["b"], blend)),
        {"a": t(2, 3, 3), "b": t(2, 3, 3)},
    ))
    target_mse = Tensor(rng.uniform(0.0, 1.0, (1, 4, 4)))
    checks.append((
        "mse",
        lambda p: training.mse(target_mse, sigmoid(p["x"])),
        {"x": t(1, 4, 4)},
    ))

    x_head = Tensor(rng.uniform(0.0, 1.0, (2, 8, 8)))
    onehot_head = Tensor(np.array([0.0, 0.0, 1.0]))

    def conv_ce(p: dict[str, Tensor]) -> Tensor:
        h = conv2d(x_head, p["k"], p["kb"], relu=True)
        probs = softmax(dense(global_avg_pool(maxpool2x2(h)), p["w"], p["b"]))
        return training.cross_entropy(onehot_head, probs)

    checks.append((
        "conv_softmax_head",
        conv_ce,
        {"k": t(4, 2, 3, 3), "kb": t(4), "w": t(3, 4), "b": t(3)},
    ))

    # the same primitives on a leading batch axis of 2
    xb_conv = t(2, 2, 6, 6)
    checks.append((
        "conv2d_same_batch2",
        lambda p: tensor_sum(conv2d(xb_conv, p["k"], p["b"])),
        {"k": t(3, 2, 3, 3), "b": t(3)},
    ))
    checks.append((
        "maxpool2x2_batch2",
        lambda p: tensor_sum(maxpool2x2(p["x"])),
        {"x": t(2, 2, 4, 4)},
    ))
    xb_dense = t(2, 4)
    checks.append((
        "dense_batch2",
        lambda p: tensor_sum(sigmoid(dense(xb_dense, p["w"], p["b"]))),
        {"w": t(3, 4), "b": t(3)},
    ))
    onehots3 = Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    checks.append((
        "softmax_cross_entropy_batch2",
        lambda p: training.cross_entropy(onehots3, softmax(p["x"])),
        {"x": t(2, 3)},
    ))
    checks.append((
        "global_avg_pool_batch2",
        lambda p: tensor_sum(sigmoid(global_avg_pool(p["x"]))),
        {"x": t(2, 3, 4, 4)},
    ))
    # the fused decoder stage, drawn last so the checks above keep their
    # draws; the sigmoid makes its gradient depend on every input
    for name, lead in (("fuse_skip", ()), ("fuse_skip_batch2", (2,))):
        checks.append((
            name,
            lambda p: tensor_sum(sigmoid(fuse_skip(p["s"], p["x"], p["k"], p["b"]))),
            {"s": t(*lead, 2, 4, 4), "x": t(*lead, 3, 2, 2), "k": t(3, 2, 3, 3),
             "b": t(3)},
        ))

    # the same primitives on a stack of two models, each with its own
    # parameters and its own batch of two, drawn after the checks above
    # so that those keep their draws
    xm_conv = t(2, 2, 2, 5, 5)
    checks.append((
        "conv2d_same_models2",
        lambda p: tensor_sum(conv2d(xm_conv, p["k"], p["b"])),
        {"k": t(2, 3, 2, 3, 3), "b": t(2, 3)},
    ))
    checks.append((
        "conv2d_relu_models2",
        lambda p: tensor_sum(conv2d(p["x"], p["k"], p["b"], relu=True)),
        {"x": t(2, 2, 2, 5, 5), "k": t(2, 3, 2, 3, 3), "b": t(2, 3)},
    ))
    checks.append((
        "fuse_skip_models2",
        lambda p: tensor_sum(sigmoid(fuse_skip(p["s"], p["x"], p["k"], p["b"]))),
        {"s": t(2, 2, 2, 4, 4), "x": t(2, 2, 3, 2, 2), "k": t(2, 3, 2, 3, 3),
         "b": t(2, 3)},
    ))
    xm_dense = t(2, 2, 4)
    checks.append((
        "dense_models2",
        lambda p: tensor_sum(sigmoid(dense(xm_dense, p["w"], p["b"]))),
        {"w": t(2, 3, 4), "b": t(2, 3)},
    ))

    # the joint instances get a fresh stream so their gradients do not
    # depend on how many draws the smaller checks consumed above
    joint_rng = make_rng(seed, GRADCHECK)
    arch = ArchConfig(n_stages=2, input_channels=1, input_size=16,
                      base_channels=4, n_classes=3)
    net = build(arch, seed=seed, dtype=np.float64)
    image = Tensor(joint_rng.uniform(0.0, 1.0, (1, 16, 16)))
    # The batch repeats the image under two labels, so each row gets its own
    # gradient but no relu or maxpool sits nearer a switch than in the
    # single-image check: a switch within STEP corrupts central differences.
    # Distinct images are covered by the primitive batch checks above and
    # by the batched-versus-single gradient test in the training tests.
    images = Tensor(np.stack([image.data, image.data]))

    # the blended loss that ``train`` differentiates, at phi = 0.5
    config = training.TrainConfig(phi=0.5)

    def joint_loss_on(image: Tensor, label: int | np.ndarray):
        def joint_loss(p: dict[str, Tensor]) -> Tensor:
            net.params = dict(p)
            return training._batch_losses(net, image, label, config)[0]
        return joint_loss

    checks.append(("joint_16x16_2stage", joint_loss_on(image, 0),
                   dict(net.params)))
    checks.append(("joint_16x16_2stage_batch2",
                   joint_loss_on(images, np.array([0, 2])), dict(net.params)))

    # Two models in lockstep, each with its own weights, image and label:
    # the sum of the per-model blended losses, whose gradient in each
    # model's parameters is that model's own. A smaller network keeps the
    # stack's twice as many parameters cheap to perturb.
    group_arch = ArchConfig(n_stages=1, input_channels=1, input_size=8,
                            base_channels=2, n_classes=3)
    group = stacked([build(group_arch, seed=seed + f, dtype=np.float64) for f in range(2)])
    group_images = Tensor(joint_rng.uniform(0.0, 1.0, (2, 1, 1, 8, 8)))

    def group_loss(p: dict[str, Tensor]) -> Tensor:
        group.params = dict(p)
        return tensor_sum(training._batch_losses(
            group, group_images, np.array([[1], [2]]), config)[0])

    checks.append(("joint_8x8_1stage_models2", group_loss, dict(group.params)))
    return checks


def run_battery(seed: int) -> list[GradcheckResult]:
    return [gradcheck(fn, params, name=name)
            for name, fn, params in standard_battery(seed)]
