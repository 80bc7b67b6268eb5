"""Losses, the Adam optimizer, plateau LR scheduling, and training loops.

The training objective is L = phi * L_s + (1 - phi) * L_u, where L_s is
cross-entropy on the classifier head and L_u is mean squared error on the
reconstruction. Both terms and the blend are tape ops, so at phi = 0 or
phi = 1 the switched-off branch receives exact-zero gradients.

Both losses are means over the batch, so one forward pass, one tape and
one backward pass cover a whole minibatch. Validation likewise runs one
forward pass per chunk of ``batch_size`` samples and reads the loss and
the accuracy from it.

Training is deterministic for a fixed seed: the epoch shuffle has its own
random stream, and each minibatch is gathered in ascending sample-index
order.

Every run trains as a stack of models (``network.stacked``), and
``_train_group`` is the one training loop: one tape, one op call per
layer and one Adam step per batch for all F models of the stack.
``train`` is the group of one. ``kfold_train`` stacks consecutive folds
whose training sets have equal size, as many as keep the images in
flight within one eval chunk (``predict_chunk // batch_size``), so they
share the per-op dispatch, tape and optimizer cost that does not grow
with the batch (the stacked ensembles of BatchEnsemble, Wen et al., ICLR
2020). The losses return one value per model and ``backward``
differentiates their sum, so each model gets its own gradient; its
shuffle stream, schedule, validation counts, checkpoint and log stay its
own, and every fold's result is bit for bit that of training it alone.

Training computes in the network's dtype: ``kfold_train`` builds float32
networks, whose tap GEMMs move half the bytes of float64 ones, and the
one-hot targets, the losses, the gradients and Adam's moments all take
that dtype (Gupta et al., ICML 2015; Micikevicius et al., ICLR 2018,
where the weights and their updates stay in float32). ``jointnet train``
loads its set in that dtype (``TRAIN_DTYPE``), so no batch is cast. The
finite-difference checks build float64 networks on the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .data import Dataset, stratified_folds
from .errors import ConfigError, NumericError
from .evaluation import predict_chunk
from .network import (ArchConfig, JointNetwork, build, forward_backbone, forward_joint,
                      stacked)
from .rng import SHUFFLE, make_rng
from .tensor import Tape, Tensor, backward, record, weighted_sum

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
LOG_CLAMP = 1e-12
LR_FLOOR = 1e-7
MODES = ("joint", "backbone")
# the dtype ``kfold_train`` trains in, and so the one ``jointnet train`` loads in
TRAIN_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe: optimization hyper-parameters and the mode,
    ``joint`` (classifier and decoder) or ``backbone`` (classifier alone)."""

    phi: float = 0.5
    lr: float = 1e-4
    kappa: float = 0.1
    patience: int = 4
    epochs: int = 30
    batch_size: int = 4
    seed: int = 0
    folds: int = 5
    mode: str = "joint"

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise ConfigError(f"phi must be within [0, 1], got {self.phi}")
        if not LR_FLOOR <= self.lr < math.inf:
            raise ConfigError(f"lr must be >= {LR_FLOOR} and finite, got {self.lr}")
        if not 0.0 < self.kappa < 1.0:
            raise ConfigError(f"kappa must be within (0, 1), got {self.kappa}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")


# ---------------------------------------------------------------------------
# losses


def cross_entropy(true_onehot: Tensor, predicted: Tensor) -> Tensor:
    """Mean over rows of -sum(y * log(max(p, 1e-12))) for one-hot labels and
    probability vectors along the last axis: [K] is one row and [N, K] a
    batch. Any axes in front of the rows are models: a stack's [F, N, K]
    gives [F], one mean per model. The clamp bounds the loss; where it
    engages, the gradient is exactly zero."""
    if true_onehot.shape != predicted.shape or predicted.ndim < 1:
        raise ValueError(
            f"cross_entropy expects matching [..., K] tensors, got "
            f"{true_onehot.shape} and {predicted.shape}")
    y = true_onehot.data.reshape(predicted.shape[:-2] + (-1, predicted.shape[-1]))
    p = predicted.data.reshape(y.shape)
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=-1) == 1.0)):
        raise ValueError("true_onehot must hold one-hot vectors")
    if p.min() < 0.0 or np.any(np.abs(p.sum(axis=-1) - 1.0) > _sum_tolerance(p)):
        raise ValueError("predicted must hold probability vectors")
    rows = y.shape[-2]
    clamped = np.maximum(p, LOG_CLAMP)
    out = Tensor(-(y * np.log(clamped)).sum(axis=-1).mean(axis=-1))

    def backward_fn(g):
        dp = np.where(p > LOG_CLAMP, -y / clamped, 0.0) * (g / rows)[..., None, None]
        return None, dp.reshape(predicted.shape)

    record("cross_entropy", (true_onehot, predicted), out, backward_fn)
    return out


def _sum_tolerance(p: np.ndarray) -> float:
    """How far a probability row of ``p``'s dtype may sum from 1: 1e-9 in
    float64. A float32 softmax row of K entries is off by the rounding of
    each exp and each division (about 2 eps relative) plus at most K - 1
    roundings in the softmax's own sum and K - 1 in this check's, so at
    most about (2K + 2) eps. 4 K eps (1.4e-6 at K = 3) bounds that, and
    still refuses a row off by 1e-5. Measured: at most 3 eps for K up to
    1000, as numpy sums pairwise."""
    if p.dtype == np.float64:
        return 1e-9
    return 4 * p.shape[-1] * float(np.finfo(p.dtype).eps)


def mse(input_pixels: Tensor, reconstructed: Tensor) -> Tensor:
    """Mean squared error over all entries of two same-shape tensors; for a
    batch of equal-size images that is the mean of the per-image losses.
    Images are [C,H,W] and batches [N,C,H,W]; any axes in front of those
    four are models: a stack's [F,N,C,H,W] gives [F], one mean per model."""
    if input_pixels.shape != reconstructed.shape:
        raise ValueError(
            f"mse shape mismatch: {input_pixels.shape} vs {reconstructed.shape}")
    diff = reconstructed.data - input_pixels.data
    stack = diff.shape[:-4]
    n = diff.size // math.prod(stack)
    out = Tensor(np.mean(diff * diff, axis=tuple(range(len(stack), diff.ndim))))

    def backward_fn(g):
        return None, (2.0 / n) * diff * g.reshape(g.shape + (1,) * (diff.ndim - g.ndim))

    record("mse", (input_pixels, reconstructed), out, backward_fn)
    return out


def combined_loss(supervised: Tensor, unsupervised: Tensor, phi: float) -> Tensor:
    """phi * L_s + (1 - phi) * L_u as one ``weighted_sum`` node, so the
    endpoints route exact-zero gradients into the switched-off branch. The
    weights are a data input in the losses' dtype: phi and 1 - phi are
    each computed as Python floats and rounded once to that dtype."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must be within [0, 1], got {phi}")
    dtype = np.result_type(supervised.data, unsupervised.data)
    weights = Tensor(np.array([phi, 1.0 - phi], dtype))
    return weighted_sum(supervised, unsupervised, weights)


# ---------------------------------------------------------------------------
# optimizer and schedule


class Adam:
    """Adam with bias correction over a named parameter set.

    One shared step counter covers all parameters. The state is flat: the
    moments are one vector each, laid out in the order of ``shapes``, and
    each step concatenates the gradients and the parameters the same way,
    so one ufunc per term updates every parameter. Each element goes
    through the same expression as in a per-parameter loop, so the results
    are bit for bit those of one. The moments are made at the first step,
    in the parameters' dtype, so a float32 network's update stays float32.
    They live only here; a checkpoint does not save them. ``step`` is
    functional: it makes fresh moment and parameter vectors and never
    mutates its inputs or an earlier step's arrays, so a checkpoint's
    parameters stay valid by reference.

    For a stack of F models (``stack`` = (F,), as ``JointNetwork.stack``)
    ``shapes`` are one model's, the parameters and gradients lead with the
    model axis, and the moments are [F, P]: row f is model f's state, and
    ``lr`` is an [F, 1] array of the models' rates in the parameters'
    dtype (a float64 array would promote a float32 update to float64).
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], stack: tuple[int, ...] = ()):
        self._slots: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._slots[name] = (slice(offset, offset + size), tuple(shape))
            offset += size
        self._stack = stack
        self._m = self._v = None
        self.step_count = 0

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float | np.ndarray) -> dict[str, Tensor]:
        flat = self._stack + (-1,)
        g = np.concatenate([grads[name].reshape(flat) for name in self._slots], axis=-1)
        if not np.all(np.isfinite(g)):
            bad = next(name for name in params
                       if not np.all(np.isfinite(grads[name])))
            raise NumericError(f"non-finite gradient for parameter '{bad}'")
        p = np.concatenate([params[name].data.reshape(flat) for name in self._slots],
                           axis=-1)
        if self._m is None:
            self._m, self._v = np.zeros_like(p), np.zeros_like(p)
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        self._m = m = BETA1 * self._m + (1.0 - BETA1) * g
        self._v = v = BETA2 * self._v + (1.0 - BETA2) * (g * g)
        updated = p - lr * (m / c1) / (np.sqrt(v / c2) + EPSILON)
        return {name: Tensor(updated[..., sl].reshape(self._stack + shape))
                for name, (sl, shape) in self._slots.items()}


class PlateauScheduler:
    """Multiply lr by kappa after ``patience`` consecutive epochs without a
    strict improvement of the best seen validation loss; never below
    ``LR_FLOOR``. The non-improvement counter resets on every reduction."""

    def __init__(self, lr: float, patience: int, kappa: float):
        self.lr = lr
        self.patience = patience
        self.kappa = kappa
        self.best = math.inf
        self.bad_epochs = 0

    def step(self, val_loss: float) -> float:
        """Feed one epoch's validation loss; returns the lr for the next epoch."""
        if val_loss < self.best:
            self.best = val_loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr = max(self.lr * self.kappa, LR_FLOOR)
                self.bad_epochs = 0
        return self.lr


# ---------------------------------------------------------------------------
# training loops


@dataclass
class EpochLog:
    """Per-epoch record; ``lr`` is the rate used during the epoch and
    ``phi`` the blend weight in effect."""

    epoch: int
    train_loss: float
    train_ls: float
    train_lu: float
    val_loss: float
    val_accuracy: float
    lr: float
    phi: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list[EpochLog]

    @property
    def val_accuracy(self) -> float:
        """Validation accuracy at the checkpoint's (best) epoch."""
        return self.log[self.checkpoint.epoch - 1].val_accuracy


def _batch_losses(net: JointNetwork, images: Tensor, labels: int | np.ndarray,
                  config: TrainConfig) -> tuple[Tensor, np.ndarray, np.ndarray, Tensor]:
    """One batch's blended mean loss tensor in ``config.mode``, the L_s and
    L_u values, and the class probabilities. ``labels`` holds the class
    index of each image (one index for one unbatched image); their one-hot
    rows are made here, in the network's dtype. The forward pass casts the
    image to that dtype, and the reconstruction loss compares against the
    cast it hands back. For a stack the losses and values have one entry
    per model; backbone mode's L_u is zero."""
    targets = Tensor(np.eye(net.config.n_classes, dtype=net.dtype)[labels])
    if config.mode == "joint":
        out = forward_joint(net, images)
        ls = cross_entropy(targets, out.class_probs)
        lu = mse(out.image, out.reconstruction)
        return combined_loss(ls, lu, config.phi), ls.data, lu.data, out.class_probs
    probs = forward_backbone(net, images)
    ls = cross_entropy(targets, probs)
    return ls, ls.data, np.zeros_like(ls.data), probs


def _validate_sets(net: JointNetwork, train_set: Dataset, val_set: Dataset) -> None:
    n_classes = net.config.n_classes
    for role, ds in (("training", train_set), ("validation", val_set)):
        if len(ds) == 0:
            raise ValueError(f"{role} set is empty")
        bad = np.flatnonzero((ds.labels < 0) | (ds.labels >= n_classes))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"{role} sample '{ds.sources[i]}' has label {ds.labels[i]}, "
                f"outside 0..{n_classes - 1}")


def train(net: JointNetwork, train_set: Dataset, val_set: Dataset,
          config: TrainConfig) -> TrainResult:
    """Optimize ``net`` in place in ``config.mode``; returns the best-epoch
    checkpoint (lowest validation loss, earlier epoch on ties) and the full
    epoch log. ``net`` trains as a stack of one (``_train_group``), and its
    final parameters are written back."""
    if net.stack:
        raise ValueError(f"train takes one network, got a stack of {net.stack[0]}")
    group = stacked([net])
    (result,) = _train_group(group, [(train_set, val_set)], config, [config.seed])
    net.params = {name: Tensor(p.data[0]) for name, p in group.params.items()}
    return result


def _train_group(net: JointNetwork, sets: list[tuple[Dataset, Dataset]],
                 config: TrainConfig, seeds: list[int]) -> list[TrainResult]:
    """Optimize the F models of the stack ``net`` (``stacked``) in place, in
    lockstep: model f trains on ``sets[f]`` (training and validation set)
    with ``config`` and the shuffle seed ``seeds[f]``. One tape, one op call
    per layer and one Adam step per batch serve all F. Model f keeps its
    own shuffle stream, plateau schedule, validation counts, best-epoch
    checkpoint and log, so its result is bit for bit that of training it
    in a stack of one.

    Every training set must have the same size, and every validation set,
    so that each step's batches and each validation chunk match across the
    models."""
    models = len(seeds)
    if net.stack != (models,) or len(sets) != models:
        raise ValueError(f"a group of {models} seeds needs {models} pairs of sets and "
                         f"a stack of {models} models, got {len(sets)} and {net.stack}")
    for train_set, val_set in sets:
        _validate_sets(net, train_set, val_set)
    n_train, n_val = len(sets[0][0]), len(sets[0][1])
    if any((len(t), len(v)) != (n_train, n_val) for t, v in sets):
        raise ValueError("the training sets of a group must have one size, "
                         "and so must its validation sets")

    shuffles = [make_rng(seed, SHUFFLE) for seed in seeds]
    optimizer = Adam({name: p.shape[1:] for name, p in net.params.items()}, net.stack)
    schedulers = [PlateauScheduler(config.lr, config.patience, config.kappa) for _ in seeds]

    best: list[Checkpoint | None] = [None] * models
    logs: list[list[EpochLog]] = [[] for _ in seeds]

    def joined(parts) -> tuple[Tensor, np.ndarray]:
        """The models' (images, labels) batches on the model axis, in net's dtype."""
        return (Tensor(np.stack([images.data for images, _ in parts], dtype=net.dtype)),
                np.stack([labels for _, labels in parts]))

    for epoch in range(1, config.epochs + 1):
        lrs = [scheduler.lr for scheduler in schedulers]
        lr = np.array(lrs, net.dtype)[:, None]
        orders = [rng.permutation(n_train) for rng in shuffles]
        # per model: the batch-size-weighted sums of L, L_s and L_u
        sums = np.zeros((3, models))
        for start in range(0, n_train, config.batch_size):
            picks = [sorted(order[start:start + config.batch_size].tolist())
                     for order in orders]
            images, labels = joined([train_set.batch(pick) for (train_set, _), pick
                                     in zip(sets, picks)])
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                batch_loss, ls, lu, _ = _batch_losses(net, images, labels, config)
            sums += np.stack([batch_loss.data, ls, lu]).astype(np.float64) * len(picks[0])
            grads = backward(tape, batch_loss)
            net.params = optimizer.step(
                net.params, {name: grads[p] for name, p in net.params.items()}, lr)

        val_correct = np.zeros(models, np.int64)
        val_sum = np.zeros(models)
        for parts in zip(*(val_set.batches(config.batch_size) for _, val_set in sets)):
            images, labels = joined(parts)
            loss, _, _, probs = _batch_losses(net, images, labels, config)
            val_sum += loss.data.astype(np.float64) * labels.shape[-1]
            val_correct += (probs.data.argmax(axis=-1) == labels).sum(axis=-1)

        for f in range(models):
            val_loss = float(val_sum[f] / n_val)
            if best[f] is None or val_loss < best[f].best_val_loss:
                # copies, so a checkpoint holds no other model's parameters
                params = {name: p.data[f].copy() for name, p in net.params.items()}
                best[f] = Checkpoint(net.config, params, epoch, val_loss)
            train_loss, train_ls, train_lu = (float(v) for v in sums[:, f] / n_train)
            logs[f].append(EpochLog(epoch, train_loss, train_ls, train_lu, val_loss,
                                    int(val_correct[f]) / n_val, lrs[f], config.phi))
            schedulers[f].step(val_loss)

    return [TrainResult(checkpoint, log) for checkpoint, log in zip(best, logs)]


@dataclass
class KFoldResult:
    best_fold: int
    folds: list[TrainResult]


def kfold_train(dataset: Dataset, arch: ArchConfig, config: TrainConfig) -> KFoldResult:
    """Stratified k-fold training: fold f trains a fresh float32 network
    seeded ``config.seed + f``. The overall winner has the highest
    best-epoch validation accuracy; ties prefer lower validation loss, then
    the earlier fold.

    Consecutive folds whose training sets have one size train as a group
    (``_train_group``), in fold order, with each fold's results those of
    training it alone. A group holds at most as many models as keep the
    images in flight within one eval chunk: ``predict_chunk`` over the
    batch size, and at least one. That is 2 for the recipe, and 1 at 64 px
    and above. A group's networks are built when it starts."""
    splits = stratified_folds(dataset, config.folds, config.seed)
    group_size = max(1, predict_chunk(arch, TRAIN_DTYPE) // config.batch_size)
    groups: list[list[int]] = []
    for f, (train_idx, _) in enumerate(splits):
        if (groups and len(groups[-1]) < group_size
                and len(splits[groups[-1][0]][0]) == len(train_idx)):
            groups[-1].append(f)
        else:
            groups.append([f])
    folds: list[TrainResult] = []
    for group in groups:
        seeds = [config.seed + f for f in group]
        sets = [(dataset.subset(splits[f][0]), dataset.subset(splits[f][1])) for f in group]
        net = stacked([build(arch, seed=seed, dtype=TRAIN_DTYPE) for seed in seeds])
        folds += _train_group(net, sets, config, seeds)
    # max keeps the first of equal keys, so full ties go to the earlier fold
    best = max(range(len(folds)), key=lambda f: (
        folds[f].val_accuracy, -folds[f].checkpoint.best_val_loss))
    return KFoldResult(best, folds)
