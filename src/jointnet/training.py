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
random stream, and each minibatch is stacked in ascending sample-index
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import Checkpoint
from .data import Dataset, stratified_folds
from .errors import ConfigError, NumericError
from .network import ArchConfig, JointNetwork, build, forward_backbone, forward_joint
from .rng import SHUFFLE, make_rng
from .tensor import Tape, Tensor, add, backward, record, scale

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
LOG_CLAMP = 1e-12
LR_FLOOR = 1e-7
MODES = ("joint", "backbone")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyper-parameters."""

    phi: float = 0.5
    lr: float = 1e-4
    kappa: float = 0.1
    patience: int = 4
    epochs: int = 30
    batch_size: int = 4
    seed: int = 0
    folds: int = 5

    def __post_init__(self):
        if not 0.0 <= self.phi <= 1.0:
            raise ConfigError(f"phi must be within [0, 1], got {self.phi}")
        if not self.lr >= LR_FLOOR:
            raise ConfigError(f"lr must be >= {LR_FLOOR}, got {self.lr}")
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


# ---------------------------------------------------------------------------
# losses


def cross_entropy(true_onehot: Tensor, predicted: Tensor) -> Tensor:
    """Mean over rows of -sum(y * log(max(p, 1e-12))) for one-hot labels and
    probability vectors along the last axis; any leading axes are the
    batch. The clamp bounds the loss; where it engages, the gradient is
    exactly zero."""
    if true_onehot.shape != predicted.shape or predicted.ndim < 1:
        raise ValueError(
            f"cross_entropy expects matching [..., K] tensors, got "
            f"{true_onehot.shape} and {predicted.shape}")
    y = true_onehot.data.reshape(-1, predicted.shape[-1])
    p = predicted.data.reshape(y.shape)
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) == 1.0)):
        raise ValueError("true_onehot must hold one-hot vectors")
    if p.min() < 0.0 or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("predicted must hold probability vectors")
    rows = y.shape[0]
    clamped = np.maximum(p, LOG_CLAMP)
    out = Tensor(-(y * np.log(clamped)).sum(axis=1).mean())

    def backward_fn(g):
        dp = np.where(p > LOG_CLAMP, -y / clamped, 0.0) * (g / rows)
        return None, dp.reshape(predicted.shape)

    record("cross_entropy", (true_onehot, predicted), out, backward_fn)
    return out


def mse(input_pixels: Tensor, reconstructed: Tensor) -> Tensor:
    """Mean squared error over all entries of two same-shape tensors; for a
    batch of equal-size images that is the mean of the per-image losses."""
    if input_pixels.shape != reconstructed.shape:
        raise ValueError(
            f"mse shape mismatch: {input_pixels.shape} vs {reconstructed.shape}")
    diff = reconstructed.data - input_pixels.data
    n = diff.size
    out = Tensor(np.mean(diff * diff))

    def backward_fn(g):
        base = (2.0 / n) * diff * g
        return -base, base

    record("mse", (input_pixels, reconstructed), out, backward_fn)
    return out


def combined_loss(supervised: Tensor, unsupervised: Tensor, phi: float) -> Tensor:
    """phi * L_s + (1 - phi) * L_u, built from tape ops so the endpoints
    route exact-zero gradients into the switched-off branch."""
    if not 0.0 <= phi <= 1.0:
        raise ValueError(f"phi must be within [0, 1], got {phi}")
    return add(scale(supervised, phi), scale(unsupervised, 1.0 - phi))


# ---------------------------------------------------------------------------
# optimizer and schedule


class Adam:
    """Adam with bias correction over a named parameter set.

    One shared step counter covers all parameters. The state is flat: the
    moments are one vector each, laid out in the order of ``shapes``, and
    each step concatenates the gradients and the parameters the same way,
    so one ufunc per term updates every parameter. Each element goes
    through the same expression as in a per-parameter loop, so the results
    are bit for bit those of one. ``m`` and ``v`` map names to views of
    the current moment vectors. ``step`` is functional: it makes fresh
    moment and parameter vectors and never mutates its inputs or an
    earlier step's arrays, so checkpointed snapshots stay valid by
    reference.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self._slots: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._slots[name] = (slice(offset, offset + size), tuple(shape))
            offset += size
        self._m = np.zeros(offset)
        self._v = np.zeros(offset)
        self.step_count = 0

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[sl].reshape(shape)
                for name, (sl, shape) in self._slots.items()}

    @property
    def m(self) -> dict[str, np.ndarray]:
        """First-moment estimates by parameter name."""
        return self._views(self._m)

    @property
    def v(self) -> dict[str, np.ndarray]:
        """Second-moment estimates by parameter name."""
        return self._views(self._v)

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float) -> dict[str, Tensor]:
        g = np.concatenate([np.ravel(grads[name]) for name in self._slots])
        if not np.all(np.isfinite(g)):
            bad = next(name for name in params
                       if not np.all(np.isfinite(grads[name])))
            raise NumericError(f"non-finite gradient for parameter '{bad}'")
        p = np.concatenate([params[name].data.ravel() for name in self._slots])
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - BETA1 ** t
        c2 = 1.0 - BETA2 ** t
        self._m = m = BETA1 * self._m + (1.0 - BETA1) * g
        self._v = v = BETA2 * self._v + (1.0 - BETA2) * (g * g)
        updated = self._views(p - lr * (m / c1) / (np.sqrt(v / c2) + EPSILON))
        return {name: Tensor(updated[name]) for name in params}


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


def _stack(dataset: Dataset, indices, onehots: np.ndarray) -> tuple[Tensor, Tensor]:
    """The samples at ``indices`` as an [N,C,H,W] image batch and [N,K]
    one-hot labels, in the given order."""
    samples = [dataset.samples[i] for i in indices]
    return (Tensor(np.stack([s.image.data for s in samples])),
            Tensor(onehots[[s.label for s in samples]]))


def _batch_losses(net: JointNetwork, images: Tensor, targets: Tensor, mode: str,
                  phi: float) -> tuple[Tensor, float, float, Tensor]:
    """One batch's blended mean loss tensor, float L_s and L_u readings, and
    the class probabilities."""
    if mode == "joint":
        out = forward_joint(net, images)
        ls = cross_entropy(targets, out.class_probs)
        lu = mse(images, out.reconstruction)
        return combined_loss(ls, lu, phi), float(ls.data), float(lu.data), out.class_probs
    probs = forward_backbone(net, images)
    ls = cross_entropy(targets, probs)
    return ls, float(ls.data), 0.0, probs


def _validate_sets(net: JointNetwork, train_set: Dataset, val_set: Dataset) -> None:
    for role, ds in (("training", train_set), ("validation", val_set)):
        if len(ds) == 0:
            raise ValueError(f"{role} set is empty")
        for s in ds.samples:
            if not 0 <= s.label < net.config.n_classes:
                raise ValueError(
                    f"{role} sample '{s.source_id}' has label {s.label}, "
                    f"outside 0..{net.config.n_classes - 1}")


def train(net: JointNetwork, train_set: Dataset, val_set: Dataset,
          config: TrainConfig, mode: str = "joint") -> TrainResult:
    """Optimize ``net`` in place; returns the best-epoch checkpoint (lowest
    validation loss, earlier epoch on ties) and the full epoch log."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    _validate_sets(net, train_set, val_set)

    onehots = np.eye(net.config.n_classes)
    shuffle_rng = make_rng(config.seed, SHUFFLE)
    optimizer = Adam({name: p.shape for name, p in net.params.items()})
    scheduler = PlateauScheduler(config.lr, config.patience, config.kappa)
    phi = config.phi
    val_labels = val_set.labels()

    best: Checkpoint | None = None
    log: list[EpochLog] = []
    n_train, n_val = len(train_set), len(val_set)

    for epoch in range(1, config.epochs + 1):
        lr_used = scheduler.lr
        order = shuffle_rng.permutation(n_train)
        sum_l = sum_ls = sum_lu = 0.0
        for start in range(0, n_train, config.batch_size):
            batch = sorted(order[start:start + config.batch_size].tolist())
            images, targets = _stack(train_set, batch, onehots)
            tape = Tape()
            with tape:
                for p in net.params.values():
                    tape.watch(p)
                batch_loss, ls_val, lu_val, _ = _batch_losses(
                    net, images, targets, mode, phi)
            sum_l += float(batch_loss.data) * len(batch)
            sum_ls += ls_val * len(batch)
            sum_lu += lu_val * len(batch)
            grads = backward(tape, batch_loss)
            grad_arrays = {name: grads[p].data for name, p in net.params.items()}
            net.params = optimizer.step(net.params, grad_arrays, lr_used)

        val_correct = 0
        val_sum = 0.0
        for start in range(0, n_val, config.batch_size):
            chunk = range(start, min(start + config.batch_size, n_val))
            images, targets = _stack(val_set, chunk, onehots)
            loss, _, _, probs = _batch_losses(net, images, targets, mode, phi)
            val_sum += float(loss.data) * len(chunk)
            val_correct += int(np.sum(probs.data.argmax(axis=1) == val_labels[chunk]))
        val_loss = val_sum / n_val
        val_accuracy = val_correct / n_val

        if best is None or val_loss < best.best_val_loss:
            best = Checkpoint(
                arch=net.config,
                params={name: p.data for name, p in net.params.items()},
                adam_m=optimizer.m,
                adam_v=optimizer.v,
                step=optimizer.step_count,
                epoch=epoch,
                best_val_loss=val_loss,
            )
        log.append(EpochLog(epoch, sum_l / n_train, sum_ls / n_train,
                            sum_lu / n_train, val_loss, val_accuracy,
                            lr_used, phi))
        scheduler.step(val_loss)

    return TrainResult(best, log)


@dataclass
class FoldSummary:
    fold: int
    checkpoint: Checkpoint
    log: list[EpochLog]
    val_accuracy: float
    val_loss: float


@dataclass
class KFoldResult:
    best_fold: int
    best_checkpoint: Checkpoint
    folds: list[FoldSummary]


def kfold_train(dataset: Dataset, arch: ArchConfig, config: TrainConfig,
                mode: str = "joint") -> KFoldResult:
    """Stratified k-fold training: fold f trains a fresh network seeded
    ``config.seed + f``. The overall winner has the highest best-epoch
    validation accuracy; ties prefer lower validation loss, then the
    earlier fold."""
    splits = stratified_folds(dataset, config.folds, config.seed)
    summaries: list[FoldSummary] = []
    for f, (train_idx, val_idx) in enumerate(splits):
        net = build(arch, seed=config.seed + f)
        result = train(net, dataset.subset(train_idx), dataset.subset(val_idx),
                       replace(config, seed=config.seed + f), mode=mode)
        ckpt = result.checkpoint
        accuracy = result.log[ckpt.epoch - 1].val_accuracy
        summaries.append(FoldSummary(f, ckpt, result.log, accuracy,
                                     ckpt.best_val_loss))
    best = summaries[0]
    for cand in summaries[1:]:
        if (cand.val_accuracy, -cand.val_loss) > (best.val_accuracy, -best.val_loss):
            best = cand
    return KFoldResult(best.fold, best.checkpoint, summaries)
