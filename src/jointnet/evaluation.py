"""Confusion matrices, macro-averaged metrics, model comparison tables,
and attention-map export.

Evaluation streams: ``tally`` classifies one batch of ``predict_chunk``
images at a time with every net it is given and adds each batch into the
confusion counts, so memory does not grow with the image count when the
batches are decoded as they are taken (``Listing.batches``, which the
``eval`` and ``compare`` commands use, decoding each chunk in the nets'
common dtype: float32 for float32 nets). ``evaluate`` runs the same loop
over a loaded ``Dataset``, whose batches come in the dtype it was loaded
in; a forward pass casts them only for a network of another dtype.

Metrics follow the one-vs-rest reading of a K-class confusion matrix
(rows = true class, columns = predicted class): accuracy is trace over
total, sensitivity macro-averages TP/(TP+FN), specificity macro-averages
TN/(TN+FP). A class whose denominator is zero contributes 0 to the macro
mean and is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import Dataset
from .kvio import format_kv
from .netpbm import write_pgm
from .network import (ArchConfig, JointNetwork, extract_attention, forward_backbone,
                      forward_joint)
from .tensor import Tensor


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """Integer counts [K,K]: entry [i, j] counts true class i predicted as j."""
    true_arr = np.asarray(true_labels, dtype=np.int64)
    pred_arr = np.asarray(predicted_labels, dtype=np.int64)
    if true_arr.shape != pred_arr.shape or true_arr.ndim != 1:
        raise ValueError(
            f"label sequences must be 1-D and equal length, got "
            f"{true_arr.shape} and {pred_arr.shape}")
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    for name, arr in (("true", true_arr), ("predicted", pred_arr)):
        if arr.size and (arr.min() < 0 or arr.max() >= n_classes):
            raise ValueError(f"{name} labels outside 0..{n_classes - 1}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (true_arr, pred_arr), 1)
    return counts


@dataclass
class MetricsReport:
    accuracy: float
    sensitivity: float
    specificity: float
    per_class: list[tuple[float, float]]
    degenerate_classes: list[int]


def metrics(counts: np.ndarray) -> MetricsReport:
    total = counts.sum()
    if total == 0:
        raise ValueError("metrics undefined for an empty confusion matrix")
    k = counts.shape[0]
    per_class: list[tuple[float, float]] = []
    degenerate: list[int] = []
    for c in range(k):
        tp = counts[c, c]
        fn = counts[c, :].sum() - tp
        fp = counts[:, c].sum() - tp
        tn = total - tp - fn - fp
        flagged = False
        if tp + fn > 0:
            sens = tp / (tp + fn)
        else:
            sens, flagged = 0.0, True
        if tn + fp > 0:
            spec = tn / (tn + fp)
        else:
            spec, flagged = 0.0, True
        if flagged:
            degenerate.append(c)
        per_class.append((float(sens), float(spec)))
    return MetricsReport(
        accuracy=float(np.trace(counts) / total),
        sensitivity=float(sum(s for s, _ in per_class) / k),
        specificity=float(sum(s for _, s in per_class) / k),
        per_class=per_class,
        degenerate_classes=degenerate,
    )


# The first conv's output is a forward pass's largest map. A chunk whose
# output fits this budget shares each op's fixed cost among its images
# without outgrowing the cache: the fastest chunks measured were 8-12
# images for the float32 recipe, 6-8 in float64 and 2-3 at 64 px; this
# gives 10, 5 and 2. Lockstep training (``training.kfold_train``) holds
# its folds' images in flight to the same budget: a group has
# ``predict_chunk // batch_size`` folds, 2 for the float32 recipe.
CHUNK_BYTES = 320 << 10


def predict_chunk(arch: ArchConfig, dtype) -> int:
    """Images per forward pass of a network of ``arch`` computing in
    ``dtype``: as many as keep the first conv's output, ``base_channels``
    maps of ``input_size**2`` values, within ``CHUNK_BYTES``, and at least
    one."""
    return max(1, CHUNK_BYTES // (arch.base_channels * arch.input_size ** 2
                                  * np.dtype(dtype).itemsize))


Batches = Iterable[tuple[Tensor, np.ndarray]]


def tally(nets: list[JointNetwork], batches: Batches, n_classes: int) -> list[np.ndarray]:
    """Each net's confusion counts over the (images, labels) ``batches``
    from the classifier path's argmax, added up batch by batch, one forward
    pass per net and batch. The batches come from ``Dataset.batches`` or,
    decoded as they are taken, from ``Listing.batches``, ``predict_chunk``
    images at a time (the smallest among ``nets``); every net classifies a
    batch before the next is taken, so a batch is freed once every net has
    classified it."""
    counts = [np.zeros((n_classes, n_classes), dtype=np.int64) for _ in nets]
    for images, labels in batches:
        for net, total in zip(nets, counts):
            predicted = forward_backbone(net, images).data.argmax(axis=1)
            total += confusion(labels, predicted, n_classes)
    return counts


def evaluate(net: JointNetwork, dataset: Dataset) -> tuple[np.ndarray, MetricsReport]:
    """The confusion counts of the classifier path on ``dataset``, one
    forward pass per chunk of ``predict_chunk`` images, and their
    metrics."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    chunk = predict_chunk(net.config, net.dtype)
    (counts,) = tally([net], dataset.batches(chunk), net.config.n_classes)
    return counts, metrics(counts)


def compare_report(name_a: str, report_a: MetricsReport,
                   name_b: str, report_b: MetricsReport) -> str:
    """Aligned text table of both models' metrics in percent, with a signed
    two-decimal delta column; positive deltas get an up arrow, negative a
    down arrow, exact zeros neither."""
    if len(report_a.per_class) != len(report_b.per_class):
        raise ValueError(
            f"reports cover {len(report_a.per_class)} vs "
            f"{len(report_b.per_class)} classes")
    rows = [("Accuracy", report_a.accuracy, report_b.accuracy),
            ("Sensitivity", report_a.sensitivity, report_b.sensitivity),
            ("Specificity", report_a.specificity, report_b.specificity)]
    wa = max(len(name_a), 8)
    wb = max(len(name_b), 8)
    lines = [f"{'Metric':<12}  {name_a:>{wa}}  {name_b:>{wb}}  {'Delta':>9}"]
    for label, a, b in rows:
        delta = round((b - a) * 100.0, 2) + 0.0
        arrow = "↑" if delta > 0 else "↓" if delta < 0 else ""
        delta_text = f"{delta:+.2f} {arrow}".rstrip()
        lines.append(f"{label:<12}  {a * 100.0:>{wa}.2f}  {b * 100.0:>{wb}.2f}  "
                     f"{delta_text:>9}")
    return "\n".join(lines) + "\n"


def render_metrics_kv(counts: np.ndarray, report: MetricsReport,
                      class_names: list[str],
                      extra: list[tuple[str, object]] = ()) -> str:
    """Machine-readable report in the package's key=value line format."""
    pairs: list[tuple[str, object]] = list(extra)
    pairs += [("samples", int(counts.sum())),
              ("accuracy", repr(report.accuracy)),
              ("sensitivity", repr(report.sensitivity)),
              ("specificity", repr(report.specificity))]
    for c, name in enumerate(class_names):
        sens, spec = report.per_class[c]
        pairs.append((f"class.{name}.sensitivity", repr(sens)))
        pairs.append((f"class.{name}.specificity", repr(spec)))
        row = " ".join(str(v) for v in counts[c])
        pairs.append((f"confusion.{name}", row))
    if report.degenerate_classes:
        names = ",".join(class_names[c] for c in report.degenerate_classes)
        pairs.append(("degenerate_classes", names))
    return format_kv(pairs)


def export_attention(net: JointNetwork, image: Tensor,
                     out_dir: str | Path) -> list[Path]:
    """Write each stage's normalized attention map as an 8-bit PGM named
    ``attn_stage<i>.pgm``; returns the paths in stage order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    output = forward_joint(net, image)
    paths: list[Path] = []
    for stage in range(1, net.config.n_stages + 1):
        plane = extract_attention(output, stage).data[0]
        path = out_dir / f"attn_stage{stage}.pgm"
        write_pgm(path, plane)
        paths.append(path)
    return paths
