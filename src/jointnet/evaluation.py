"""Confusion matrices, macro-averaged metrics, model comparison tables,
and attention-map export.

Metrics follow the one-vs-rest reading of a K-class confusion matrix
(rows = true class, columns = predicted class): accuracy is trace over
total, sensitivity macro-averages TP/(TP+FN), specificity macro-averages
TN/(TN+FP). A class whose denominator is zero contributes 0 to the macro
mean and is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .kvio import format_kv
from .netpbm import write_pgm
from .network import JointNetwork, extract_attention, forward_backbone, forward_joint
from .tensor import Tensor


@dataclass
class ConfusionMatrix:
    """Integer counts [K,K]; counts[i, j] = true class i predicted as j."""

    counts: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels, predicted_labels, n_classes: int) -> ConfusionMatrix:
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
    return ConfusionMatrix(counts)


@dataclass
class MetricsReport:
    accuracy: float
    sensitivity: float
    specificity: float
    per_class: list[tuple[float, float]]
    degenerate_classes: list[int]


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    counts = cm.counts
    total = counts.sum()
    if total == 0:
        raise ValueError("metrics undefined for an empty confusion matrix")
    k = cm.n_classes
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


PREDICT_CHUNK = 4  # images per forward pass; larger chunks ran slower


def predict(net: JointNetwork, dataset: Dataset) -> list[int]:
    """Classifier-path argmax for every sample, in dataset order, one
    forward pass per chunk of ``PREDICT_CHUNK`` images."""
    labels: list[int] = []
    for start in range(0, len(dataset), PREDICT_CHUNK):
        chunk = dataset.samples[start:start + PREDICT_CHUNK]
        images = Tensor(np.stack([s.image.data for s in chunk]))
        labels += forward_backbone(net, images).data.argmax(axis=1).tolist()
    return labels


def evaluate(net: JointNetwork, dataset: Dataset) -> tuple[ConfusionMatrix, MetricsReport]:
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    cm = confusion([s.label for s in dataset.samples], predict(net, dataset),
                   net.config.n_classes)
    return cm, metrics(cm)


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


def render_metrics_kv(cm: ConfusionMatrix, report: MetricsReport,
                      class_names: list[str],
                      extra: list[tuple[str, object]] = ()) -> str:
    """Machine-readable report in the package's key=value line format."""
    pairs: list[tuple[str, object]] = list(extra)
    pairs += [("samples", cm.total),
              ("accuracy", repr(report.accuracy)),
              ("sensitivity", repr(report.sensitivity)),
              ("specificity", repr(report.specificity))]
    for c, name in enumerate(class_names):
        sens, spec = report.per_class[c]
        pairs.append((f"class.{name}.sensitivity", repr(sens)))
        pairs.append((f"class.{name}.specificity", repr(spec)))
        row = " ".join(str(v) for v in cm.counts[c])
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
        write_pgm(path, np.rint(plane * 255.0), 255)
        paths.append(path)
    return paths
