"""Datasets: directory loading, bilinear resizing, synthetic generation,
and stratified fold assignment.

A dataset directory holds one subdirectory per class; class indices follow
the sorted subdirectory names. The synthetic generator emits a three-class
retinal-slice lookalike (AMD, DME, NORMAL): four horizontal intensity
bands with per-row jitter, where AMD arches the band boundaries upward
under a Gaussian bump and DME carves a dark elliptical cavity into the
bright second band. ``shift="wild"`` additionally applies a vertical
translation, a contrast change, and pixel noise to every image.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .netpbm import read_netpbm, write_pgm
from .rng import FOLDS, SYNTH, make_rng
from .tensor import Tensor

_EXTENSIONS = {".pgm", ".ppm", ".pnm"}

CLASS_NAMES = ("AMD", "DME", "NORMAL")

_BOUNDS = np.array([0.25, 0.50, 0.75])
_INTENSITIES = np.array([0.15, 0.70, 0.35, 0.55])
_BOUND_WOBBLE = 0.04
_INTENSITY_WOBBLE = 0.03
_ROW_JITTER = 0.02


@dataclass
class Sample:
    """One image with its class index and a provenance string."""

    image: Tensor
    label: int
    source_id: str


@dataclass
class Dataset:
    samples: list[Sample]
    class_names: list[str]

    def __len__(self) -> int:
        return len(self.samples)

    def subset(self, indices) -> "Dataset":
        return Dataset([self.samples[i] for i in indices], list(self.class_names))

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


# ---------------------------------------------------------------------------
# resizing


def _axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # half-pixel-center mapping; endpoints clamp instead of extrapolating
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def _resize_array(img: np.ndarray, out_size: int) -> np.ndarray:
    c, h, w = img.shape
    if (h, w) == (out_size, out_size):
        return img.copy()
    ylo, yhi, yf = _axis_coords(h, out_size)
    xlo, xhi, xf = _axis_coords(w, out_size)
    rows = img[:, ylo, :] * (1.0 - yf)[None, :, None] + img[:, yhi, :] * yf[None, :, None]
    return (rows[:, :, xlo] * (1.0 - xf)[None, None, :]
            + rows[:, :, xhi] * xf[None, None, :])


def resize_bilinear(image: Tensor, out_size: int) -> Tensor:
    """Bilinear resample of [C,H,W] to [C,out,out] using half-pixel centers."""
    if image.ndim != 3:
        raise ValueError(f"resize_bilinear expects [C,H,W], got {image.shape}")
    if out_size < 1:
        raise ValueError(f"output size must be >= 1, got {out_size}")
    return Tensor(_resize_array(image.data, out_size))


# ---------------------------------------------------------------------------
# directory loading


def _adapt_channels(img: np.ndarray, channels: int, source: str) -> np.ndarray:
    c = img.shape[0]
    if c == channels:
        return img
    if c == 1:
        return np.repeat(img, channels, axis=0)
    if channels == 1:
        return img.mean(axis=0, keepdims=True)
    raise DataError(f"{source}: cannot adapt {c}-channel image to {channels} channels")


def load_image(path: str | Path, size: int, channels: int = 3) -> Tensor:
    """Read one netpbm image as [channels, size, size] intensities in
    [0, 1], adapted to ``channels`` and resized.

    Gray is resized first and then replicated: replication commutes with
    the per-channel resize, so one plane is resized instead of
    ``channels``. RGB is reduced to gray before resizing, because the
    channel mean does not commute with it bit for bit.
    """
    raw, maxval = read_netpbm(path)
    img = raw / maxval
    if img.shape[0] == 1:
        return Tensor(_adapt_channels(_resize_array(img, size), channels, str(path)))
    return Tensor(_resize_array(_adapt_channels(img, channels, str(path)), size))


def load_directory(root: str | Path, target_size: int, channels: int = 3) -> Dataset:
    """Load every netpbm image under ``root/<class>/``, normalized to [0, 1]
    and resized to ``target_size``. Deterministic in directory contents."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"{root}: not a directory")
    class_dirs = sorted((d for d in root.iterdir() if d.is_dir()),
                        key=lambda d: d.name)
    if not class_dirs:
        raise DataError(f"{root}: contains no class subdirectories")
    samples: list[Sample] = []
    for label, class_dir in enumerate(class_dirs):
        files = sorted(f for f in class_dir.iterdir()
                       if f.is_file() and f.suffix.lower() in _EXTENSIONS)
        if not files:
            raise DataError(f"{class_dir}: class directory contains no netpbm images")
        for f in files:
            samples.append(Sample(load_image(f, target_size, channels), label, str(f)))
    return Dataset(samples, [d.name for d in class_dirs])


def write_dataset(dataset: Dataset, out_dir: str | Path) -> list[Path]:
    """Write each sample's first channel as an 8-bit PGM under
    ``out_dir/<class>/``; suitable for reloading with ``load_directory``."""
    out_dir = Path(out_dir)
    counters = [0] * len(dataset.class_names)
    paths: list[Path] = []
    for sample in dataset.samples:
        name = dataset.class_names[sample.label]
        class_dir = out_dir / name
        class_dir.mkdir(parents=True, exist_ok=True)
        path = class_dir / f"{name.lower()}_{counters[sample.label]:04d}.pgm"
        counters[sample.label] += 1
        write_pgm(path, np.rint(sample.image.data[0] * 255.0), 255)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# synthesis


def _paint_bands(size: int, bounds_cols: np.ndarray, intensities: np.ndarray) -> np.ndarray:
    rows = np.arange(size, dtype=np.float64)[:, None]
    band = np.zeros((size, size), dtype=np.int64)
    for k in range(bounds_cols.shape[0]):
        band += rows >= bounds_cols[k][None, :]
    return intensities[band]


def _synth_image(rng: np.random.Generator, size: int, label: int,
                 wild: bool) -> np.ndarray:
    bounds = (_BOUNDS + rng.uniform(-_BOUND_WOBBLE, _BOUND_WOBBLE, 3)) * size
    intensities = _INTENSITIES + rng.uniform(-_INTENSITY_WOBBLE, _INTENSITY_WOBBLE, 4)

    if label == 0:  # AMD: boundaries arch upward under a Gaussian bump
        center = size * (0.5 + rng.uniform(-0.05, 0.05))
        amplitude = size * rng.uniform(0.10, 0.18)
        width = size * rng.uniform(0.10, 0.16)
        cols = np.arange(size, dtype=np.float64)
        bump = amplitude * np.exp(-((cols - center) ** 2) / (2.0 * width * width))
        img = _paint_bands(size, bounds[:, None] - bump[None, :], intensities)
    elif label == 1:  # DME: dark elliptical cavity inside the bright band
        img = _paint_bands(size, np.repeat(bounds[:, None], size, axis=1), intensities)
        cy = 0.5 * (bounds[0] + bounds[1]) + size * rng.uniform(-0.02, 0.02)
        cx = size * (0.5 + rng.uniform(-0.08, 0.08))
        ry = (bounds[1] - bounds[0]) * rng.uniform(0.25, 0.40)
        rx = size * rng.uniform(0.12, 0.20)
        cavity_value = 0.08 + rng.uniform(0.0, 0.06)
        ys = np.arange(size, dtype=np.float64)[:, None]
        xs = np.arange(size, dtype=np.float64)[None, :]
        mask = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        img[mask] = cavity_value
    else:  # NORMAL: undisturbed bands
        img = _paint_bands(size, np.repeat(bounds[:, None], size, axis=1), intensities)

    img = img + rng.normal(0.0, _ROW_JITTER, size)[:, None]

    if wild:
        t = int(round(rng.uniform(-0.10, 0.10) * size))
        src_rows = np.clip(np.arange(size) - t, 0, size - 1)
        img = img[src_rows]
        contrast = rng.uniform(0.7, 1.3)
        img = (img - 0.5) * contrast + 0.5
        img = img + rng.normal(0.0, 0.05, (size, size))
    return np.clip(img, 0.0, 1.0)


def synth_generate(n_per_class: int, size: int, shift: str = "none",
                   seed: int = 0, channels: int = 3) -> Dataset:
    """Generate ``n_per_class`` images per class at ``size`` x ``size``.

    ``shift`` is "none" for clean images or "wild" for the perturbed
    variant. Identical arguments produce identical datasets.
    """
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if size < 16:
        raise ConfigError(f"size must be >= 16, got {size}")
    if shift not in ("none", "wild"):
        raise ConfigError(f"shift must be 'none' or 'wild', got {shift!r}")
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    rng = make_rng(seed, SYNTH)
    samples: list[Sample] = []
    for label, name in enumerate(CLASS_NAMES):
        for i in range(n_per_class):
            plane = _synth_image(rng, size, label, shift == "wild")
            img = np.repeat(plane[None, :, :], channels, axis=0)
            samples.append(Sample(Tensor(img), label,
                                  f"synth/{name}/{shift}/{seed}/{i}"))
    return Dataset(samples, list(CLASS_NAMES))


# ---------------------------------------------------------------------------
# folds


def stratified_folds(dataset: Dataset, folds: int,
                     seed: int = 0) -> list[tuple[list[int], list[int]]]:
    """Assign each sample to exactly one validation fold, shuffling within
    each class so folds are class-balanced. Returns (train, val) index
    lists, both sorted, for each fold."""
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    labels = dataset.labels()
    rng = make_rng(seed, FOLDS)
    fold_of = np.empty(len(dataset), dtype=np.int64)
    for label in range(len(dataset.class_names)):
        idxs = np.flatnonzero(labels == label)
        if len(idxs) < folds:
            raise DataError(
                f"class '{dataset.class_names[label]}' has {len(idxs)} samples, "
                f"fewer than {folds} folds")
        shuffled = rng.permutation(idxs)
        for j, sample_idx in enumerate(shuffled):
            fold_of[sample_idx] = j % folds
    out: list[tuple[list[int], list[int]]] = []
    for f in range(folds):
        val = np.flatnonzero(fold_of == f)
        train = np.flatnonzero(fold_of != f)
        out.append((train.tolist(), val.tolist()))
    return out
