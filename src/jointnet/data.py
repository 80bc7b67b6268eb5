"""Datasets: directory loading, bilinear resizing, synthetic generation,
and stratified fold assignment.

``decode`` is the one image decoder: ``Listing.batches`` decodes each
chunk of a directory with it, in the dtype asked for, ``load_image`` is
its float64 decode of one file, and ``load_directory`` runs its two
halves chunk by chunk into one preallocated array.

A ``Dataset`` holds its images as one array, in the dtype they were
loaded in, with gray held once, and builds each minibatch with one gather
(``Dataset.batch``); fold subsets share that array. ``jointnet train``
loads in float32, the dtype it trains in, so no batch is cast.

A dataset directory holds one subdirectory per class; class indices follow
the sorted subdirectory names. The synthetic generator emits a three-class
retinal-slice lookalike (AMD, DME, NORMAL): four horizontal intensity
bands with per-row jitter, where AMD arches the band boundaries upward
under a Gaussian bump and DME carves a dark elliptical cavity into the
bright second band. ``shift="wild"`` additionally applies a vertical
translation, a contrast change, and pixel noise to every image.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError
from .netpbm import read_netpbm, write_pgm
from .rng import FOLDS, SYNTH, make_rng
from .tensor import Tensor

_EXTENSIONS = {".pgm", ".ppm", ".pnm"}
# ``load_directory`` reads and blends LOAD_CHUNK files at a time, or fewer
# where their float64 levels, four per output pixel of a plane, would pass
# LOAD_BYTES: 10 files at 32 px, 2 at 224 px
LOAD_CHUNK = 10
LOAD_BYTES = 4 << 20

CLASS_NAMES = ("AMD", "DME", "NORMAL")
SHIFTS = ("none", "wild")

_BOUNDS = np.array([0.25, 0.50, 0.75])
_INTENSITIES = np.array([0.15, 0.70, 0.35, 0.55])
_BOUND_WOBBLE = 0.04
_INTENSITY_WOBBLE = 0.03
_ROW_JITTER = 0.02


@dataclass
class Sample:
    """One image with its class index and a provenance string: what
    ``synth_samples`` draws, ``write_samples`` writes and
    ``Dataset.samples`` builds."""

    image: Tensor
    label: int
    source_id: str


class Dataset:
    """A labelled image set held as one array: ``images`` [M, k, S, S]
    holds each image once, where ``k`` is ``channels``, or 1 when every
    image is gray, and ``batch`` replicates that plane to ``channels``.
    ``rows`` says which rows of ``images`` the set's samples are, in order;
    ``labels`` (int64) and ``sources`` (provenance strings) follow the
    samples. A subset shares ``images`` and holds only its rows.

    The set never copies ``images``, so the caller must not write to it.
    """

    def __init__(self, images: np.ndarray, labels, sources, class_names,
                 channels: int | None = None, rows=None):
        if images.ndim != 4 or channels is not None and images.shape[1] not in (1, channels):
            raise ValueError(f"images must be [M, 1 or channels, S, S], got {images.shape}")
        self.images = images
        self.channels = images.shape[1] if channels is None else channels
        self.rows = (np.arange(len(images)) if rows is None
                     else np.asarray(rows, dtype=np.int64))
        self.labels = np.asarray(labels, dtype=np.int64)
        self.sources = list(sources)
        self.class_names = list(class_names)
        if not len(self.rows) == len(self.labels) == len(self.sources):
            raise ValueError(f"{len(self.rows)} rows, {len(self.labels)} labels and "
                             f"{len(self.sources)} sources do not match")

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices) -> "Dataset":
        """The samples at ``indices``, in the given order, as a set that
        shares this one's image array."""
        picks = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images, self.labels[picks], [self.sources[i] for i in picks],
                       self.class_names, self.channels, self.rows[picks])

    def batch(self, indices) -> tuple[Tensor, np.ndarray]:
        """The samples at ``indices``, in the given order: their images as one
        [N, channels, S, S] Tensor in the stored dtype, gathered at once and
        gray replicated exactly, and their labels as int64."""
        picks = np.asarray(indices, dtype=np.int64)
        images = self.images[self.rows[picks]]
        if images.shape[1] != self.channels:
            images = np.repeat(images, self.channels, axis=1)
        return Tensor(images), self.labels[picks]

    def batches(self, chunk: int) -> Iterator[tuple[Tensor, np.ndarray]]:
        """Every sample in order, ``chunk`` at a time, as ``batch`` builds them."""
        n = len(self)
        for start in range(0, n, chunk):
            yield self.batch(range(start, min(start + chunk, n)))

    @property
    def samples(self) -> tuple[Sample, ...]:
        """Each sample as a ``Sample``, built on access from a copy of its
        image: a read-only view for callers that take one image at a time."""
        images, _ = self.batch(range(len(self)))
        return tuple(Sample(Tensor(image), int(label), source)
                     for image, label, source in zip(images.data, self.labels, self.sources))


@dataclass
class Listing:
    """The netpbm files of a dataset directory in load order, each with its
    class index: what ``load_directory`` decodes, before any is decoded."""

    files: list[tuple[Path, int]]
    class_names: list[str]

    def batches(self, size: int, channels: int, chunk: int,
                dtype) -> Iterator[tuple[Tensor, np.ndarray]]:
        """The images decoded ``chunk`` files at a time, in order, each
        chunk one ``decode`` in ``dtype``: the images and labels that
        ``Dataset.batch`` stacks from the loaded set, cast to ``dtype``. No
        image outlives the chunk that holds it."""
        for start in range(0, len(self.files), chunk):
            part = self.files[start:start + chunk]
            yield (Tensor(decode([f for f, _ in part], size, channels, dtype)),
                   np.array([label for _, label in part], dtype=np.int64))


# ---------------------------------------------------------------------------
# resizing


@functools.lru_cache(maxsize=64)
def _axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, frac): the ``n_in`` positions a bilinear resize to ``n_out``
    reads, lo of every output then hi, and the weight of hi per output;
    memoised, so the arrays are read-only. A size too large for numpy to
    allocate is a ConfigError naming it."""
    # half-pixel-center mapping; endpoints clamp instead of extrapolating
    try:
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    except (MemoryError, OverflowError, ValueError) as e:
        raise ConfigError(f"cannot resize to size {n_out}: {e}") from None
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    coords = (np.concatenate([lo, np.minimum(lo + 1, n_in - 1)]), src - lo)
    for arr in coords:
        arr.flags.writeable = False
    return coords


def _gather(img: np.ndarray, out_size: int) -> np.ndarray:
    """The samples of [C,H,W] ``img`` that a bilinear resize to ``out_size``
    reads: rows lo then hi by columns lo then hi, [C, 2*out, 2*out], as
    one C-ordered array. Two ``take``s give the values and dtype of the
    fancy index ``img[:, rows[:, None], cols]`` in about a third of its
    time."""
    _, h, w = img.shape
    return (img.take(_axis_coords(h, out_size)[0], axis=1)
            .take(_axis_coords(w, out_size)[0], axis=2))


def _interpolate(samples: np.ndarray, h: int, w: int) -> np.ndarray:
    """Blend the samples ``_gather`` took from [..., H, W] planes: down the
    rows, then across the columns."""
    n = samples.shape[-1] // 2
    yf, xf = _axis_coords(h, n)[1][:, None], _axis_coords(w, n)[1]
    rows = samples[..., :n, :] * (1.0 - yf) + samples[..., n:, :] * yf
    return rows[..., :n] * (1.0 - xf) + rows[..., n:] * xf


# ---------------------------------------------------------------------------
# directory loading


def decode(paths: list, size: int, channels: int, dtype) -> np.ndarray:
    """Read netpbm files, one or more, as [N, channels, size, size]
    intensities in [0, 1] in ``dtype``, adapted to ``channels`` and resized.

    The files are read in order, and each one's channels are checked as
    soon as it is read, so an error names the first bad file. From each
    integer raster only the four stored levels around each output pixel
    are gathered. Then, once per group of rasters of one stored shape, the
    levels are divided by each image's maxval, reduced to gray if the
    images are RGB and ``channels`` is 1, blended, and written into the
    output, gray replicated, with one cast to ``dtype``. Every value goes
    through the float64 operations of normalizing the whole raster and
    then resizing it, so the bits are the same, and a float32 decode is
    the float64 one cast. RGB is reduced to gray before blending, because
    the channel mean does not commute with the blend bit for bit. The
    output is allocated after the first read and before any gather; a
    size or channel count numpy cannot hold is a ConfigError naming it.
    """
    out = None

    def allocate(path, c: int) -> None:
        nonlocal out
        out = _empty((len(paths), channels, size, size), dtype,
                     f"{path}: cannot replicate gray to {channels} channels at size {size}"
                     if c < channels else f"cannot resize to size {size}")

    _write_levels(_read_levels(paths, size, channels, allocate), out, size, channels)
    return out


def _empty(shape: tuple, dtype, what: str) -> np.ndarray:
    """``np.empty(shape, dtype)``; a shape numpy cannot hold is a ConfigError
    that begins with ``what``."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, OverflowError, ValueError) as e:
        raise ConfigError(f"{what}: {e}") from None


def _read_levels(paths: list, size: int, channels: int, first_read) -> dict:
    """The first half of a decode: read the files in order, check each one's
    channels as soon as it is read, and gather from each raster the levels
    its resize reads, grouped by stored shape as {(c, h, w): (indices,
    levels, maxvals)}. ``first_read(path, c)`` runs after the first read
    and before any gather."""
    groups: dict[tuple, tuple[list, list, list]] = {}
    for i, path in enumerate(paths):
        raw, maxval = read_netpbm(path)
        c, h, w = raw.shape
        if c != channels and 1 not in (c, channels):
            raise DataError(f"{path}: cannot adapt {c}-channel image to {channels} channels")
        if i == 0:
            first_read(path, c)
        if (h, w) != (size, size):
            try:
                raw = _gather(raw, size)
            except (MemoryError, OverflowError, ValueError) as e:
                raise ConfigError(f"cannot resize to size {size}: {e}") from None
        indices, levels, maxvals = groups.setdefault((c, h, w), ([], [], []))
        indices.append(i)
        levels.append(raw)
        maxvals.append(maxval)
    return groups


def _write_levels(groups: dict, out: np.ndarray, size: int, channels: int) -> None:
    """The second half: per group, normalize, reduce RGB to gray when
    ``channels`` is 1, blend, and write into ``out`` [N, k, size, size],
    where k is ``channels``, or 1 when every image of ``groups`` is gray;
    a gray image is replicated to k planes."""
    for (c, h, w), (indices, levels, maxvals) in groups.items():
        try:
            img = np.stack(levels) / np.array(maxvals, dtype=np.float64)[:, None, None, None]
            if c > channels:
                img = img.mean(axis=1, keepdims=True)
            if (h, w) != (size, size):
                img = _interpolate(img, h, w)
        except (MemoryError, OverflowError, ValueError) as e:
            raise ConfigError(f"cannot resize to size {size}: {e}") from None
        out[indices] = img


def load_image(path: str | Path, size: int, channels: int = 3) -> Tensor:
    """Read one netpbm image as [channels, size, size] float64 intensities
    in [0, 1], adapted to ``channels`` and resized: a ``decode`` of one
    file."""
    return Tensor(decode([path], size, channels, np.float64)[0])


def _is_netpbm(entry: os.DirEntry) -> bool:
    """Whether a directory entry is a file with a netpbm suffix, by the
    rules of ``Path.suffix`` and ``Path.is_file``."""
    name = entry.name
    dot = name.rfind(".")
    if dot <= 0 or name[dot:].lower() not in _EXTENSIONS:
        return False
    try:
        return entry.is_file()
    except OSError:  # a symlink loop, say: ``Path.is_file`` decides
        return Path(entry.path).is_file()


def list_directory(root: str | Path) -> Listing:
    """The netpbm files under ``root/<class>/``: classes in sorted name
    order, files sorted within each. Every class directory must hold at
    least one. Deterministic in directory contents."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"{root}: not a directory")
    class_dirs = sorted((d for d in root.iterdir() if d.is_dir()),
                        key=lambda d: d.name)
    if not class_dirs:
        raise DataError(f"{root}: contains no class subdirectories")
    files: list[tuple[Path, int]] = []
    for label, class_dir in enumerate(class_dirs):
        # within one directory, names sort as their paths do
        with os.scandir(class_dir) as entries:
            names = sorted(e.name for e in entries if _is_netpbm(e))
        if not names:
            raise DataError(f"{class_dir}: class directory contains no netpbm images")
        files += [(class_dir / name, label) for name in names]
    return Listing(files, [d.name for d in class_dirs])


def load_directory(root: str | Path, target_size: int, channels: int = 3,
                   dtype=np.float64) -> Dataset:
    """Load every netpbm image that ``list_directory`` finds under ``root``,
    normalized to [0, 1] and resized to ``target_size``, into one array in
    ``dtype``: each image is its ``decode``, bit for bit.

    The array is allocated after the first read and filled one chunk of
    files at a time (``LOAD_CHUNK``, ``LOAD_BYTES``), each chunk read and
    blended as one ``decode`` does, so the load holds the array and one
    chunk, and reads each file once. Gray images are held as one plane
    each, which ``Dataset.batch`` replicates, so a gray first file also
    checks that one image replicated to ``channels`` can be allocated. The
    first color file kept in color (``channels`` > 1) widens the array to
    ``channels`` planes, replicating the gray planes loaded before it;
    only that copy holds two arrays.
    """
    listing = list_directory(root)
    paths = [f for f, _ in listing.files]
    n, size = len(paths), target_size
    chunk = max(1, min(LOAD_CHUNK, LOAD_BYTES // (4 * 8 * size * size)))
    images = None

    def allocate(path, c: int) -> None:
        nonlocal images
        if images is not None:
            return
        planes = channels if c > 1 else 1
        images = _empty((n, planes, size, size), dtype, f"cannot resize to size {size}")
        if planes < channels:
            _empty((1, channels, size, size), dtype,
                   f"{path}: cannot replicate gray to {channels} channels at size {size}")

    for start in range(0, n, chunk):
        groups = _read_levels(paths[start:start + chunk], size, channels, allocate)
        if images.shape[1] < channels and any(c > 1 for c, _, _ in groups):
            wide = _empty((n, channels, size, size), dtype, f"cannot resize to size {size}")
            wide[:start] = images[:start]
            images = wide
        _write_levels(groups, images[start:start + chunk], size, channels)
    return Dataset(images, [label for _, label in listing.files], map(str, paths),
                   listing.class_names, channels)


def write_samples(samples: Iterable[Sample], class_names: list[str],
                  out_dir: str | Path) -> list[Path]:
    """Write each sample's first channel as an 8-bit PGM under
    ``out_dir/<class>/``, suitable for reloading with ``load_directory``.
    The samples may be drawn as they are written: each is written before
    the next is taken."""
    out_dir = Path(out_dir)
    counters = [0] * len(class_names)
    paths: list[Path] = []
    for sample in samples:
        name = class_names[sample.label]
        class_dir = out_dir / name
        if not counters[sample.label]:  # the class's first image makes its directory
            class_dir.mkdir(parents=True, exist_ok=True)
        path = class_dir / f"{name.lower()}_{counters[sample.label]:04d}.pgm"
        counters[sample.label] += 1
        write_pgm(path, sample.image.data[0])
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
    variant. Identical arguments produce identical datasets. Each image is
    held as one float64 gray plane, which ``Dataset.batch`` replicates to
    ``channels``.
    """
    samples = list(synth_samples(n_per_class, size, shift, seed, channels=1))
    return Dataset(np.stack([s.image.data for s in samples]), [s.label for s in samples],
                   [s.source_id for s in samples], CLASS_NAMES, channels)


def synth_samples(n_per_class: int, size: int, shift: str = "none",
                  seed: int = 0, channels: int = 3) -> Iterator[Sample]:
    """The samples of ``synth_generate``, in its order, each drawn only when
    it is taken. The arguments are checked here, before the first draw; a
    size too large for numpy to allocate is a ConfigError at the draw."""
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if size < 16:
        raise ConfigError(f"size must be >= 16, got {size}")
    if shift not in SHIFTS:
        raise ConfigError(f"shift must be {' or '.join(map(repr, SHIFTS))}, got {shift!r}")
    if channels < 1:
        raise ConfigError(f"channels must be >= 1, got {channels}")
    rng = make_rng(seed, SYNTH)

    def draw() -> Iterator[Sample]:
        for label, name in enumerate(CLASS_NAMES):
            for i in range(n_per_class):
                try:
                    plane = _synth_image(rng, size, label, shift == "wild")
                except (MemoryError, OverflowError, ValueError) as e:
                    raise ConfigError(
                        f"an image of size {size} cannot be allocated: {e}") from None
                img = np.repeat(plane[None, :, :], channels, axis=0)
                yield Sample(Tensor(img), label, f"synth/{name}/{shift}/{seed}/{i}")

    return draw()


# ---------------------------------------------------------------------------
# folds


def stratified_folds(dataset: Dataset, folds: int,
                     seed: int = 0) -> list[tuple[list[int], list[int]]]:
    """Assign each sample to exactly one validation fold, shuffling within
    each class so folds are class-balanced. Returns (train, val) index
    lists, both sorted, for each fold."""
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    labels = dataset.labels
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
