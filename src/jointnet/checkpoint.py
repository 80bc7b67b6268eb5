"""Binary checkpoint format (magic ``JANW``, version 3).

Layout, all integers little-endian:

* 4-byte magic ``JANW``, then u8 format version.
* u32 byte length + UTF-8 ``key = value`` block holding two records: the
  architecture dims (the fields of ``ArchConfig``, in declaration order),
  then the payload ``dtype`` (``float32`` or ``float64``), the epoch the
  snapshot was taken at (1 or more), and its finite validation loss
  (floats written via ``repr`` so they round-trip bit-exactly).
* u32 parameter tensor count, then one record per parameter in canonical
  order: u16 name length + UTF-8 name, u8 rank, u32 per-dim sizes,
  row-major payload of little-endian ``dtype`` values (4 or 8 bytes
  each). The last record ends the file.

A checkpoint is the model: the optimizer state is not saved. Its
parameters load in the dtype they were saved in, so a model evaluates in
the dtype it trained in. Every payload value is finite. Writing the same
state twice yields identical bytes. Earlier versions (2 held float64
payloads and no ``dtype`` key) are refused, as every unknown version is.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fileio import write_atomic
from .kvio import format_kv, parse_kv, parse_records, record_pairs
from .network import ArchConfig, JointNetwork, parameter_specs
from .tensor import FLOAT_DTYPES, Tensor

MAGIC = b"JANW"
VERSION = 3
# the payload dtypes by header name: the compute dtypes, little-endian
DTYPES = {d.name: d.newbyteorder("<") for d in FLOAT_DTYPES}


@dataclass
class Checkpoint:
    """A training snapshot: architecture, parameters (arrays of one dtype,
    float32 or float64), and the epoch it was taken at with its validation
    loss."""

    arch: ArchConfig
    params: dict[str, np.ndarray]
    epoch: int
    best_val_loss: float


@dataclass(frozen=True)
class _Snapshot:
    """The header keys after the architecture's."""

    dtype: str
    epoch: int
    best_val_loss: float

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}")
        if self.epoch < 1:
            raise ConfigError(f"epoch must be >= 1, got {self.epoch}")
        # every loss training records is finite, so nan or inf is corruption
        if not math.isfinite(self.best_val_loss):
            raise ConfigError(f"best_val_loss must be finite, got {self.best_val_loss}")


def to_network(ckpt: Checkpoint) -> JointNetwork:
    return JointNetwork(ckpt.arch, {name: Tensor(arr.copy())
                                    for name, arr in ckpt.params.items()})


def _tensor_record(buf: bytearray, name: str, arr: np.ndarray, dtype: np.dtype) -> None:
    encoded = name.encode("utf-8")
    buf += struct.pack("<H", len(encoded))
    buf += encoded
    buf += struct.pack("<B", arr.ndim)
    for dim in arr.shape:
        buf += struct.pack("<I", dim)
    buf += np.ascontiguousarray(arr, dtype=dtype).tobytes()


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write ``ckpt`` in the dtype of its parameters, which must share one:
    float32 or float64. An epoch below 1 or a non-finite loss, which no
    load accepts, is a ``ConfigError``."""
    names = [name for name, _ in parameter_specs(ckpt.arch)]
    dtypes = {ckpt.params[name].dtype.name for name in names}
    if len(dtypes) != 1 or not dtypes <= DTYPES.keys():
        raise ValueError(f"checkpoint parameters must share one dtype of "
                         f"{sorted(DTYPES)}, got {sorted(dtypes)}")
    (dtype_name,) = dtypes
    snapshot = _Snapshot(dtype_name, ckpt.epoch, float(ckpt.best_val_loss))
    header = format_kv(record_pairs(ckpt.arch) + record_pairs(snapshot)).encode("utf-8")
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<B", VERSION)
    buf += struct.pack("<I", len(header))
    buf += header
    buf += struct.pack("<I", len(names))
    for name in names:
        _tensor_record(buf, name, ckpt.params[name], DTYPES[dtype_name])
    write_atomic(path, buf)


class _Cursor:
    def __init__(self, data: bytes, source: str):
        self.data = data
        self.off = 0
        self.source = source

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.data):
            raise DataError(
                f"{self.source}: truncated at byte {self.off}: needed {n} bytes "
                f"for {what}, {len(self.data) - self.off} remain")
        chunk = self.data[self.off:self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]


def _read_record(cur: _Cursor, expect_name: str, expect_shape: tuple[int, ...],
                 dtype: np.dtype) -> np.ndarray:
    name_len = cur.unpack("<H", "tensor name length")
    name = cur.take(name_len, "tensor name")
    if name != expect_name.encode("utf-8"):
        raise DataError(
            f"{cur.source}: tensor name mismatch at byte {cur.off}: "
            f"found {name.decode('utf-8', 'replace')!r}, expected '{expect_name}'")
    shape_at = cur.off
    rank = cur.unpack("<B", "tensor rank")
    shape = tuple(cur.unpack("<I", "tensor dim") for _ in range(rank))
    if shape != expect_shape:
        raise DataError(
            f"{cur.source}: tensor '{expect_name}' has shape {shape} at byte "
            f"{shape_at}, expected {expect_shape}")
    count = math.prod(shape)
    at = cur.off
    size = dtype.itemsize
    values = np.frombuffer(cur.take(size * count, f"tensor '{expect_name}' payload"),
                           dtype=dtype)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise DataError(f"{cur.source}: tensor '{expect_name}' holds non-finite "
                        f"{values[i]} at byte {at + size * i}")
    return values.reshape(shape).astype(dtype.newbyteorder("="))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read checkpoint: {e}") from e
    cur = _Cursor(data, str(path))
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    version = cur.unpack("<B", "format version")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version} at byte 4")

    header_len = cur.unpack("<I", "header length")
    header_at = cur.off
    try:
        header = parse_kv(cur.take(header_len, "header").decode("utf-8"),
                          source=f"{path}#header")
    except UnicodeDecodeError as e:
        raise DataError(
            f"{path}: header is not UTF-8 at byte {header_at + e.start}") from e
    except ConfigError as e:
        raise DataError(f"{path}: malformed header at byte {header_at}: {e}") from e
    expected_keys = {f.name for kind in (ArchConfig, _Snapshot) for f in fields(kind)}
    if set(header) != expected_keys:
        raise DataError(
            f"{path}: header keys {sorted(header)} at byte {header_at} do not match "
            f"{sorted(expected_keys)}")
    try:
        arch, snapshot = parse_records((ArchConfig, _Snapshot), header, f"{path}#header")
    except ConfigError as e:
        raise DataError(f"{path}: invalid header at byte {header_at}: {e}") from e

    specs = parameter_specs(arch)
    count_at = cur.off
    count = cur.unpack("<I", "tensor count")
    if count != len(specs):
        raise DataError(
            f"{path}: {count} parameter tensors at byte {count_at}, architecture "
            f"requires {len(specs)}")
    params = {name: _read_record(cur, name, shape, DTYPES[snapshot.dtype])
              for name, shape in specs}
    if cur.off != len(data):
        raise DataError(
            f"{path}: {len(data) - cur.off} trailing bytes after the last "
            f"tensor record at byte {cur.off}")
    return Checkpoint(arch, params, snapshot.epoch, snapshot.best_val_loss)
