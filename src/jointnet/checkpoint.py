"""Binary checkpoint format (magic ``JANW``, version 1).

Layout, all integers little-endian:

* 4-byte magic ``JANW``, then u8 format version.
* u32 byte length + UTF-8 ``key = value`` block holding the architecture
  dims (the fields of ``ArchConfig``, in declaration order), the epoch the
  snapshot was taken at, and its validation loss (floats written via
  ``repr`` so they round-trip bit-exactly).
* u32 parameter tensor count, then one record per parameter in canonical
  order: u16 name length + UTF-8 name, u8 rank, u32 per-dim sizes,
  float64 row-major payload.
* Optimizer state in the same record format, interleaved per parameter as
  ``<name>.m`` then ``<name>.v``.
* u64 optimizer step counter.

Writing the same state twice yields identical bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .kvio import format_kv, parse_kv
from .network import ArchConfig, JointNetwork, parameter_specs
from .tensor import Tensor

MAGIC = b"JANW"
VERSION = 1


@dataclass
class Checkpoint:
    """A training snapshot: architecture, parameters, Adam state, position."""

    arch: ArchConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int
    epoch: int
    best_val_loss: float


def to_network(ckpt: Checkpoint) -> JointNetwork:
    return JointNetwork(ckpt.arch, {name: Tensor(arr.copy())
                                    for name, arr in ckpt.params.items()})


def _tensor_record(buf: bytearray, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    buf += struct.pack("<H", len(encoded))
    buf += encoded
    buf += struct.pack("<B", arr.ndim)
    for dim in arr.shape:
        buf += struct.pack("<I", dim)
    buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    names = [name for name, _, _ in parameter_specs(ckpt.arch)]
    header = format_kv(
        [(f.name, getattr(ckpt.arch, f.name)) for f in fields(ArchConfig)]
        + [("epoch", ckpt.epoch),
           ("best_val_loss", repr(float(ckpt.best_val_loss)))]).encode("utf-8")
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<B", VERSION)
    buf += struct.pack("<I", len(header))
    buf += header
    buf += struct.pack("<I", len(names))
    for name in names:
        _tensor_record(buf, name, ckpt.params[name])
    for name in names:
        _tensor_record(buf, name + ".m", ckpt.adam_m[name])
        _tensor_record(buf, name + ".v", ckpt.adam_v[name])
    buf += struct.pack("<Q", ckpt.step)
    Path(path).write_bytes(bytes(buf))


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


def _read_record(cur: _Cursor, expect_name: str, expect_shape: tuple[int, ...]) -> np.ndarray:
    name_len = cur.unpack("<H", "tensor name length")
    name = cur.take(name_len, "tensor name")
    if name != expect_name.encode("utf-8"):
        raise DataError(
            f"{cur.source}: tensor name mismatch at byte {cur.off}: "
            f"found {name.decode('utf-8', 'replace')!r}, expected '{expect_name}'")
    rank = cur.unpack("<B", "tensor rank")
    shape = tuple(cur.unpack("<I", "tensor dim") for _ in range(rank))
    if shape != expect_shape:
        raise DataError(
            f"{cur.source}: tensor '{expect_name}' has shape {shape}, "
            f"expected {expect_shape}")
    count = int(np.prod(shape)) if shape else 1
    raw = cur.take(8 * count, f"tensor '{expect_name}' payload")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


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
    # every architecture field is an integer, as is the epoch
    int_keys = [f.name for f in fields(ArchConfig)] + ["epoch"]
    expected_keys = set(int_keys) | {"best_val_loss"}
    if set(header) != expected_keys:
        raise DataError(
            f"{path}: header keys {sorted(header)} do not match {sorted(expected_keys)}")
    values: dict[str, int] = {}
    for key in int_keys:
        try:
            values[key] = int(header[key])
        except ValueError as e:
            raise DataError(f"{path}: header key '{key}' is not an integer: "
                            f"{header[key]!r}") from e
    try:
        best_val_loss = float(header["best_val_loss"])
    except ValueError as e:
        raise DataError(f"{path}: header key 'best_val_loss' is not a float") from e
    epoch = values.pop("epoch")
    try:
        arch = ArchConfig(**values)
    except ConfigError as e:
        raise DataError(f"{path}: invalid architecture in header: {e}") from e

    specs = parameter_specs(arch)
    count = cur.unpack("<I", "tensor count")
    if count != len(specs):
        raise DataError(
            f"{path}: {count} parameter tensors, architecture requires {len(specs)}")
    params = {name: _read_record(cur, name, shape) for name, shape, _ in specs}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for name, shape, _ in specs:
        adam_m[name] = _read_record(cur, name + ".m", shape)
        adam_v[name] = _read_record(cur, name + ".v", shape)
    step = cur.unpack("<Q", "step counter")
    if cur.off != len(data):
        raise DataError(
            f"{path}: {len(data) - cur.off} trailing bytes after step counter "
            f"at byte {cur.off}")
    return Checkpoint(arch, params, adam_m, adam_v, step, epoch, best_val_loss)
