"""Netpbm image reading and writing.

Reads P2/P5 (grayscale) and P3/P6 (RGB) with maxval 1..65535; binary
rasters use one byte per sample below 256, two big-endian bytes otherwise.
Parse errors carry the file path and byte offset. Writing emits P5.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError

_WHITESPACE = b" \t\r\n\x0b\x0c"


class _Scanner:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def fail(self, message: str) -> None:
        raise DataError(f"{self.path}: {message} at byte {self.off}")

    def skip_space(self) -> None:
        data = self.data
        while self.off < len(data):
            byte = data[self.off:self.off + 1]
            if byte in _WHITESPACE:
                self.off += 1
            elif byte == b"#":
                while self.off < len(data) and data[self.off:self.off + 1] != b"\n":
                    self.off += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self.skip_space()
        start = self.off
        data = self.data
        while self.off < len(data) and data[self.off:self.off + 1] not in _WHITESPACE:
            if data[self.off:self.off + 1] == b"#":
                break
            self.off += 1
        if self.off == start:
            self.fail(f"unexpected end of data while reading {what}")
        return data[start:self.off]

    def int_token(self, what: str, lo: int, hi: int) -> int:
        tok = self.token(what)
        try:
            value = int(tok)
        except ValueError:
            self.fail(f"{what} is not an integer: {tok!r}")
        if not lo <= value <= hi:
            self.fail(f"{what} {value} outside [{lo}, {hi}]")
        return value


def read_netpbm(path: str | Path) -> tuple[np.ndarray, int]:
    """Returns (integer samples as float64 [C,H,W], maxval).

    C is 1 for P2/P5 and 3 for P3/P6. Values are the raw stored levels;
    divide by maxval for intensities.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read file: {e}") from e
    sc = _Scanner(data, str(path))
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        sc.fail(f"unsupported netpbm magic {magic!r}")
    sc.off = 2
    channels = 3 if magic in (b"P3", b"P6") else 1
    width = sc.int_token("width", 1, 1 << 31)
    height = sc.int_token("height", 1, 1 << 31)
    maxval = sc.int_token("maxval", 1, 65535)
    count = width * height * channels

    if magic in (b"P5", b"P6"):
        if sc.off >= len(data) or data[sc.off:sc.off + 1] not in _WHITESPACE:
            sc.fail("expected a single whitespace byte after maxval")
        sc.off += 1
        bytes_per = 2 if maxval > 255 else 1
        need = count * bytes_per
        if len(data) - sc.off < need:
            sc.fail(f"raster truncated: need {need} bytes, have {len(data) - sc.off}")
        raw = data[sc.off:sc.off + need]
        sc.off += need
        if sc.off != len(data):
            sc.fail(f"{len(data) - sc.off} trailing bytes after raster")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    else:
        # every sample but the last takes at least a digit and a separator,
        # so the bytes left bound the count before anything is allocated
        left = len(data) - sc.off
        if count > (left + 1) // 2:
            sc.fail(f"raster truncated: header declares {count} samples but "
                    f"only {left} bytes remain")
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            values[i] = sc.int_token("sample", 0, 1 << 31)
        sc.skip_space()
        if sc.off != len(data):
            sc.fail(f"{len(data) - sc.off} trailing bytes after raster")
    if values.max(initial=0) > maxval:
        raise DataError(
            f"{path}: raster contains value {int(values.max())} above maxval {maxval}")

    if channels == 1:
        return values.reshape(1, height, width), maxval
    return values.reshape(height, width, 3).transpose(2, 0, 1), maxval


def write_pgm(path: str | Path, levels: np.ndarray, maxval: int = 255) -> None:
    """Write integer gray levels [H,W] as binary P5."""
    levels = np.asarray(levels)
    if levels.ndim != 2:
        raise ValueError(f"write_pgm expects [H,W], got shape {levels.shape}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval must be within [1, 65535], got {maxval}")
    rounded = np.rint(levels)
    if rounded.min() < 0 or rounded.max() > maxval:
        raise ValueError(
            f"levels range [{levels.min()}, {levels.max()}] outside [0, {maxval}]")
    h, w = levels.shape
    header = f"P5\n{w} {h}\n{maxval}\n".encode("ascii")
    dtype = ">u2" if maxval > 255 else np.uint8
    Path(path).write_bytes(header + rounded.astype(dtype).tobytes())
