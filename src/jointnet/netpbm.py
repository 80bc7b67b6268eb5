"""Netpbm image reading and writing.

Reads P2/P5 (grayscale) and P3/P6 (RGB) with maxval 1..65535; binary
rasters use one byte per sample below 256, two big-endian bytes otherwise.
Every header number and ASCII sample is ASCII digits only. Parse errors
carry the file path and byte offset. Writing emits 8-bit P5 only.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DataError

_WHITESPACE = b" \t\r\n\x0b\x0c"
# A comment runs from ``#`` to the end of its line. Between tokens lie
# whitespace and comments; a token is a run of bytes that are neither.
_SPACE = re.compile(rb"(?:[%s]+|#[^\n]*)*" % _WHITESPACE)
_TOKEN = re.compile(rb"[^#%s]*" % _WHITESPACE)


class _Scanner:
    def __init__(self, data: bytes, path: str | Path):
        self.data = data
        self.off = 0
        self.path = path

    def fail(self, message: str) -> None:
        raise DataError(f"{Path(self.path)}: {message} at byte {self.off}")

    def skip_space(self) -> None:
        self.off = _SPACE.match(self.data, self.off).end()

    def token(self, what: str) -> bytes:
        self.skip_space()
        start = self.off
        self.off = _TOKEN.match(self.data, start).end()
        if self.off == start:
            self.fail(f"unexpected end of data while reading {what}")
        return self.data[start:self.off]

    def int_token(self, what: str, lo: int, hi: int) -> int:
        tok = self.token(what)
        try:
            # ASCII digits only: int() also reads a sign and underscores
            if not tok.isdigit():
                raise ValueError
            value = int(tok)
        except ValueError:
            self.fail(f"{what} is not an integer: {tok!r}")
        if not lo <= value <= hi:
            self.fail(f"{what} {value} outside [{lo}, {hi}]")
        return value


def read_netpbm(path: str | Path) -> tuple[np.ndarray, int]:
    """Returns (stored integer levels [C,H,W], maxval) of the file at
    ``path``, a ``str`` or a ``Path``.

    C is 1 for P2/P5 and 3 for P3/P6. The levels are not converted:
    a binary raster is a read-only view over the file bytes (``uint8``,
    or big-endian ``>u2`` when maxval exceeds 255), and an ASCII raster
    is ``int64``. Divide by maxval for intensities. An error names the
    file as ``Path`` spells it.
    """
    try:
        with open(path, "rb", buffering=0) as f:  # one read, no buffer copy
            data = f.read()
    except OSError as e:
        raise DataError(f"{Path(path)}: cannot read file: {e}") from e
    sc = _Scanner(data, path)
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
        start = sc.off
        sc.off += need
        if sc.off != len(data):
            sc.fail(f"{len(data) - sc.off} trailing bytes after raster")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(data, dtype=dtype, count=count, offset=start)
    else:
        # every sample but the last takes at least a digit and a separator,
        # so the bytes left bound the count before anything is allocated
        left = len(data) - sc.off
        if count > (left + 1) // 2:
            sc.fail(f"raster truncated: header declares {count} samples but "
                    f"only {left} bytes remain")
        values = np.empty(count, dtype=np.int64)
        for i in range(count):
            values[i] = sc.int_token("sample", 0, 1 << 31)
        sc.skip_space()
        if sc.off != len(data):
            sc.fail(f"{len(data) - sc.off} trailing bytes after raster")
    # no scan where the dtype holds no level above maxval: uint8 at 255, >u2 at 65535
    if maxval < 256 ** values.itemsize - 1 and values.max(initial=0) > maxval:
        raise DataError(
            f"{Path(path)}: raster contains value {int(values.max())} above maxval {maxval}")

    if channels == 1:
        return values.reshape(1, height, width), maxval
    return values.reshape(height, width, 3).transpose(2, 0, 1), maxval


def write_pgm(path: str | Path, plane: np.ndarray) -> None:
    """Write intensities [H,W] in [0, 1] as 8-bit binary P5, each as level
    ``rint(255 * intensity)``."""
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ValueError(f"write_pgm expects [H,W], got shape {plane.shape}")
    if not 0 <= plane.min() <= plane.max() <= 1:  # NaN fails every comparison
        raise ValueError(f"intensities range [{plane.min()}, {plane.max()}] outside [0, 1]")
    h, w = plane.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.rint(255 * plane).astype(np.uint8).tobytes())
