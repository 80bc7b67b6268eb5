"""The image path as it was before rasters stayed integer: a per-byte
header scanner, a per-token ASCII loop, float64 rasters, and a bilinear
resize of the whole normalized image. Kept verbatim as the oracle the
current path must match bit for bit, except that a number token is ASCII
digits only, as the reader requires; also a netpbm encoder for tests."""

from __future__ import annotations

import numpy as np

from jointnet import DataError

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
            # ASCII digits only: int() also reads a sign and underscores
            if not tok.isdigit():
                raise ValueError
            value = int(tok)
        except ValueError:
            self.fail(f"{what} is not an integer: {tok!r}")
        if not lo <= value <= hi:
            self.fail(f"{what} {value} outside [{lo}, {hi}]")
        return value


def read_netpbm_bytes(data: bytes, path: str) -> tuple[np.ndarray, int]:
    """(samples as float64 [C,H,W], maxval) of the file bytes ``data``."""
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
        raw = data[sc.off:sc.off + need]
        sc.off += need
        if sc.off != len(data):
            sc.fail(f"{len(data) - sc.off} trailing bytes after raster")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    else:
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


def _axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, src - lo


def resize_array(img: np.ndarray, out_size: int) -> np.ndarray:
    c, h, w = img.shape
    if (h, w) == (out_size, out_size):
        return img.copy()
    ylo, yhi, yf = _axis_coords(h, out_size)
    xlo, xhi, xf = _axis_coords(w, out_size)
    rows = img[:, ylo, :] * (1.0 - yf)[None, :, None] + img[:, yhi, :] * yf[None, :, None]
    return (rows[:, :, xlo] * (1.0 - xf)[None, None, :]
            + rows[:, :, xhi] * xf[None, None, :])


def _adapt_channels(img: np.ndarray, channels: int, source: str) -> np.ndarray:
    c = img.shape[0]
    if c == channels:
        return img
    if c == 1:
        return np.repeat(img, channels, axis=0)
    if channels == 1:
        return img.mean(axis=0, keepdims=True)
    raise DataError(f"{source}: cannot adapt {c}-channel image to {channels} channels")


def load_levels(raw: np.ndarray, maxval: int, size: int, channels: int,
                source: str) -> np.ndarray:
    """Normalize the whole float64 raster, then adapt and resize it."""
    img = raw / maxval
    if img.shape[0] == 1:
        return _adapt_channels(resize_array(img, size), channels, source)
    return resize_array(_adapt_channels(img, channels, source), size)


def encode_netpbm(magic: str, levels: np.ndarray, maxval: int,
                  separators: tuple[str, ...] = (" ",)) -> bytes:
    """Netpbm bytes of integer ``levels`` [C,H,W] (C is 3 for P3/P6).
    ASCII samples are joined by ``separators``, used in turn."""
    _, h, w = levels.shape
    header = f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii")
    samples = np.asarray(levels).transpose(1, 2, 0).reshape(-1)
    if magic in ("P5", "P6"):
        dtype = ">u2" if maxval > 255 else np.uint8
        return header + samples.astype(dtype).tobytes()
    parts = []
    for i, value in enumerate(samples.tolist()):
        parts.append(str(value))
        parts.append(separators[i % len(separators)])
    return header + "".join(parts).encode("ascii")
