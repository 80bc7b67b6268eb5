"""Property tests at the input boundary: netpbm images, config text and
checkpoints.

On arbitrary bytes and on mutated valid P2/P3/P5/P6 files, ``read_netpbm``
and ``load_image`` either return or raise ``DataError``, never another
exception type. Both are also checked against the earlier per-byte scanner,
per-token ASCII loop and float path (``image_oracles``): the same values, or
the same error message with the same byte offset.

On arbitrary and mutated config text, ``parse_config_text`` either returns a
``RunConfig`` or raises ``ConfigError``; on arbitrary and mutated checkpoint
files, ``load_checkpoint`` either returns or raises ``DataError``. Any other
exception fails the test.

Each reader also runs under ``tracemalloc``: whether it returns or raises,
its peak allocation must stay within a straight line in the input's size,
so no header can make a reader allocate more than the file justifies. A
few valid inputs of tens of kilobytes test the line's slope, which the
small fuzz inputs leave to the base.
"""

import math
import re
import struct
import tracemalloc
from dataclasses import astuple, fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jointnet import (ArchConfig, Checkpoint, ConfigError, DataError, RunConfig,
                      TrainConfig, build, load_checkpoint, load_image,
                      parse_config_text, read_netpbm, save_checkpoint)
from jointnet.checkpoint import _Snapshot
from jointnet.kvio import format_kv, parse_kv

import image_oracles as parent

MAGICS = ("P2", "P3", "P5", "P6")
# ASCII separators, including comments that end a token and run to a newline
SEPARATORS = (" ", "\n", "\t", "  ", "\r\n", "\x0b", "\x0c", "#c\n", " # note\n")
LOAD_ARGS = ((1, 1), (3, 3), (4, 1), (2, 2))  # (size, channels)
# Peak allocation bounds, (slope in bytes per input byte, base in bytes).
# The slope is what a large valid input needs: an ASCII raster holds the
# file plus an int64 per sample, about 5 bytes per byte; config text holds
# a string object per line, about 20 bytes per byte of 3-byte lines; a
# checkpoint holds the file plus its float64 parameters, about 2. The base
# covers the fixed cost of a call: over every example here the largest
# peak - slope * size was 13,038 bytes (netpbm), 14,731 (config) and 14,722
# (checkpoint).
NETPBM_BOUND = (6, 20 * 1024)
CONFIG_BOUND = (24, 20 * 1024)
CHECKPOINT_BOUND = (4, 20 * 1024)


def _traced(bound: tuple[int, int], n_bytes: int, call, *args):
    """``call(*args)``, whose peak allocation, whether it returns or raises,
    must stay within ``slope * n_bytes + base`` for ``bound = (slope, base)``."""
    tracemalloc.start()
    try:
        return call(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        slope, base = bound
        assert peak <= slope * n_bytes + base, (
            f"{call.__name__} allocated {peak} bytes for a {n_bytes}-byte input")


@pytest.fixture(scope="module")
def file_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "image.pnm"


@st.composite
def valid_files(draw):
    magic = draw(st.sampled_from(MAGICS))
    maxval = draw(st.sampled_from([1, 15, 255, 256, 1000, 65535]) | st.integers(1, 65535))
    c = 3 if magic in ("P3", "P6") else 1
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    levels = np.array(draw(st.lists(st.integers(0, maxval), min_size=c * h * w,
                                    max_size=c * h * w))).reshape(c, h, w)
    separators = tuple(draw(st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=3)))
    return parent.encode_netpbm(magic, levels, maxval, separators)


INSERTS = (b" ", b"\n", b"#", b"-", b"+", b"_", b"9", b"0", b"65536",
           b"99999999999999999999", b"x", b"\x00", b"\xff")


@st.composite
def mutated_files(draw):
    data = bytearray(draw(valid_files()))
    # the three header lines that encode_netpbm writes
    raster_start = sum(len(line) + 1 for line in data.split(b"\n", 3)[:3])
    for _ in range(draw(st.integers(1, 3))):
        # most mutations land in the raster, the rest anywhere
        pos = draw(st.integers(draw(st.sampled_from([0, raster_start, raster_start])),
                               max(len(data), raster_start)))
        kind = draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
        if kind == "replace" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif kind == "delete":
            del data[pos:pos + draw(st.integers(1, 4))]
        elif kind == "insert":
            data[pos:pos] = draw(st.sampled_from(INSERTS) | st.binary(min_size=1, max_size=3))
        else:
            del data[pos:]
    return bytes(data)


@st.composite
def over_declared_files(draw):
    """A header declaring at least 4096 samples over a raster of at most
    40: a reader that sizes an array by the header before its truncation
    check allocates far more than the bound allows for so short a file."""
    magic = draw(st.sampled_from(MAGICS))
    maxval = draw(st.sampled_from([1, 255, 256, 65535]))
    w, h = draw(st.integers(64, 1024)), draw(st.integers(64, 1024))
    header = f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii")
    samples = draw(st.lists(st.integers(0, maxval), max_size=40))
    if magic in ("P5", "P6"):
        dtype = ">u2" if maxval > 255 else np.uint8
        return header + np.array(samples, dtype=dtype).tobytes()
    return header + " ".join(map(str, samples)).encode("ascii")


def _same_as_parent(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        expected, expected_maxval = parent.read_netpbm_bytes(data, str(path))
    except DataError as e:
        with pytest.raises(DataError) as got:
            _traced(NETPBM_BOUND, len(data), read_netpbm, path)
        assert str(got.value) == str(e)
        with pytest.raises(DataError):
            _traced(NETPBM_BOUND, len(data), load_image, path, 2, 3)
        return
    raw, maxval = _traced(NETPBM_BOUND, len(data), read_netpbm, path)
    assert raw.dtype.kind in "ui"
    assert maxval == expected_maxval
    assert raw.shape == expected.shape
    assert raw.astype(np.float64).tobytes() == expected.tobytes()
    for size, channels in LOAD_ARGS:
        try:
            want = parent.load_levels(expected, maxval, size, channels, str(path))
        except DataError as e:
            with pytest.raises(DataError) as got:
                _traced(NETPBM_BOUND, len(data), load_image, path, size, channels)
            assert str(got.value) == str(e)
            continue
        image = _traced(NETPBM_BOUND, len(data), load_image, path, size, channels)
        assert image.data.tobytes() == want.tobytes()


@given(st.binary(max_size=64))
def test_arbitrary_bytes(file_path, data):
    _same_as_parent(file_path, data)


@given(st.sampled_from([m.encode() for m in MAGICS]), st.binary(max_size=48))
@example(b"P2", b" 4000 4000 255\n1 2 3\n")  # 16M samples declared, 3 present
@example(b"P6", b" 4000 4000 255\n123")
def test_arbitrary_bytes_after_magic(file_path, magic, rest):
    _same_as_parent(file_path, magic + rest)


@given(valid_files())
def test_valid_files(file_path, data):
    _same_as_parent(file_path, data)
    read_netpbm(file_path)  # a valid file parses


@given(mutated_files())
def test_mutated_files(file_path, data):
    _same_as_parent(file_path, data)


@given(over_declared_files())
def test_over_declared_files(file_path, data):
    _same_as_parent(file_path, data)


class TestAsciiAgainstLoop:
    """Hand-picked ASCII rasters: the reader and the earlier per-token
    loop give the same values or the same error and offset. ``+1`` and
    ``1_0`` are errors in both: a token is ASCII digits only."""

    @pytest.mark.parametrize("raster", [
        b"1 2 3 4", b"1 2 3 4\n", b"  1\t2\r\n3\x0b4\x0c", b"1#c\n2 3 4",
        b"1 2 3 4#trailing comment", b"1 2 3 4 # c\n \n", b"1 2#c\n#d\n3 4",
        b"+1 2 3 4", b"1_0 2 3 4", b"0001 2 3 4",
        b"1 2 3", b"1 2 3 #4", b"1 2 3 4 5", b"1 2 3 4 x",
        b"1 a 3 4", b"1 2 -3 4", b"1 2 3 2147483649", b"1 2 3 2147483648",
        b"1 2 3 99999999999999999999",
        pytest.param(b"1 2 3 " + b"9" * 5000, id="5000-digit-sample"),
        b"1 2\x00 3 4", b"1 2 3 4\xff", b"1 2 3 300",
    ])
    def test_raster(self, tmp_path, raster):
        _same_as_parent(tmp_path / "a.pgm", b"P2\n2 2\n255\n" + raster)

    def test_comment_in_p3(self, tmp_path):
        _same_as_parent(tmp_path / "c.ppm",
                        b"P3 1 2 255\n1 2 3 # first pixel\n4#x\n5 6\n")


@pytest.mark.parametrize("magic, size", [("P5", 256), ("P2", 128)])
def test_large_raster_within_bound(tmp_path, magic, size):
    """A valid raster of tens of kilobytes, where a bound's slope and not
    its base decides: a reader that kept a few more copies of the raster
    passes every small fuzz input above and fails here."""
    levels = np.random.default_rng(size).integers(0, 256, size=(1, size, size))
    data = parent.encode_netpbm(magic, levels, 255)
    path = tmp_path / "large.pgm"
    path.write_bytes(data)
    raw, maxval = _traced(NETPBM_BOUND, len(data), read_netpbm, path)
    assert maxval == 255 and np.array_equal(raw, levels)
    # the eval path: a wild image resized to the recipe's 32 px RGB
    image = _traced(NETPBM_BOUND, len(data), load_image, path, 32, 3)
    assert image.shape == (3, 32, 32)


# ---------------------------------------------------------------------------
# config text and checkpoint headers

KEYS = [key for key, _ in RunConfig().pairs()]
# values a hand-edited or corrupted file might hold, for every field type
VALUES = ("", "0", "1", "-1", "2", "3", "16", "0.5", "1.5", "-0.0", "1e-07",
          "1e-300", "1e999", "-1e999", "inf", "-inf", "nan", "1_6", "0x10",
          "4294967296", "9" * 4300, "9" * 4301, "joint", "backbone", "hybrid",
          "=", "#", "two words")
value_text = st.sampled_from(VALUES) | st.text(max_size=6)
# n_stages + 1 has 4,301 digits here, one more than Python will print
DEEP = "9" * 4300


def _number_keys(*kinds) -> set[str]:
    return {key for kind in kinds for key, t in get_type_hints(kind).items()
            if t in (int, float)}


def _plain_numbers(raw: dict[str, str], keys: set[str]) -> bool:
    """Whether every number among ``raw``'s ``keys`` is ASCII without
    ``_``, the one number syntax of ``key = value`` files."""
    return all(raw[key].isascii() and "_" not in raw[key] for key in keys & raw.keys())


def _check_config(text: str) -> None:
    """The property: a RunConfig whose numbers are finite and were written
    in ASCII without ``_``, and whose pairs read back to it, or a
    ConfigError."""
    try:
        run = _traced(CONFIG_BOUND, len(text.encode("utf-8")), parse_config_text, text)
    except ConfigError:
        return
    assert isinstance(run, RunConfig)
    numbers = astuple(run.arch) + astuple(run.train)
    assert all(math.isfinite(v) for v in numbers if isinstance(v, float))
    assert _plain_numbers(parse_kv(text), _number_keys(ArchConfig, TrainConfig))
    assert parse_config_text(format_kv(run.pairs())) == run


@given(st.text(max_size=80))
def test_config_arbitrary_text(text):
    _check_config(text)


@st.composite
def mutated_configs(draw):
    lines = [f"{key} = {value}" for key, value in RunConfig().pairs()]
    lines = draw(st.lists(st.sampled_from(lines), max_size=len(lines), unique=True))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["value", "value", "key", "line", "chars", "truncate"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "value" and lines:
            key = lines[at % len(lines)].partition(" =")[0]
            lines[at % len(lines)] = f"{key} = {draw(value_text)}"
        elif kind == "key":
            lines.insert(at, f"{draw(st.sampled_from(KEYS))} = {draw(value_text)}")
        elif kind == "line":
            lines.insert(at, draw(st.text(max_size=12)))
        elif kind == "chars":
            text = "\n".join(lines)
            pos = draw(st.integers(0, len(text)))
            lines = (text[:pos] + draw(st.text(min_size=1, max_size=3))
                     + text[pos:]).split("\n")
        else:
            lines = lines[:at]
    return "\n".join(lines) + "\n"


@given(mutated_configs())
@example(f"n_stages = {DEEP}\n")
@example("lr = inf\n")
@example("lr = 1e999\n")
@example("epochs = 1_0\n")
@example("epochs = \u0663\n")
@example("phi = \u0660.5\n")
@example("lr = 1_0e-4\n")
def test_config_mutated(text):
    _check_config(text)


CKPT_ARCH = ArchConfig(n_stages=1, input_channels=1, input_size=16, base_channels=2)
HEADER_KEYS = [f.name for kind in (ArchConfig, _Snapshot) for f in fields(kind)]


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """A valid checkpoint's bytes and a path to write mutated ones to."""
    root = tmp_path_factory.mktemp("ckpt")
    net = build(CKPT_ARCH, seed=0)
    save_checkpoint(Checkpoint(CKPT_ARCH, {name: p.data for name, p in net.params.items()},
                               3, 0.1 + 0.2), root / "valid.ckpt")
    return (root / "valid.ckpt").read_bytes(), root / "fuzzed.ckpt"


def _set_header(blob: bytes, edits) -> bytes:
    """``blob`` with each (key, value) edit applied to its header text and
    the header length field updated to match."""
    (length,) = struct.unpack("<I", blob[5:9])
    header = blob[9:9 + length].decode("utf-8")
    for key, value in edits:
        header = re.sub(rf"^{key} = .*$", lambda _: f"{key} = {value}", header,
                        count=1, flags=re.MULTILINE)
    encoded = header.encode("utf-8")
    return blob[:5] + struct.pack("<I", len(encoded)) + encoded + blob[9 + length:]


def _apply_bytes(blob: bytes, edits) -> bytes:
    """``blob`` after byte-level (kind, position, argument) edits; positions
    wrap around the current length."""
    data = bytearray(blob)
    for kind, pos, arg in edits:
        pos %= len(data) + 1
        if kind == "replace" and pos < len(data):
            data[pos] = arg[0]
        elif kind == "insert":
            data[pos:pos] = arg
        elif kind == "delete":
            del data[pos:pos + len(arg)]
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


def _check_checkpoint(path, data: bytes) -> None:
    """The property: a checkpoint whose numbers are all finite, whose
    header numbers were written in ASCII without ``_`` and whose epoch is
    1 or more, or a DataError."""
    path.write_bytes(data)
    try:
        ckpt = _traced(CHECKPOINT_BOUND, len(data), load_checkpoint, path)
    except DataError:
        return
    assert isinstance(ckpt.arch, ArchConfig)
    assert math.isfinite(ckpt.best_val_loss)
    assert ckpt.epoch >= 1
    (length,) = struct.unpack("<I", data[5:9])
    header = parse_kv(data[9:9 + length].decode("utf-8"))
    assert _plain_numbers(header, _number_keys(ArchConfig, _Snapshot))
    assert all(np.isfinite(arr).all() for arr in ckpt.params.values())


header_edits = st.lists(st.tuples(st.sampled_from(HEADER_KEYS), value_text), max_size=3)
byte_edits = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete", "truncate"]),
                                st.integers(0, 1 << 16), st.binary(min_size=1, max_size=4)),
                      max_size=3)


@given(header_edits, byte_edits)
@example([("n_stages", DEEP)], [])
@example([("best_val_loss", "1e999")], [])
@example([("base_channels", "4294967296")], [])
@example([("epoch", "0")], [])
@example([("epoch", "\u0663")], [])
@example([("epoch", "1_0")], [])
@example([("dtype", "float16")], [])
@example([("best_val_loss", "\u0660.5")], [])
def test_checkpoint_mutated(checkpoint_bytes, headers, edits):
    blob, path = checkpoint_bytes
    _check_checkpoint(path, _apply_bytes(_set_header(blob, headers), edits))


def test_recipe_checkpoint_within_bound(tmp_path):
    """A full recipe checkpoint, 41,424 bytes in float32: its parameters
    are most of the file, so a loader that copied them a few more times
    fails here."""
    arch = ArchConfig()
    params = {name: p.data for name, p in build(arch, seed=0).params.items()}
    path = tmp_path / "recipe.ckpt"
    save_checkpoint(Checkpoint(arch, params, 3, 0.25), path)
    ckpt = _traced(CHECKPOINT_BOUND, path.stat().st_size, load_checkpoint, path)
    assert all(np.array_equal(ckpt.params[name], value) for name, value in params.items())


@given(st.sampled_from([b"", b"JANW", b"JANW\x02"]), st.binary(max_size=64))
def test_checkpoint_arbitrary_bytes(checkpoint_bytes, prefix, rest):
    _check_checkpoint(checkpoint_bytes[1], prefix + rest)
