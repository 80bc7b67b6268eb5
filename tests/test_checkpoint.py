"""Checkpoint serialization: byte stability, round trips, corruption."""

import struct

import numpy as np
import pytest

from jointnet import (ArchConfig, Checkpoint, ConfigError, DataError, Tensor, build,
                      forward_joint, load_checkpoint, parameter_specs,
                      save_checkpoint, to_network)
from jointnet.checkpoint import DTYPES, _tensor_record

ARCH = ArchConfig(n_stages=1, input_channels=1, input_size=16, base_channels=2)
BOTH_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


def _checkpoint(seed=0, epoch=3, best=0.1 + 0.2, dtype=np.float32):
    net = build(ARCH, seed=seed, dtype=dtype)
    params = {name: p.data for name, p in net.params.items()}
    return Checkpoint(ARCH, params, epoch, best)


def as_float64(path, out):
    """Save the checkpoint at ``path`` with float64 parameters to ``out``."""
    ckpt = load_checkpoint(path)
    ckpt.params = {name: arr.astype(np.float64) for name, arr in ckpt.params.items()}
    save_checkpoint(ckpt, out)
    return out


def version_2_bytes(path):
    """The float64 version 3 checkpoint at ``path`` in the earlier version 2
    layout: version byte 2 and no ``dtype`` header line."""
    blob = bytearray(replace_header_line(path.read_bytes(), b"dtype = float64\n", b""))
    blob[4] = 2
    return bytes(blob)


def version_1_bytes(path):
    """The float64 version 3 checkpoint at ``path`` in the earlier version 1
    layout: the version 2 file with version byte 1, and after the
    parameters an Adam moment record ``<name>.m`` and ``<name>.v`` per
    parameter and a u64 step counter."""
    blob = bytearray(version_2_bytes(path))
    blob[4] = 1
    for name, arr in load_checkpoint(path).params.items():
        _tensor_record(blob, name + ".m", np.zeros_like(arr), DTYPES["float64"])
        _tensor_record(blob, name + ".v", np.zeros_like(arr), DTYPES["float64"])
    return bytes(blob + struct.pack("<Q", 17))


def _saved(tmp_path, dtype=np.float32):
    """A saved checkpoint's path and its bytes, ready to corrupt."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(_checkpoint(dtype=dtype), path)
    return path, bytearray(path.read_bytes())


def _first_payload(blob) -> int:
    """The byte offset of the first parameter's payload, after its name,
    rank and dims."""
    (header_length,) = struct.unpack("<I", blob[5:9])
    name, shape = parameter_specs(ARCH)[0]
    return 4 + 1 + 4 + header_length + 4 + 2 + len(name) + 1 + 4 * len(shape)


def replace_header_line(blob: bytes, old: bytes, new: bytes) -> bytes:
    """Checkpoint bytes with one header line replaced and the header length
    field updated to match."""
    (length,) = struct.unpack("<I", blob[5:9])
    header = bytes(blob[9:9 + length])
    assert old in header
    header = header.replace(old, new)
    return (bytes(blob[:5]) + struct.pack("<I", len(header)) + header
            + bytes(blob[9 + length:]))


def _with_header_line(tmp_path, old: bytes, new: bytes):
    """A saved checkpoint with one header line replaced."""
    path, blob = _saved(tmp_path)
    path.write_bytes(replace_header_line(blob, old, new))
    return path


class TestRoundTrip:
    @BOTH_DTYPES
    def test_fields_and_tensors_survive(self, tmp_path, dtype):
        """Each dtype round-trips bit for bit, and loads in that dtype."""
        ckpt = _checkpoint(dtype=dtype)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == ARCH
        assert loaded.epoch == 3
        assert loaded.best_val_loss == ckpt.best_val_loss  # repr round trip
        assert list(loaded.params) == list(ckpt.params)
        for name in ckpt.params:
            assert loaded.params[name].dtype == dtype
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
        assert to_network(loaded).dtype == dtype

    def test_mixed_dtypes_refused(self, tmp_path):
        ckpt = _checkpoint()
        name = next(iter(ckpt.params))
        ckpt.params[name] = ckpt.params[name].astype(np.float64)
        with pytest.raises(ValueError, match="one dtype"):
            save_checkpoint(ckpt, tmp_path / "m.ckpt")

    @BOTH_DTYPES
    def test_save_load_save_byte_identical(self, tmp_path, dtype):
        ckpt = _checkpoint(seed=5, dtype=dtype)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_network_forward_identical_after_reload(self, tmp_path):
        ckpt = _checkpoint(seed=2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        image = Tensor(np.random.default_rng(9).uniform(0, 1, (1, 16, 16)))
        before = forward_joint(to_network(ckpt), image)
        after = forward_joint(to_network(load_checkpoint(path)), image)
        np.testing.assert_array_equal(before.class_probs.data,
                                      after.class_probs.data)
        np.testing.assert_array_equal(before.reconstruction.data,
                                      after.reconstruction.data)


class TestFormat:
    def test_magic_and_version_prefix(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_checkpoint(), path)
        blob = path.read_bytes()
        assert blob[:4] == b"JANW"
        assert blob[4] == 3

    @BOTH_DTYPES
    def test_file_is_header_then_parameter_records(self, tmp_path, dtype):
        """Magic, version, header length, header, tensor count, then one
        record per parameter (name length, name, rank, dims, payload of 4-
        or 8-byte values); nothing follows the last record."""
        _, blob = _saved(tmp_path, dtype)
        (header_length,) = struct.unpack("<I", blob[5:9])
        size = np.dtype(dtype).itemsize
        records = sum(2 + len(name) + 1 + 4 * len(shape) + size * int(np.prod(shape))
                      for name, shape in parameter_specs(ARCH))
        assert len(blob) == 4 + 1 + 4 + header_length + 4 + records
        assert struct.unpack("<I", blob[9 + header_length:13 + header_length]) == (
            len(parameter_specs(ARCH)),)

    def test_version_2_file_rejected(self, tmp_path):
        path, _ = _saved(tmp_path, np.float64)
        path.write_bytes(version_2_bytes(path))
        with pytest.raises(DataError,
                           match=r"m\.ckpt: unsupported checkpoint version 2 at byte 4"):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        path, _ = _saved(tmp_path, np.float64)
        path.write_bytes(version_1_bytes(path))
        with pytest.raises(DataError,
                           match=r"m\.ckpt: unsupported checkpoint version 1 at byte 4"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord(b"X")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_checkpoint(), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 9"):
            load_checkpoint(path)

    def test_truncation_reported_with_offset(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_checkpoint(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(DataError, match="truncated at byte"):
            load_checkpoint(path)

    def test_truncated_float32_payload_offset_counts_4_byte_values(self, tmp_path):
        path, blob = _saved(tmp_path)
        at = _first_payload(blob)
        name, shape = parameter_specs(ARCH)[0]
        path.write_bytes(bytes(blob[:at + 10]))
        with pytest.raises(DataError,
                           match=rf"m\.ckpt: truncated at byte {at}: needed "
                                 rf"{4 * int(np.prod(shape))} bytes for tensor "
                                 rf"'{name}' payload, 10 remain"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_header_bytes_pinned(self, tmp_path):
        """The header follows ArchConfig's field order; reordering those
        fields would change every checkpoint written."""
        _, blob = _saved(tmp_path)
        (length,) = struct.unpack("<I", blob[5:9])
        assert blob[9:9 + length] == (
            b"n_stages = 1\ninput_channels = 1\ninput_size = 16\n"
            b"base_channels = 2\nn_classes = 3\ndtype = float32\nepoch = 3\n"
            b"best_val_loss = 0.30000000000000004\n")

    @pytest.mark.parametrize("value", [b"float16", b"<f4", b"f8", b""])
    def test_unknown_dtype_rejected(self, tmp_path, value):
        path = _with_header_line(tmp_path, b"dtype = float32\n",
                                 b"dtype = " + value + b"\n")
        with pytest.raises(DataError, match=r"m\.ckpt: invalid header at byte 9: "
                                            r"\S+#header: dtype must be one of "
                                            r"\['float32', 'float64'\], got '"):
            load_checkpoint(path)


class TestCorruptText:
    """Undecodable or malformed text inside a checkpoint is a DataError
    that names the file and a byte offset."""

    def test_non_utf8_header_rejected(self, tmp_path):
        path, blob = _saved(tmp_path)
        blob[11] = 0xFF
        path.write_bytes(blob)
        with pytest.raises(DataError, match=r"m\.ckpt: header is not UTF-8 at byte 11"):
            load_checkpoint(path)

    def test_header_line_without_equals_rejected(self, tmp_path):
        path, blob = _saved(tmp_path)
        blob[blob.index(b"=")] = ord(" ")
        path.write_bytes(blob)
        with pytest.raises(DataError,
                           match=r"m\.ckpt: malformed header at byte 9: .*key = value"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path, blob = _saved(tmp_path)
        (header_length,) = struct.unpack("<I", blob[5:9])
        # magic, version, header length, header, tensor count, name length
        blob[4 + 1 + 4 + header_length + 4 + 2] = 0xFF
        path.write_bytes(blob)
        with pytest.raises(DataError,
                           match=r"m\.ckpt: tensor name mismatch at byte \d+"):
            load_checkpoint(path)


def _header_keys_case(blob):
    return replace_header_line(blob, b"epoch = 3\n", b""), 9


def _invalid_header_case(blob):
    return replace_header_line(blob, b"epoch = 3\n", b"epoch = 0\n"), 9


def _tensor_count_case(blob):
    (header_length,) = struct.unpack("<I", blob[5:9])
    at = 4 + 1 + 4 + header_length
    return bytes(blob[:at]) + struct.pack("<I", 3) + bytes(blob[at + 4:]), at


def _tensor_shape_case(blob):
    (header_length,) = struct.unpack("<I", blob[5:9])
    name, _ = parameter_specs(ARCH)[0]
    # the first record's rank byte follows the tensor count, name length, name
    at = 4 + 1 + 4 + header_length + 4 + 2 + len(name)
    return bytes(blob[:at + 1]) + struct.pack("<I", 5) + bytes(blob[at + 5:]), at


class TestErrorOffsets:
    """Each structural load error names the byte where the offending field
    starts: the header for its keys and its values, the tensor count, and
    a record's rank byte for its shape."""

    @pytest.mark.parametrize("corrupt,message", [
        (_header_keys_case, r"header keys \[.*\] at byte {at} do not match"),
        (_invalid_header_case, r"invalid header at byte {at}: \S+#header: epoch must"),
        (_tensor_count_case, r"3 parameter tensors at byte {at}, architecture requires"),
        (_tensor_shape_case, r"tensor 'enc1\.conv1\.w' has shape \(5, 1, 3, 3\) "
                             r"at byte {at}, expected \(2, 1, 3, 3\)")])
    def test_error_names_the_offset(self, tmp_path, corrupt, message):
        path, blob = _saved(tmp_path)
        corrupted, at = corrupt(bytes(blob))
        path.write_bytes(corrupted)
        with pytest.raises(DataError, match=r"^\S*m\.ckpt: " + message.format(at=at)):
            load_checkpoint(path)


class TestHeaderValues:
    """Header values that parse but no training run can write are a
    DataError, which the CLI reports with exit code 2."""

    def test_huge_n_stages_rejected_before_the_power(self, tmp_path):
        path = _with_header_line(tmp_path, b"n_stages = 1\n",
                                 b"n_stages = 1000000000000\n")
        with pytest.raises(DataError,
                           match=r"invalid header at byte 9: .*2\^1000000000001, got 16"):
            load_checkpoint(path)

    def test_n_stages_past_the_print_limit_rejected(self, tmp_path):
        """n_stages + 1 here has 4,301 digits, one more than Python will
        convert to text."""
        path = _with_header_line(tmp_path, b"n_stages = 1\n",
                                 b"n_stages = " + b"9" * 4300 + b"\n")
        with pytest.raises(DataError,
                           match=r"invalid header at byte 9: .*2\^\(n_stages\+1\), got 16"):
            load_checkpoint(path)

    def test_arch_value_that_is_not_an_integer_rejected(self, tmp_path):
        path = _with_header_line(tmp_path, b"base_channels = 2\n",
                                 b"base_channels = two\n")
        with pytest.raises(DataError, match=r"m\.ckpt: invalid header at byte 9: "
                                            r".*'base_channels' needs a int, got 'two'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_best_val_loss_must_be_finite(self, tmp_path, value):
        path = _with_header_line(tmp_path, b"best_val_loss = 0.30000000000000004\n",
                                 f"best_val_loss = {value}\n".encode())
        with pytest.raises(DataError, match=r"m\.ckpt: invalid header at byte 9: "
                                            r"\S+#header: best_val_loss "
                                            r"must be finite, got -?(nan|inf)$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,kind", [
        ("best_val_loss", "soon", "float"), ("best_val_loss", "0_1", "float"),
        ("best_val_loss", "\u0660.5", "float"), ("epoch", "3.0", "int"),
        ("epoch", "1_0", "int"), ("epoch", "\u0663", "int")])
    def test_value_that_is_not_an_ascii_number_rejected(self, tmp_path, key, value, kind):
        """Python reads ``1_0`` as 10 and the Arabic-Indic digit three as
        3; a header number is ASCII without underscores."""
        old = {"epoch": b"epoch = 3\n",
               "best_val_loss": b"best_val_loss = 0.30000000000000004\n"}[key]
        path = _with_header_line(tmp_path, old, f"{key} = {value}\n".encode())
        with pytest.raises(DataError, match=rf"m\.ckpt: invalid header at byte 9: .*'{key}' "
                                            rf"needs a {kind}, got '{value}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [0, -3])
    def test_epoch_below_1_rejected(self, tmp_path, value):
        """Training numbers epochs from 1, so no run writes a lower one."""
        path = _with_header_line(tmp_path, b"epoch = 3\n", f"epoch = {value}\n".encode())
        with pytest.raises(DataError, match=rf"m\.ckpt: invalid header at byte 9: "
                                            rf"\S+#header: epoch must "
                                            rf"be >= 1, got {value}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("epoch,best,message", [
        (0, 0.3, "epoch must be >= 1"), (3, float("nan"), "best_val_loss must be finite")])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, epoch, best, message):
        with pytest.raises(ConfigError, match=message):
            save_checkpoint(_checkpoint(epoch=epoch, best=best), tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()


class TestPayloadValues:
    """Every parameter a training run writes is finite, so a non-finite
    payload value is corruption: a DataError naming the file, the tensor
    and the value's byte offset."""

    def test_value_count_past_int64_is_a_truncation(self, tmp_path):
        """(2^32-1)^2 * 9 values overflow a 64-bit count; counted exactly,
        the payload is reported missing rather than reshaped from a
        wrapped-around count."""
        big = 2 ** 32 - 1
        _, blob = _saved(tmp_path)
        blob = replace_header_line(blob, b"input_channels = 1\n",
                                   f"input_channels = {big}\n".encode())
        blob = replace_header_line(blob, b"base_channels = 2\n",
                                   f"base_channels = {big}\n".encode())
        (header_length,) = struct.unpack("<I", blob[5:9])
        name, _ = parameter_specs(ARCH)[0]
        # the first record's dims follow its name and rank
        dims = 4 + 1 + 4 + header_length + 4 + 2 + len(name) + 1
        blob = blob[:dims] + struct.pack("<4I", big, big, 3, 3) + blob[dims + 16:]
        path = tmp_path / "wide.ckpt"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=rf"wide\.ckpt: truncated at byte {dims + 16}: "
                                            rf"needed \d+ bytes for tensor '{name}' payload"):
            load_checkpoint(path)

    @BOTH_DTYPES
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value, dtype):
        path, blob = _saved(tmp_path, dtype)
        name, _ = parameter_specs(ARCH)[0]
        size = np.dtype(dtype).itemsize
        at = _first_payload(blob) + size * 5
        blob[at:at + size] = np.array(value, DTYPES[np.dtype(dtype).name]).tobytes()
        path.write_bytes(blob)
        with pytest.raises(DataError,
                           match=rf"m\.ckpt: tensor '{name}' holds non-finite "
                                 rf"-?(nan|inf) at byte {at}$"):
            load_checkpoint(path)
