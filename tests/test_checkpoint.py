"""Checkpoint serialization: byte stability, round trips, corruption."""

import struct

import numpy as np
import pytest

from jointnet import (ArchConfig, Checkpoint, DataError, Tensor, build,
                      forward_joint, load_checkpoint, save_checkpoint,
                      to_network)

ARCH = ArchConfig(n_stages=1, input_channels=1, input_size=16, base_channels=2)


def _checkpoint(seed=0, step=17, epoch=3, best=0.1 + 0.2):
    net = build(ARCH, seed=seed)
    rng = np.random.default_rng(seed + 100)
    params = {name: p.data for name, p in net.params.items()}
    m = {name: rng.normal(size=p.shape) * 1e-3 for name, p in net.params.items()}
    v = {name: rng.uniform(0, 1e-6, p.shape) for name, p in net.params.items()}
    return Checkpoint(ARCH, params, m, v, step, epoch, best)


def _saved(tmp_path):
    """A saved checkpoint's path and its bytes, ready to corrupt."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(_checkpoint(), path)
    return path, bytearray(path.read_bytes())


class TestRoundTrip:
    def test_fields_and_tensors_survive(self, tmp_path):
        ckpt = _checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == ARCH
        assert loaded.step == 17
        assert loaded.epoch == 3
        assert loaded.best_val_loss == ckpt.best_val_loss  # repr round trip
        for name in ckpt.params:
            np.testing.assert_array_equal(loaded.params[name], ckpt.params[name])
            np.testing.assert_array_equal(loaded.adam_m[name], ckpt.adam_m[name])
            np.testing.assert_array_equal(loaded.adam_v[name], ckpt.adam_v[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        ckpt = _checkpoint(seed=5)
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
        assert blob[4] == 1

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
            b"base_channels = 2\nn_classes = 3\nepoch = 3\n"
            b"best_val_loss = 0.30000000000000004\n")


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
