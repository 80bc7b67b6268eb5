"""Netpbm parsing and writing against hand-built byte strings."""

import numpy as np
import pytest

from jointnet import DataError, read_netpbm, write_pgm


class TestReadP5:
    def test_tiny_gradient(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255]))
        pixels, maxval = read_netpbm(p)
        assert maxval == 255
        np.testing.assert_array_equal(pixels, [[[0, 85], [170, 255]]])

    def test_sixteen_bit_big_endian(self, tmp_path):
        p = tmp_path / "wide.pgm"
        p.write_bytes(b"P5\n1 2\n65535\n" + (1000).to_bytes(2, "big")
                      + (65535).to_bytes(2, "big"))
        pixels, maxval = read_netpbm(p)
        assert maxval == 65535
        np.testing.assert_array_equal(pixels, [[[1000], [65535]]])

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # binary gray\n# size next\n2 1\n# depth\n255\n" + bytes([7, 9]))
        pixels, _ = read_netpbm(p)
        np.testing.assert_array_equal(pixels, [[[7, 9]]])

    def test_truncated_raster_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(DataError, match="truncated"):
            read_netpbm(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n255\n" + bytes([1, 2]))
        with pytest.raises(DataError, match="trailing"):
            read_netpbm(p)

    def test_error_names_path_and_offset(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(DataError, match=rf"{p.name}.*byte 0"):
            read_netpbm(p)


class TestReadAscii:
    def test_p2(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2\n3 1\n9\n0 4 9\n")
        pixels, maxval = read_netpbm(p)
        assert maxval == 9
        np.testing.assert_array_equal(pixels, [[[0, 4, 9]]])

    def test_p3_color(self, tmp_path):
        p = tmp_path / "rgb.ppm"
        p.write_text("P3\n1 1\n255\n10 20 30\n")
        pixels, _ = read_netpbm(p)
        assert pixels.shape == (3, 1, 1)
        np.testing.assert_array_equal(pixels[:, 0, 0], [10, 20, 30])

    def test_value_above_maxval_rejected(self, tmp_path):
        p = tmp_path / "v.pgm"
        p.write_text("P2\n1 1\n10\n11\n")
        with pytest.raises(DataError, match="maxval"):
            read_netpbm(p)

    def test_non_numeric_sample_rejected(self, tmp_path):
        p = tmp_path / "n.pgm"
        p.write_text("P2\n1 1\n255\nabc\n")
        with pytest.raises(DataError, match="integer"):
            read_netpbm(p)

    def test_zero_maxval_rejected(self, tmp_path):
        p = tmp_path / "z.pgm"
        p.write_text("P2\n1 1\n0\n0\n")
        with pytest.raises(DataError, match="maxval"):
            read_netpbm(p)


class TestReadAsciiSampleBound:
    """The header's sample count is checked against the bytes present
    before any raster memory is allocated."""

    @pytest.mark.parametrize("header", [b"P2 2000000000 2000000000 255",
                                        b"P2 40000 40000 255",
                                        b"P3 2 2 255"])
    def test_count_beyond_file_rejected(self, tmp_path, header):
        p = tmp_path / "big.pgm"
        p.write_bytes(header + b"\n0 0 0\n")
        with pytest.raises(DataError, match="truncated"):
            read_netpbm(p)

    def test_densest_raster_accepted(self, tmp_path):
        """One-digit samples with single separators sit exactly at the bound."""
        p = tmp_path / "dense.pgm"
        p.write_bytes(b"P2\n3 1\n9\n1 2 3")
        pixels, _ = read_netpbm(p)
        np.testing.assert_array_equal(pixels, [[[1, 2, 3]]])


class TestReadP6:
    def test_interleaved_channels(self, tmp_path):
        p = tmp_path / "rgb.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        pixels, _ = read_netpbm(p)
        np.testing.assert_array_equal(pixels[:, 0, 0], [1, 2, 3])
        np.testing.assert_array_equal(pixels[:, 0, 1], [4, 5, 6])


class TestWritePgm:
    def test_roundtrip(self, tmp_path):
        levels = np.arange(6).reshape(2, 3) * 40
        p = tmp_path / "w.pgm"
        write_pgm(p, levels, 255)
        pixels, maxval = read_netpbm(p)
        assert maxval == 255
        np.testing.assert_array_equal(pixels[0], levels)

    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            write_pgm(tmp_path / "bad.pgm", np.array([[300.0]]), 255)

    def test_deterministic_bytes(self, tmp_path):
        levels = np.eye(3) * 200
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, levels)
        write_pgm(b, levels)
        assert a.read_bytes() == b.read_bytes()
