"""Netpbm parsing and writing against hand-built byte strings."""

import numpy as np
import pytest

from jointnet import DataError, read_netpbm, write_pgm

from image_oracles import encode_netpbm, read_netpbm_bytes


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

    @pytest.mark.parametrize("data", [None, b"P7\n1 1\n255\n\x00", b"P2 1 1 1 2"])
    def test_str_path_named_as_path_spells_it(self, tmp_path, data):
        """A ``str`` path is read as given, and every error (unreadable,
        malformed, a level above maxval) names the file as ``Path`` does."""
        p = tmp_path / "bad.pgm"
        if data is not None:
            p.write_bytes(data)
        with pytest.raises(DataError) as got:
            read_netpbm(f"{tmp_path}//./bad.pgm")
        assert str(got.value).startswith(f"{p}: ")


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

    @pytest.mark.parametrize("data, message", [
        (b"P5 1_6 +1 255\n\x00", "width is not an integer: b'1_6' at byte 6"),
        (b"P5 16 +1 255\n", "height is not an integer: b'+1' at byte 8"),
        (b"P2 1 1 2_55\n1", "maxval is not an integer: b'2_55' at byte 11"),
        (b"P2 2 1 255\n+1 2", "sample is not an integer: b'+1' at byte 13"),
        (b"P2 2 1 255\n1 1_0", "sample is not an integer: b'1_0' at byte 16"),
        (b"P3 1 1 255\n1 -0 3", "sample is not an integer: b'-0' at byte 15"),
        (b"P2 1 1 255\n\xd9\xa1", "sample is not an integer: b'\\xd9\\xa1' at byte 13"),
    ])
    def test_token_of_other_than_ascii_digits_rejected(self, tmp_path, data, message):
        """A header or raster number is ASCII digits only: a sign, an
        underscore or another script's digit is an error naming the path
        and the byte offset where the token ends."""
        p = tmp_path / "t.pnm"
        p.write_bytes(data)
        with pytest.raises(DataError) as e:
            read_netpbm(p)
        assert str(e.value) == f"{p}: {message}"


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


class TestIntegerLevels:
    """Rasters come back as their stored integer levels, not floats."""

    @pytest.mark.parametrize("magic,maxval,dtype", [("P5", 255, np.uint8),
                                                    ("P5", 1000, np.dtype(">u2")),
                                                    ("P6", 255, np.uint8),
                                                    ("P6", 65535, np.dtype(">u2"))])
    def test_binary_raster_is_read_only_view(self, tmp_path, magic, maxval, dtype):
        c = 3 if magic == "P6" else 1
        levels = np.random.default_rng(3).integers(0, maxval + 1, (c, 4, 5))
        p = tmp_path / "b.pnm"
        p.write_bytes(encode_netpbm(magic, levels, maxval))
        pixels, _ = read_netpbm(p)
        assert pixels.dtype == dtype
        assert not pixels.flags.writeable
        np.testing.assert_array_equal(pixels, levels)
        with pytest.raises(ValueError, match="read-only"):
            pixels[0, 0, 0] = 0

    @pytest.mark.parametrize("magic", ["P2", "P3"])
    def test_ascii_raster_is_int64(self, tmp_path, magic):
        c = 3 if magic == "P3" else 1
        levels = np.random.default_rng(4).integers(0, 65536, (c, 3, 2))
        p = tmp_path / "a.pnm"
        p.write_bytes(encode_netpbm(magic, levels, 65535))
        pixels, _ = read_netpbm(p)
        assert pixels.dtype == np.int64
        np.testing.assert_array_equal(pixels, levels)

    @pytest.mark.parametrize("maxval,sample", [(200, 201), (1000, 1001), (65534, 65535)])
    def test_binary_sample_above_maxval_rejected(self, tmp_path, maxval, sample):
        p = tmp_path / "v.pgm"
        dtype = ">u2" if maxval > 255 else np.uint8
        p.write_bytes(f"P5\n2 1\n{maxval}\n".encode()
                      + np.array([0, sample], dtype=dtype).tobytes())
        with pytest.raises(DataError, match=f"value {sample} above maxval {maxval}"):
            read_netpbm(p)


class TestMaxvalBoundary:
    """A raster is scanned for a level above maxval unless its dtype holds
    none: binary 8-bit at maxval 255 and 16-bit at 65535 skip the scan, so
    the boundary cases must read as the reference reader reads them."""

    @pytest.mark.parametrize("magic", ["P2", "P5", "P3", "P6"])
    @pytest.mark.parametrize("maxval", [254, 255, 65534, 65535])
    def test_top_level_of_the_dtype(self, tmp_path, magic, maxval):
        c = 3 if magic in ("P3", "P6") else 1
        top = 255 if maxval < 256 else 65535
        levels = np.random.default_rng(maxval).integers(0, maxval + 1, (c, 3, 4))
        levels[-1, -1, -1] = top
        p = tmp_path / "t.pnm"
        p.write_bytes(encode_netpbm(magic, levels, maxval))
        if top > maxval:
            with pytest.raises(DataError, match=f"value {top} above maxval {maxval}$"):
                read_netpbm(p)
            with pytest.raises(DataError, match=f"value {top} above maxval {maxval}$"):
                read_netpbm_bytes(p.read_bytes(), str(p))
            return
        pixels, got_maxval = read_netpbm(p)
        oracle, oracle_maxval = read_netpbm_bytes(p.read_bytes(), str(p))
        assert got_maxval == oracle_maxval == maxval
        assert pixels.astype(np.float64).tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("magic", ["P2", "P3"])
    def test_ascii_level_above_16_bits_still_scanned(self, tmp_path, magic):
        c = 3 if magic == "P3" else 1
        p = tmp_path / "a.pnm"
        p.write_bytes(f"{magic}\n1 1\n65535\n".encode() + b" 65536" * c)
        with pytest.raises(DataError, match="value 65536 above maxval 65535"):
            read_netpbm(p)


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
        write_pgm(p, levels / 255)
        pixels, maxval = read_netpbm(p)
        assert maxval == 255
        np.testing.assert_array_equal(pixels[0], levels)

    def test_ends_map_to_levels_0_and_255(self, tmp_path):
        p = tmp_path / "w.pgm"
        write_pgm(p, np.array([[0.0, 1.0]]))
        assert p.read_bytes() == b"P5\n2 1\n255\n" + bytes([0, 255])

    @pytest.mark.parametrize("value", [1.5, -0.1, np.nan, 300.0])
    def test_rejects_out_of_range(self, tmp_path, value):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            write_pgm(tmp_path / "bad.pgm", np.array([[0.5, value]]))
        assert not (tmp_path / "bad.pgm").exists()

    def test_deterministic_bytes(self, tmp_path):
        plane = np.eye(3) * 0.8
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(a, plane)
        write_pgm(b, plane)
        assert a.read_bytes() == b.read_bytes()
