"""Dataset loading, resizing, synthesis, and fold assignment."""

import re

import numpy as np
import pytest

import jointnet.data
from jointnet import (ConfigError, DataError, load_directory,
                      load_image, read_netpbm, stratified_folds,
                      synth_generate, write_pgm)
from jointnet.data import (_EXTENSIONS, CLASS_NAMES, Dataset, Listing, Sample,
                           _axis_coords, _gather, _interpolate, decode,
                           list_directory, synth_samples, write_samples)

import image_oracles as parent
from peaks import traced_peak

# what a load holds beside its array and one chunk: the listing, the
# sources and the labels of 150 files, and the Dataset
LOAD_BASE = 128 << 10


def resize(img, size):
    """Bilinear resize of [C,H,W] ``img`` to [C,size,size] as ``load_image``
    runs it: gather the four samples around each output pixel, then blend."""
    _, h, w = img.shape
    return _interpolate(_gather(img, size), h, w)


class TestResize:
    def test_constant_stays_constant(self):
        out = resize(np.full((2, 5, 7), 0.4), 12)
        np.testing.assert_allclose(out, 0.4)

    def test_upsample_oracle(self):
        """1x2 [0,1] to four columns: half-pixel centers give 0, .25, .75, 1."""
        out = resize(np.array([[[0.0, 1.0]]]), 4)
        assert out.shape == (1, 4, 4)
        for row in out[0]:
            np.testing.assert_allclose(row, [0.0, 0.25, 0.75, 1.0])

    def test_checkerboard_downsample_averages(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        out = resize(board[None].astype(float), 2)
        np.testing.assert_allclose(out, 0.5)

    def test_identity_when_sizes_match(self, tmp_path):
        """At the stored size ``load_image`` skips the resize and returns
        the levels divided by maxval."""
        p = tmp_path / "same.pgm"
        levels = np.random.default_rng(0).integers(0, 1001, (8, 8))
        p.write_bytes(parent.encode_netpbm("P5", levels[None], 1000))
        raw, maxval = read_netpbm(p)
        assert load_image(p, 8, 1).data.tobytes() == (raw / maxval).tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, ">u2", np.int64, np.float64])
    @pytest.mark.parametrize("shape", [(1, 256, 256), (3, 256, 256), (1, 37, 50),
                                       (3, 20, 300), (1, 1, 1)])
    def test_gather_equals_the_fancy_index(self, dtype, shape):
        """``_gather``'s two ``take``s read the same samples as the fancy
        index ``img[:, rows[:, None], cols]``: same values and dtype, in one
        C-ordered array."""
        img = np.random.default_rng(3).integers(0, 256, shape).astype(dtype)
        _, h, w = shape
        for size in (32, 7, 1):
            rows, cols = _axis_coords(h, size)[0], _axis_coords(w, size)[0]
            got, want = _gather(img, size), img[:, rows[:, None], cols]
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert np.array_equal(got, want)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            img = rng.uniform(0, 1, (1, rng.integers(2, 9), rng.integers(2, 9)))
            out = resize(img, int(rng.integers(1, 16)))
            assert out.min() >= img.min() - 1e-12
            assert out.max() <= img.max() + 1e-12


class TestLoadDirectory:
    def _make_tree(self, root, classes=("AMD", "DME", "NORMAL"), n=2, size=6):
        rng = np.random.default_rng(0)
        for name in classes:
            d = root / name
            d.mkdir(parents=True)
            for i in range(n):
                write_pgm(d / f"{i}.pgm", rng.integers(0, 256, (size, size)) / 255)

    def test_sorted_class_order_and_normalization(self, tmp_path):
        self._make_tree(tmp_path, classes=("zeta", "alpha"))
        ds = load_directory(tmp_path, target_size=8, channels=1)
        assert ds.class_names == ["alpha", "zeta"]
        assert len(ds) == 4
        for s in ds.samples:
            assert s.image.shape == (1, 8, 8)
            assert 0.0 <= s.image.data.min() and s.image.data.max() <= 1.0

    def test_grayscale_replicated_to_three_channels(self, tmp_path):
        self._make_tree(tmp_path, classes=("only",), n=1)
        ds = load_directory(tmp_path, target_size=6, channels=3)
        img = ds.samples[0].image.data
        np.testing.assert_array_equal(img[0], img[1])
        np.testing.assert_array_equal(img[0], img[2])

    def test_directory_samples_are_load_image(self, tmp_path):
        self._make_tree(tmp_path, classes=("only",), n=2, size=6)
        ds = load_directory(tmp_path, target_size=4, channels=3)
        for s in ds.samples:
            image = load_image(s.source_id, 4, 3)
            assert image.shape == (3, 4, 4)
            np.testing.assert_array_equal(image.data, s.image.data)

    @pytest.mark.parametrize("shape,maxval,size", [((256, 256), 255, 32),
                                                   ((37, 50), 1000, 16),
                                                   ((8, 8), 255, 8)])
    def test_gray_to_three_channels_equals_replicate_then_resize(
            self, tmp_path, shape, maxval, size):
        """Gray is resized once and then replicated; the bits equal the
        earlier order, which replicated to three planes and resized each."""
        p = tmp_path / "gray.pgm"
        levels = np.random.default_rng(8).integers(0, maxval + 1, shape)
        p.write_bytes(parent.encode_netpbm("P5", levels[None], maxval))
        raw, raw_maxval = read_netpbm(p)
        expected = parent.resize_array(np.repeat(raw / raw_maxval, 3, axis=0), size)
        image = load_image(p, size, 3).data
        assert image.shape == expected.shape == (3, size, size)
        assert image.tobytes() == expected.tobytes()

    def test_load_image_reduces_color_to_gray(self, tmp_path):
        p = tmp_path / "rgb.ppm"
        p.write_bytes(b"P6\n1 1\n255\n" + bytes([0, 51, 255]))
        image = load_image(p, 2, channels=1)
        np.testing.assert_allclose(image.data, np.full((1, 2, 2), 0.4))

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not a directory"):
            load_directory(tmp_path / "absent", 8)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "empty_class").mkdir()
        with pytest.raises(DataError, match="no netpbm images"):
            load_directory(tmp_path, 8)

    def test_no_class_dirs_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no class"):
            load_directory(tmp_path, 8)

    def test_listing_batches_are_the_loaded_batches(self, tmp_path):
        """Decoding chunk by chunk gives each chunk's images and labels with
        the bits ``Dataset.batches`` stacks from the loaded set."""
        self._make_tree(tmp_path, n=3)
        listing = list_directory(tmp_path)
        loaded = load_directory(tmp_path, 8, channels=3)
        assert listing.class_names == loaded.class_names
        assert [str(f) for f, _ in listing.files] == [s.source_id for s in loaded.samples]
        streamed, batched = list(listing.batches(8, 3, 4, np.float64)), list(loaded.batches(4))
        assert [len(labels) for _, labels in streamed] == [4, 4, 1]
        for (images, labels), (want_images, want_labels) in zip(streamed, batched,
                                                                 strict=True):
            assert images.data.tobytes() == want_images.data.tobytes()
            assert images.shape == want_images.shape
            assert labels.tolist() == want_labels.tolist()

    def test_pure_function_of_contents(self, tmp_path):
        self._make_tree(tmp_path)
        a = load_directory(tmp_path, 8, channels=1)
        b = load_directory(tmp_path, 8, channels=1)
        for s1, s2 in zip(a.samples, b.samples):
            np.testing.assert_array_equal(s1.image.data, s2.image.data)


class TestParentParity:
    """The integer raster with a four-sample gather gives the bits of the
    earlier float path: the whole raster as float64, divided by maxval,
    then adapted and resized (``image_oracles``)."""

    SHAPES = [(64, 64, 32), (256, 256, 32), (96, 80, 32), (8, 8, 32),
              (32, 32, 32), (37, 50, 16), (17, 40, 40), (1, 1, 4), (1, 9, 5),
              (9, 1, 5), (5, 7, 1), (3, 3, 8), (2, 30, 7)]

    @pytest.mark.parametrize("magic", ["P2", "P3", "P5", "P6"])
    @pytest.mark.parametrize("maxval", [1, 15, 255, 1000, 65535])
    def test_load_image_sweep(self, tmp_path, magic, maxval):
        rng = np.random.default_rng([ord(magic[1]), maxval])
        c = 3 if magic in ("P3", "P6") else 1
        shapes = self.SHAPES + [tuple(int(v) for v in rng.integers(1, 70, 3))
                                for _ in range(4)]
        for i, (h, w, size) in enumerate(shapes):
            p = tmp_path / f"{i}.pnm"
            p.write_bytes(parent.encode_netpbm(
                magic, rng.integers(0, maxval + 1, (c, h, w)), maxval))
            raw, raw_maxval = read_netpbm(p)
            assert raw_maxval == maxval
            expected_raw = raw.astype(np.float64)
            if h * w <= 4096:  # the oracle reader loops in Python
                oracle_raw, _ = parent.read_netpbm_bytes(p.read_bytes(), str(p))
                assert expected_raw.tobytes() == oracle_raw.tobytes()
            for channels in (1, 3):
                expected = parent.load_levels(expected_raw, maxval, size, channels, str(p))
                image = load_image(p, size, channels).data
                assert image.shape == expected.shape == (channels, size, size)
                assert np.array_equal(image, expected), (magic, maxval, h, w, size, channels)
                assert image.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["planar", "interleaved"])
    def test_resize_sweep(self, layout):
        rng = np.random.default_rng(17)
        for _ in range(300):
            c = int(rng.integers(1, 4))
            h, w, size = (int(v) for v in rng.integers(1, 40, 3))
            img = rng.uniform(0.0, 1.0, (h, w, c)).transpose(2, 0, 1)
            if layout == "planar":
                img = np.ascontiguousarray(img)
            expected = parent.resize_array(img, size)
            assert resize(img, size).tobytes() == expected.tobytes()

    def test_axis_coords_memoised_read_only(self):
        coords = _axis_coords(256, 32)
        assert _axis_coords(256, 32) is coords
        for arr in coords:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestDecode:
    """``decode`` of a chunk is the per-image decode of each of its files,
    bit for bit, in float64 and, cast once, in float32."""

    # (magic, maxval, stored height, stored width): gray and RGB, ASCII and
    # binary, 8-bit and 16-bit levels; most stored shapes group files of
    # different maxvals and encodings
    FILES = [("P5", 255, 40, 40), ("P6", 255, 40, 40), ("P2", 1000, 40, 40),
             ("P3", 65535, 12, 12), ("P5", 65535, 12, 12), ("P6", 200, 16, 16),
             ("P5", 255, 16, 16), ("P3", 255, 9, 30), ("P2", 15, 16, 16),
             ("P6", 4000, 12, 12), ("P5", 1, 40, 40), ("P3", 255, 16, 16)]

    def _chunk(self, tmp_path):
        rng = np.random.default_rng(29)
        paths = []
        for i, (magic, maxval, h, w) in enumerate(self.FILES):
            c = 3 if magic in ("P3", "P6") else 1
            p = tmp_path / f"{i}.pnm"
            p.write_bytes(parent.encode_netpbm(
                magic, rng.integers(0, maxval + 1, (c, h, w)), maxval))
            paths.append(p)
        return paths

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("size", [16, 24, 5])  # unresized, downsized, upsized
    def test_chunk_is_each_image_decoded(self, tmp_path, size, channels):
        paths = self._chunk(tmp_path)
        chunk = decode(paths, size, channels, np.float64)
        assert chunk.dtype == np.float64 and chunk.shape == (len(paths), channels, size, size)
        for p, image in zip(paths, chunk, strict=True):
            raw, maxval = read_netpbm(p)
            want = parent.load_levels(raw.astype(np.float64), maxval, size, channels, str(p))
            assert image.tobytes() == want.tobytes()
            assert image.tobytes() == load_image(p, size, channels).data.tobytes()
        single = decode(paths, size, channels, np.float32)
        assert single.dtype == np.float32
        assert single.tobytes() == chunk.astype(np.float32).tobytes()

    def test_errors_come_in_file_order(self, tmp_path):
        """A file that cannot be adapted stops the chunk before a later
        truncated file is read, and the error names it."""
        rgb = tmp_path / "rgb.ppm"
        rgb.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        truncated = tmp_path / "truncated.pgm"
        truncated.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        gray = tmp_path / "gray.pgm"
        gray.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DataError, match=f"^{re.escape(str(rgb))}: cannot adapt 3-channel"):
            decode([gray, rgb, truncated], 4, 2, np.float64)
        with pytest.raises(DataError, match=f"^{re.escape(str(truncated))}: raster truncated"):
            decode([gray, truncated, rgb], 4, 2, np.float64)

    def test_listing_batches_decode_in_the_given_dtype(self, tmp_path):
        paths = self._chunk(tmp_path)
        listing = Listing([(p, i % 3) for i, p in enumerate(paths)], ["a", "b", "c"])
        for dtype in (np.float32, np.float64):
            batches = list(listing.batches(8, 3, 5, dtype))
            assert [images.data.dtype for images, _ in batches] == [np.dtype(dtype)] * 3
            assert np.concatenate([images.data for images, _ in batches]).tobytes() == (
                decode(paths, 8, 3, dtype).tobytes())


class TestListDirectory:
    NAMES = ["b.pgm", "B.pgm", "a.PGM", "a10.pgm", "a9.pgm", "a.b.pgm", "a..pgm",
             "_x.ppm", "x.pnm", "x.Pnm", ".pgm", "..pgm", ".hidden.pgm", "notes.txt",
             "image.png", "pgm", "a.pgm.bak", "z.pgm"]

    def test_order_and_filters_are_the_path_rules(self, tmp_path):
        """Each class lists what sorting its ``Path``s with the ``is_file``
        and suffix rules lists: names that differ in case, digits and dots,
        a hidden file, other files, a subdirectory and symlinks."""
        cls = tmp_path / "cls"
        cls.mkdir()
        for name in self.NAMES:
            (cls / name).write_bytes(b"P5\n1 1\n255\n\x00")
        (cls / "dir.pgm").mkdir()
        (cls / "link.pgm").symlink_to(cls / "z.pgm")
        (cls / "dangling.pgm").symlink_to(cls / "absent.pgm")
        (cls / "loop.pgm").symlink_to(cls / "loop.pgm")
        want = sorted(f for f in cls.iterdir()
                      if f.is_file() and f.suffix.lower() in _EXTENSIONS)
        got = list_directory(tmp_path)
        assert got.files == [(f, 0) for f in want]
        assert [f.name for f in want] == ["..pgm", ".hidden.pgm", "B.pgm", "_x.ppm", "a..pgm",
                                          "a.PGM", "a.b.pgm", "a10.pgm", "a9.pgm",
                                          "b.pgm", "link.pgm", "x.Pnm", "x.pnm", "z.pgm"]


class TestSynth:
    def test_same_seed_bit_identical(self):
        a = synth_generate(3, 16, "wild", seed=5)
        b = synth_generate(3, 16, "wild", seed=5)
        for s1, s2 in zip(a.samples, b.samples):
            np.testing.assert_array_equal(s1.image.data, s2.image.data)

    def test_class_layout(self):
        ds = synth_generate(2, 16)
        assert ds.class_names == list(CLASS_NAMES)
        assert [s.label for s in ds.samples] == [0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("shift", ["none", "wild"])
    def test_values_in_unit_interval(self, shift):
        ds = synth_generate(5, 16, shift, seed=2)
        for s in ds.samples:
            assert s.image.data.min() >= 0.0
            assert s.image.data.max() <= 1.0

    def test_channels_replicated(self):
        ds = synth_generate(1, 16, channels=3)
        img = ds.samples[0].image.data
        np.testing.assert_array_equal(img[0], img[2])

    def test_bad_shift_rejected(self):
        with pytest.raises(ConfigError, match="shift"):
            synth_generate(1, 16, "chaos")

    def test_amd_difference_peaks_at_bump(self):
        """Class-mean AMD minus NORMAL peaks where the bump lifts the first
        band boundary: upper-middle rows, central columns."""
        size = 32
        ds = synth_generate(400, size, seed=7, channels=1)
        imgs = np.stack([s.image.data[0] for s in ds.samples])
        labels = np.array([s.label for s in ds.samples])
        diff = imgs[labels == 0].mean(axis=0) - imgs[labels == 2].mean(axis=0)
        row, col = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
        assert 0.05 * size <= row <= 0.30 * size
        assert size / 3 <= col <= 2 * size / 3

    def test_nearest_centroid_separable(self):
        """The generator must be learnable: class centroids classify >= 90%."""
        train = synth_generate(60, 32, seed=11, channels=1)
        test = synth_generate(30, 32, seed=12, channels=1)
        tr_imgs = np.stack([s.image.data[0].ravel() for s in train.samples])
        tr_labels = np.array([s.label for s in train.samples])
        centroids = np.stack([tr_imgs[tr_labels == c].mean(axis=0)
                              for c in range(3)])
        correct = 0
        for s in test.samples:
            d = ((centroids - s.image.data[0].ravel()) ** 2).sum(axis=1)
            correct += int(np.argmin(d)) == s.label
        assert correct / len(test.samples) >= 0.90


class TestWriteDataset:
    def test_roundtrip_through_directory(self, tmp_path):
        ds = synth_generate(2, 16, seed=3)
        write_samples(ds.samples, ds.class_names, tmp_path)
        loaded = load_directory(tmp_path, 16, channels=3)
        assert loaded.class_names == list(CLASS_NAMES)
        assert len(loaded) == 6
        # 8-bit quantization bounds the roundtrip error
        for orig, back in zip(ds.samples, loaded.samples):
            assert np.abs(orig.image.data - back.image.data).max() <= 0.5 / 255 + 1e-9


    def test_drawn_samples_write_the_generated_dataset(self, tmp_path):
        """Written as they are drawn, the samples give the files of the
        whole generated dataset."""
        ds = synth_generate(2, 20, "wild", seed=6)
        want = write_samples(ds.samples, ds.class_names, tmp_path / "whole")
        got = write_samples(synth_samples(2, 20, "wild", seed=6), list(CLASS_NAMES),
                            tmp_path / "drawn")
        assert [p.relative_to(tmp_path / "drawn") for p in got] == [
            p.relative_to(tmp_path / "whole") for p in want]
        for mine, theirs in zip(got, want):
            assert mine.read_bytes() == theirs.read_bytes()

    def test_arguments_checked_before_the_first_draw(self):
        with pytest.raises(ConfigError, match="n_per_class"):
            synth_samples(0, 16)


class TestBatch:
    @pytest.mark.parametrize("indices", [[0, 1, 2], [4, 2, 0], range(5)[::-1], [3]])
    def test_stacks_images_and_labels_in_the_order_given(self, indices):
        ds = synth_generate(2, 16, seed=3)
        samples = [ds.samples[i] for i in indices]
        images, labels = ds.batch(indices)
        expected = np.stack([s.image.data for s in samples])
        assert images.shape == expected.shape
        assert images.data.tobytes() == expected.tobytes()
        assert images.data.flags.c_contiguous
        assert labels.dtype == np.int64
        assert labels.tolist() == [s.label for s in samples]


def _write_tree(root, kind: str, per_class: int = 9) -> list:
    """Three classes of ``per_class`` files of mixed stored shapes and
    maxvals, in load order: every file gray, every file RGB, or ("mixed")
    RGB only at class b's odd names, so with 9 per class the first RGB
    file is the 11th loaded and gray files follow it."""
    rng = np.random.default_rng([31, len(kind)])
    paths = []
    for cls in "abc":
        (root / cls).mkdir()
        for i in range(per_class):
            color = kind == "rgb" or (kind == "mixed" and cls == "b" and i % 2 == 1)
            h, w = ((8, 8), (12, 10), (20, 20))[i % 3]
            maxval = (255, 1000)[i % 2]
            levels = rng.integers(0, maxval + 1, (3 if color else 1, h, w))
            path = root / cls / f"{i}.pnm"
            path.write_bytes(parent.encode_netpbm("P6" if color else "P5", levels, maxval))
            paths.append(path)
    return paths


class TestHeldDataset:
    """A loaded ``Dataset`` holds one array, gray once, and its batches are
    the earlier per-sample stacks: each image decoded alone in float64
    (``load_image``), stacked, and cast once to the training dtype."""

    @pytest.mark.parametrize("chunk", [1, 4, 10, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("kind", ["gray", "rgb", "mixed"])
    def test_batches_are_the_per_sample_stacks(self, tmp_path, monkeypatch, kind,
                                               channels, dtype, chunk):
        paths = _write_tree(tmp_path, kind)
        monkeypatch.setattr(jointnet.data, "LOAD_CHUNK", chunk)
        ds = load_directory(tmp_path, 8, channels, dtype)
        held = 1 if kind == "gray" or channels == 1 else channels
        assert ds.images.shape == (len(paths), held, 8, 8) and ds.images.dtype == dtype
        assert ds.sources == [str(p) for p in paths]
        assert ds.labels.tolist() == [i // 9 for i in range(len(paths))]
        alone = np.stack([load_image(p, 8, channels).data for p in paths]).astype(dtype)
        for picks in ([3, 0, 26, 10, 11], [10], range(len(paths))[::-1]):
            images, labels = ds.batch(picks)
            assert images.data.dtype == dtype and images.data.flags.c_contiguous
            assert images.shape == (len(picks), channels, 8, 8)
            assert images.data.tobytes() == alone[list(picks)].tobytes()
            assert labels.dtype == np.int64 and labels.tolist() == [i // 9 for i in picks]
        batches = list(ds.batches(4))
        assert [len(labels) for _, labels in batches] == [4] * 6 + [3]
        assert np.concatenate([b.data for b, _ in batches]).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("kind", ["gray", "mixed"])
    def test_each_file_is_read_once(self, tmp_path, monkeypatch, kind):
        paths = _write_tree(tmp_path, kind)
        reads = []

        def counting(path):
            reads.append(path)
            return read_netpbm(path)

        monkeypatch.setattr(jointnet.data, "read_netpbm", counting)
        load_directory(tmp_path, 8, 3, np.float32)
        assert reads == paths

    def test_subsets_share_the_image_array(self, tmp_path):
        _write_tree(tmp_path, "gray")
        ds = load_directory(tmp_path, 8, 3, np.float32)
        sub = ds.subset([20, 2, 7, 9])
        inner = sub.subset([3, 0])
        for part in (sub, inner):
            assert part.images is ds.images and part.channels == 3
        assert inner.sources == [ds.sources[9], ds.sources[20]]
        assert inner.labels.tolist() == [1, 2]
        assert inner.batch([1, 0])[0].data.tobytes() == ds.batch([20, 9])[0].data.tobytes()

    def test_samples_are_built_on_access(self, tmp_path):
        """``samples`` is a tuple of copies: changing one changes nothing
        the set holds."""
        _write_tree(tmp_path, "gray", per_class=2)
        ds = load_directory(tmp_path, 8, 3)
        samples = ds.samples
        assert isinstance(samples, tuple) and all(isinstance(s, Sample) for s in samples)
        assert samples[0].image.shape == (3, 8, 8) and samples[0].label == 0
        samples[0].image.data[...] = 0.5
        samples[0].label = 2
        assert ds.samples[0].image.data.tobytes() == ds.batch([0])[0].data[0].tobytes()
        assert ds.samples[0].label == 0 and not np.all(ds.images[0] == 0.5)

    @pytest.mark.parametrize("shape, labels", [((3, 2, 4, 4), [0, 1, 2]),
                                               ((3, 1, 4), [0, 1, 2]),
                                               ((3, 1, 4, 4), [0, 1])])
    def test_inconsistent_arrays_rejected(self, shape, labels):
        with pytest.raises(ValueError):
            Dataset(np.zeros(shape), labels, ["x"] * 3, ["a", "b", "c"], channels=3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_load_peak_is_the_array_plus_one_chunk(self, tmp_path, dtype):
        """150 gray 256 px files loaded at 32 px for three channels peak at
        the gray array, one chunk's decode and a fixed base. Loaded file by
        file as three-channel float64 Tensors, the 150 images alone held
        3.5 MiB."""
        rng = np.random.default_rng(5)
        for cls in "abc":
            (tmp_path / cls).mkdir()
            for i in range(50):
                (tmp_path / cls / f"{i:02d}.pgm").write_bytes(
                    b"P5\n256 256\n255\n" + rng.bytes(256 * 256))
        paths = list_directory(tmp_path).files
        first = [p for p, _ in paths[:jointnet.data.LOAD_CHUNK]]
        chunk = traced_peak(lambda: decode(first, 32, 1, dtype))
        peak = traced_peak(lambda: load_directory(tmp_path, 32, 3, dtype))
        array = 150 * 32 * 32 * np.dtype(dtype).itemsize
        assert peak <= array + chunk + LOAD_BASE, (peak, array, chunk)


class TestStratifiedFolds:
    def _dataset(self, per_class=5, classes=3):
        labels = np.repeat(np.arange(classes), per_class)
        return Dataset(np.zeros((len(labels), 1, 4, 4)), labels,
                       [f"{c}/{i}" for c in range(classes) for i in range(per_class)],
                       [f"c{c}" for c in range(classes)])

    def test_balanced_partition(self):
        """15 samples, 3 classes, 5 folds: every val split is one per class."""
        ds = self._dataset()
        folds = stratified_folds(ds, 5, seed=0)
        seen = []
        for train_idx, val_idx in folds:
            assert len(val_idx) == 3
            labels = ds.labels[val_idx].tolist()
            assert sorted(labels) == [0, 1, 2]
            assert sorted(train_idx + val_idx) == list(range(15))
            seen += val_idx
        assert sorted(seen) == list(range(15))

    def test_same_seed_identical(self):
        ds = self._dataset(7)
        assert stratified_folds(ds, 3, seed=4) == stratified_folds(ds, 3, seed=4)

    def test_small_class_rejected_by_name(self):
        ds = self._dataset(2)
        with pytest.raises(DataError, match="c0"):
            stratified_folds(ds, 3, seed=0)

    def test_fold_count_validated(self):
        with pytest.raises(ConfigError, match="folds"):
            stratified_folds(self._dataset(), 1, seed=0)
