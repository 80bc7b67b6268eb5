"""Dataset loading, resizing, synthesis, and fold assignment."""

import numpy as np
import pytest

from jointnet import (ConfigError, DataError, Tensor, load_directory,
                      load_image, read_netpbm, resize_bilinear,
                      stratified_folds, synth_generate, write_dataset,
                      write_pgm)
from jointnet.data import CLASS_NAMES, Dataset, Sample, _resize_array


class TestResize:
    def test_constant_stays_constant(self):
        img = Tensor(np.full((2, 5, 7), 0.4))
        out = resize_bilinear(img, 12)
        np.testing.assert_allclose(out.data, 0.4)

    def test_upsample_oracle(self):
        """1x2 [0,1] to four columns: half-pixel centers give 0, .25, .75, 1."""
        out = resize_bilinear(Tensor(np.array([[[0.0, 1.0]]])), 4)
        assert out.shape == (1, 4, 4)
        for row in out.data[0]:
            np.testing.assert_allclose(row, [0.0, 0.25, 0.75, 1.0])

    def test_checkerboard_downsample_averages(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        out = resize_bilinear(Tensor(board[None].astype(float)), 2)
        np.testing.assert_allclose(out.data, 0.5)

    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (3, 8, 8))
        np.testing.assert_array_equal(resize_bilinear(Tensor(img), 8).data, img)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            img = rng.uniform(0, 1, (1, rng.integers(2, 9), rng.integers(2, 9)))
            out = resize_bilinear(Tensor(img), int(rng.integers(1, 16))).data
            assert out.min() >= img.min() - 1e-12
            assert out.max() <= img.max() + 1e-12


class TestLoadDirectory:
    def _make_tree(self, root, classes=("AMD", "DME", "NORMAL"), n=2, size=6):
        rng = np.random.default_rng(0)
        for name in classes:
            d = root / name
            d.mkdir(parents=True)
            for i in range(n):
                write_pgm(d / f"{i}.pgm", rng.integers(0, 256, (size, size)), 255)

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
        write_pgm(p, np.random.default_rng(8).integers(0, maxval + 1, shape), maxval)
        raw, raw_maxval = read_netpbm(p)
        expected = _resize_array(np.repeat(raw / raw_maxval, 3, axis=0), size)
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

    def test_pure_function_of_contents(self, tmp_path):
        self._make_tree(tmp_path)
        a = load_directory(tmp_path, 8, channels=1)
        b = load_directory(tmp_path, 8, channels=1)
        for s1, s2 in zip(a.samples, b.samples):
            np.testing.assert_array_equal(s1.image.data, s2.image.data)


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
        write_dataset(ds, tmp_path)
        loaded = load_directory(tmp_path, 16, channels=3)
        assert loaded.class_names == list(CLASS_NAMES)
        assert len(loaded) == 6
        # 8-bit quantization bounds the roundtrip error
        for orig, back in zip(ds.samples, loaded.samples):
            assert np.abs(orig.image.data - back.image.data).max() <= 0.5 / 255 + 1e-9


class TestStratifiedFolds:
    def _dataset(self, per_class=5, classes=3):
        samples = [Sample(Tensor(np.zeros((1, 4, 4))), c, f"{c}/{i}")
                   for c in range(classes) for i in range(per_class)]
        return Dataset(samples, [f"c{c}" for c in range(classes)])

    def test_balanced_partition(self):
        """15 samples, 3 classes, 5 folds: every val split is one per class."""
        ds = self._dataset()
        folds = stratified_folds(ds, 5, seed=0)
        seen = []
        for train_idx, val_idx in folds:
            assert len(val_idx) == 3
            labels = [ds.samples[i].label for i in val_idx]
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
