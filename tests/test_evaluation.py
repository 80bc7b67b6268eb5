"""Confusion-matrix metrics, comparison tables, attention export."""

import numpy as np
import pytest

from jointnet import (ArchConfig, MetricsReport, Tensor, build, compare_report,
                      confusion, evaluate, export_attention, forward_backbone,
                      metrics, read_netpbm, render_metrics_kv)
from jointnet.data import Dataset
from jointnet.evaluation import predict_chunk, tally
from jointnet.kvio import parse_kv


def brute_force_metrics(counts: np.ndarray):
    """Independent one-vs-rest recount used as the oracle."""
    k = counts.shape[0]
    n = counts.sum()
    sens, spec = [], []
    for c in range(k):
        tp = fn = fp = tn = 0
        for i in range(k):
            for j in range(k):
                v = int(counts[i, j])
                if i == c and j == c:
                    tp += v
                elif i == c:
                    fn += v
                elif j == c:
                    fp += v
                else:
                    tn += v
        sens.append(tp / (tp + fn) if tp + fn else 0.0)
        spec.append(tn / (tn + fp) if tn + fp else 0.0)
    accuracy = sum(int(counts[i, i]) for i in range(k)) / n
    return accuracy, sum(sens) / k, sum(spec) / k


class TestConfusion:
    def test_counts_cells(self):
        cm = confusion([0, 1, 1, 2], [0, 1, 2, 2], 3)
        np.testing.assert_array_equal(
            cm, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        assert cm.sum() == 4

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            confusion([0, 3], [0, 1], 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            confusion([0, 1], [0], 2)


class TestMetrics:
    def test_two_class_oracle(self):
        """[[50,10],[5,35]]: accuracy .85, sens = spec = .854167."""
        report = metrics(confusion([0] * 60 + [1] * 40,
                                   [0] * 50 + [1] * 10 + [0] * 5 + [1] * 35, 2))
        assert report.accuracy == pytest.approx(0.85, abs=1e-12)
        assert report.sensitivity == pytest.approx(0.854167, abs=1e-6)
        assert report.specificity == pytest.approx(0.854167, abs=1e-6)

    def test_perfect_predictions(self):
        report = metrics(confusion([0, 1, 2], [0, 1, 2], 3))
        assert (report.accuracy, report.sensitivity, report.specificity) == (1, 1, 1)
        assert report.degenerate_classes == []

    def test_absent_class_flagged(self):
        """A class never present gets sensitivity 0 and a degenerate flag."""
        report = metrics(np.array([[0, 0, 0],
                                   [1, 8, 1],
                                   [0, 2, 8]]))
        assert report.per_class[0][0] == 0.0
        assert report.degenerate_classes == [0]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics(np.zeros((3, 3), dtype=np.int64))

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 30, (k, k))
            if counts.sum() == 0:
                counts[0, 0] = 1
            report = metrics(counts)
            acc, sens, spec = brute_force_metrics(counts)
            assert abs(report.accuracy - acc) <= 1e-12
            assert abs(report.sensitivity - sens) <= 1e-12
            assert abs(report.specificity - spec) <= 1e-12


def _report(accuracy, sensitivity=0.9, specificity=0.9, k=3):
    return MetricsReport(accuracy, sensitivity, specificity,
                         [(sensitivity, specificity)] * k, [])


class TestCompareReport:
    def test_upward_delta_with_arrow(self):
        table = compare_report("ResNet50", _report(0.8340),
                              "Joint-ResNet50", _report(0.9240))
        accuracy_line = [l for l in table.splitlines() if l.startswith("Accuracy")][0]
        assert "83.40" in accuracy_line
        assert "92.40" in accuracy_line
        assert "+9.00 ↑" in accuracy_line

    def test_downward_delta_with_arrow(self):
        table = compare_report("OpticNet-71", _report(1.0), "Joint", _report(0.9968))
        line = [l for l in table.splitlines() if l.startswith("Accuracy")][0]
        assert "-0.32 ↓" in line

    def test_zero_delta_has_no_arrow(self):
        table = compare_report("A", _report(0.5), "B", _report(0.5))
        line = [l for l in table.splitlines() if l.startswith("Accuracy")][0]
        assert line.rstrip().endswith("+0.00")
        assert "↑" not in line and "↓" not in line

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            compare_report("A", _report(0.5, k=2), "B", _report(0.5, k=3))


class TestPredictEvaluate:
    def _dataset(self, arch, n=6, seed=0):
        rng = np.random.default_rng(seed)
        images, labels = [], []
        for _ in range(n):
            images.append(rng.uniform(0, 1, (arch.input_channels, arch.input_size,
                                             arch.input_size)))
            labels.append(int(rng.integers(0, arch.n_classes)))
        return Dataset(np.stack(images), labels, [f"s{i}" for i in range(n)],
                       [f"c{c}" for c in range(arch.n_classes)])

    @pytest.mark.parametrize("dtype, size, chunk", [(np.float32, 32, 10),
                                                    (np.float64, 32, 5),
                                                    (np.float32, 64, 2),
                                                    (np.float32, 256, 1)])
    def test_predict_chunk_follows_the_first_conv_bytes(self, dtype, size, chunk):
        """At base width 8, the first conv's output is 32 KiB per float32
        image at 32 px, so 10 fit the budget; at 256 px one image is over
        it and still makes a chunk."""
        arch = ArchConfig(n_stages=2, input_size=size, base_channels=8)
        assert predict_chunk(arch, dtype) == chunk

    def test_tally_matches_argmax(self):
        """The chunked counts are those of each sample's classifier-path
        argmax, and a second pass gives the same counts; the 23 recipe
        images make chunks of 10, 10 and 3."""
        arch = ArchConfig(n_stages=2, input_size=32, base_channels=8)
        net = build(arch, seed=0)
        ds = self._dataset(arch, n=23)
        chunk = predict_chunk(arch, net.dtype)
        assert [len(labels) for _, labels in ds.batches(chunk)] == [10, 10, 3]
        (counts,) = tally([net], ds.batches(chunk), arch.n_classes)
        assert counts.sum() == len(ds)
        argmax = [int(forward_backbone(net, s.image).data.argmax()) for s in ds.samples]
        np.testing.assert_array_equal(counts, confusion(ds.labels, argmax, arch.n_classes))
        np.testing.assert_array_equal(counts, tally([net], ds.batches(chunk), arch.n_classes)[0])

    def test_evaluate_consistency(self):
        arch = ArchConfig(n_stages=1, input_channels=1, input_size=16,
                          base_channels=2)
        net = build(arch, seed=1)
        ds = self._dataset(arch, n=10, seed=3)
        cm, report = evaluate(net, ds)
        assert cm.sum() == 10
        assert report.accuracy == np.trace(cm) / 10

    def test_tally_counts_each_net_as_evaluate_does(self):
        """One pass over the batches gives every net the counts of its own
        predictions; batches of 3 split the 10 samples unevenly."""
        arch = ArchConfig(n_stages=1, input_channels=1, input_size=16,
                          base_channels=2)
        nets = [build(arch, seed=s) for s in (1, 2)]
        ds = self._dataset(arch, n=10, seed=3)
        counts = tally(nets, ds.batches(3), arch.n_classes)
        for net, got in zip(nets, counts, strict=True):
            np.testing.assert_array_equal(got, evaluate(net, ds)[0])


class TestRenderKv:
    def test_parses_back(self):
        cm = confusion([0, 1, 1], [0, 1, 0], 2)
        text = render_metrics_kv(cm, metrics(cm), ["neg", "pos"],
                                 extra=[("model", "m.ckpt")])
        values = parse_kv(text)
        assert values["model"] == "m.ckpt"
        assert values["samples"] == "3"
        assert float(values["accuracy"]) == metrics(cm).accuracy
        assert values["confusion.neg"] == "1 0"


class TestExportAttention:
    def test_writes_one_pgm_per_stage(self, tmp_path):
        arch = ArchConfig(n_stages=2, input_channels=1, input_size=16,
                          base_channels=2)
        net = build(arch, seed=0)
        image = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 16, 16)))
        paths = export_attention(net, image, tmp_path / "maps")
        assert [p.name for p in paths] == ["attn_stage1.pgm", "attn_stage2.pgm"]
        sizes = []
        for p in paths:
            pixels, maxval = read_netpbm(p)
            assert maxval == 255
            sizes.append(pixels.shape[1])
        # stage 1 sits at half resolution, stage 2 at full
        assert sizes == [8, 16]
