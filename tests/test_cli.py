"""End-to-end command-line workflows through main(argv)."""

import ctypes
import os
import re
import shlex
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jointnet.cli
import jointnet.data
import jointnet.evaluation
import jointnet.fileio
import jointnet.network
import jointnet.training
from jointnet import (ArchConfig, Checkpoint, build, compare_report, evaluate,
                      load_checkpoint, load_directory, read_netpbm,
                      render_metrics_kv, save_checkpoint, to_network, write_pgm)
from jointnet.cli import main
from jointnet.gradcheck import GradcheckResult

from peaks import traced_peak
from test_checkpoint import as_float64, replace_header_line, version_1_bytes
from test_fileio import fail_midway, leftovers, pipe_reader

TINY_CONFIG = """\
# tiny smoke-test run
n_stages = 1
input_channels = 1
input_size = 16
base_channels = 2
n_classes = 3
epochs = 2
folds = 2
batch_size = 4
lr = 0.001
seed = 0
"""


def succeeds(argv) -> None:
    assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synth dataset, a config file, and one trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--per-class", "6",
                 "--size", "16", "--seed", "0"]) == 0
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG)
    model = root / "model.ckpt"
    log = root / "train.log"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(model), "--log", str(log)]) == 0
    return {"root": root, "data": data, "config": config,
            "model": model, "log": log}


class TestSynth:
    def test_writes_class_tree(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--per-class", "2",
                     "--size", "16"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["AMD", "DME", "NORMAL"]
        pixels, maxval = read_netpbm(out / "AMD" / "amd_0000.pgm")
        assert pixels.shape == (1, 16, 16)
        assert maxval == 255

    def test_peak_does_not_grow_with_the_image_count(self, tmp_path, capsys):
        """Each image is written as soon as it is drawn: at 128 px wild,
        6 per class peaked within 2 KB of 1 per class (0.68 MB), where
        holding every image until the write read 0.79 and 2.76 MB."""
        peaks = [traced_peak(lambda: succeeds(["synth", "--out", str(tmp_path / str(n)),
                                               "--per-class", str(n), "--size", "128",
                                               "--shift", "wild"]))
                 for n in (1, 6)]
        assert peaks[1] - peaks[0] <= 64 * 1024, peaks

    @pytest.mark.parametrize("shift", ["none", "wild"])
    def test_same_files_as_the_three_channel_dataset(self, tmp_path, shift):
        """synth builds one plane per image; its PGMs are the bytes that
        writing the first channel of the three-channel dataset gives."""
        out = tmp_path / "cli"
        assert main(["synth", "--out", str(out), "--per-class", "3", "--size", "24",
                     "--shift", shift, "--seed", "4"]) == 0
        full = tmp_path / "full"
        ds = jointnet.data.synth_generate(3, 24, shift, 4, channels=3)
        want = sorted(jointnet.data.write_samples(ds.samples, ds.class_names, full))
        got = sorted(p for p in out.rglob("*") if p.is_file())
        assert [p.relative_to(out) for p in got] == [p.relative_to(full) for p in want]
        for mine, theirs in zip(got, want):
            assert mine.read_bytes() == theirs.read_bytes(), mine


class TestTrain:
    def test_checkpoint_and_log_exist(self, workspace):
        assert workspace["model"].exists()
        text = workspace["log"].read_text()
        assert "# columns:" in text
        assert "# fold 0" in text and "# fold 1" in text
        assert "# best fold" in text

    def test_repeat_run_byte_identical(self, workspace, tmp_path):
        model2 = tmp_path / "model2.ckpt"
        log2 = tmp_path / "log2.txt"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(model2), "--log", str(log2)]) == 0
        assert model2.read_bytes() == workspace["model"].read_bytes()
        assert log2.read_text() == workspace["log"].read_text()

    def test_log_flag_is_optional(self, workspace, tmp_path):
        model2 = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(model2)]) == 0
        assert model2.exists()
        assert list(tmp_path.glob("*.log")) == []

    def test_flag_overrides_config_and_is_logged(self, workspace, tmp_path):
        model2 = tmp_path / "m.ckpt"
        log2 = tmp_path / "l.txt"
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(model2), "--log", str(log2),
                     "--mode", "backbone"]) == 0
        assert "# override.mode = backbone" in log2.read_text()

    def test_phi_out_of_range_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "phi = 1.5\n")
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(bad), "--out", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "l.txt")])
        assert code == 1
        assert "[0, 1]" in capsys.readouterr().err

    def test_non_finite_lr_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG.replace("lr = 0.001", "lr = 1e999"))
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(bad), "--out", str(tmp_path / "m"),
                     "--log", str(tmp_path / "l")])
        assert code == 1
        assert "lr must be >= 1e-07 and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_unknown_config_key_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rate = 0.1\n")
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(bad), "--out", str(tmp_path / "m"),
                     "--log", str(tmp_path / "l")])
        assert code == 1
        assert "unknown key 'learning_rate'" in capsys.readouterr().err

    @pytest.mark.parametrize("channels", [1, 3])
    def test_holds_gray_once_in_float32_and_casts_no_batch(self, workspace, tmp_path,
                                                           monkeypatch, channels):
        """``train`` loads the gray set as one float32 plane per image, the
        dtype it trains in, so every batch reaches the network in the
        network's dtype, replicated to the configured channels."""
        loaded, seen = [], []
        real_load, real_losses = jointnet.cli.load_directory, jointnet.training._batch_losses

        def load(*args):
            loaded.append(real_load(*args))
            return loaded[-1]

        def losses(net, images, labels, config):
            seen.append((net.dtype, images.data.dtype, images.shape[-3]))
            return real_losses(net, images, labels, config)

        monkeypatch.setattr(jointnet.cli, "load_directory", load)
        monkeypatch.setattr(jointnet.training, "_batch_losses", losses)
        config = tmp_path / "run.cfg"
        config.write_text(TINY_CONFIG.replace("input_channels = 1",
                                              f"input_channels = {channels}"))
        succeeds(["train", "--data", str(workspace["data"]), "--config", str(config),
                  "--out", str(tmp_path / "m.ckpt")])
        (dataset,) = loaded
        assert dataset.images.dtype == np.float32 and dataset.images.shape == (18, 1, 16, 16)
        f32 = np.dtype(np.float32)
        assert seen and set(seen) == {(f32, f32, channels)}

    def test_missing_data_dir_exits_2(self, workspace, tmp_path):
        assert main(["train", "--data", str(tmp_path / "absent"),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "m"),
                     "--log", str(tmp_path / "l")]) == 2


class TestEval:
    def test_report_written(self, workspace, tmp_path):
        report = tmp_path / "metrics.txt"
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]),
                     "--report", str(report)]) == 0
        text = report.read_text()
        assert "accuracy = " in text
        assert "confusion.AMD = " in text

    def test_report_through_symlink(self, workspace, tmp_path):
        target = tmp_path / "metrics.txt"
        target.write_text("old report\n")
        link = tmp_path / "latest.txt"
        link.symlink_to(target)
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]),
                     "--report", str(link)]) == 0
        assert link.is_symlink()
        assert "accuracy = " in target.read_text()

    def test_report_to_pipe(self, workspace, tmp_path):
        pipe, received = pipe_reader(tmp_path)
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]),
                     "--report", str(pipe)]) == 0
        assert "accuracy = " in received().decode()

    def test_missing_model_exits_2(self, workspace, tmp_path):
        assert main(["eval", "--model", str(tmp_path / "no.ckpt"),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2

    def test_corrupt_model_exits_2(self, workspace, tmp_path):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"not a checkpoint")
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_runs_in_the_checkpoint_dtype(self, workspace, tmp_path,
                                                  monkeypatch, dtype):
        """``train`` writes float32; a float64 checkpoint evaluates in
        float64 from its first conv to its class probabilities."""
        model = workspace["model"]
        if dtype == np.float64:
            model = as_float64(model, tmp_path / "f64.ckpt")
        seen = []

        def recording(fn):
            def run(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append(out.data.dtype)
                return out
            return run

        monkeypatch.setattr(jointnet.network, "conv2d", recording(jointnet.network.conv2d))
        monkeypatch.setattr(jointnet.evaluation, "forward_backbone",
                            recording(jointnet.evaluation.forward_backbone))
        assert main(["eval", "--model", str(model), "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 0
        assert len(seen) > 1 and set(seen) == {np.dtype(dtype)}

    def test_version_1_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        old = tmp_path / "v1.ckpt"
        old.write_bytes(version_1_bytes(as_float64(workspace["model"],
                                                   tmp_path / "f64.ckpt")))
        assert main(["eval", "--model", str(old),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2
        assert "v1.ckpt: unsupported checkpoint version 1" in capsys.readouterr().err

    def test_non_finite_parameter_exits_2(self, workspace, tmp_path, capsys):
        blob = bytearray(workspace["model"].read_bytes())
        blob[-4:] = struct.pack("<f", np.nan)  # the last float32 parameter value
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert "nan.ckpt: tensor '" in err
        assert f"holds non-finite nan at byte {len(blob) - 4}" in err

    def test_non_utf8_checkpoint_header_exits_2(self, workspace, tmp_path, capsys):
        blob = bytearray(workspace["model"].read_bytes())
        blob[9] = 0xFF  # first byte of the key = value header
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2
        assert "header is not UTF-8 at byte 9" in capsys.readouterr().err

    def test_n_stages_past_the_print_limit_exits_2(self, workspace, tmp_path, capsys):
        blob = replace_header_line(workspace["model"].read_bytes(), b"n_stages = 1\n",
                                   b"n_stages = " + b"9" * 4300 + b"\n")
        bad = tmp_path / "deep.ckpt"
        bad.write_bytes(blob)
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2
        assert "deep.ckpt: invalid header" in capsys.readouterr().err

    def test_oversized_ascii_header_exits_2(self, workspace, tmp_path, capsys):
        # three classes, as the model expects: a class count that differs
        # exits 1 before any image is decoded
        for name in ("DME", "NORMAL"):
            (tmp_path / "data" / name).mkdir(parents=True)
            write_pgm(tmp_path / "data" / name / "ok.pgm", np.zeros((16, 16)))
        amd = tmp_path / "data" / "AMD"
        amd.mkdir(parents=True)
        (amd / "huge.pgm").write_bytes(b"P2 2000000000 2000000000 255\n0\n")
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(tmp_path / "data"),
                     "--report", str(tmp_path / "r.txt")]) == 2
        assert "huge.pgm" in capsys.readouterr().err

    def test_class_count_is_checked_before_any_image_is_decoded(
            self, workspace, tmp_path, capsys, monkeypatch):
        for name in ("AMD", "DME"):
            (tmp_path / "data" / name).mkdir(parents=True)
            write_pgm(tmp_path / "data" / name / "x.pgm", np.zeros((16, 16)))
        monkeypatch.setattr(jointnet.data, "read_netpbm", None)  # any decode fails
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(tmp_path / "data"),
                     "--report", str(tmp_path / "r.txt")]) == 1
        assert "has 2 classes (AMD, DME) but the model expects 3" in capsys.readouterr().err

    def test_data_path_that_would_not_read_back_exits_1(self, workspace, tmp_path, capsys):
        """A report line ``data = runs/#3`` would read back as ``runs/``."""
        data = tmp_path / "runs" / "#3"
        data.parent.mkdir()
        data.symlink_to(workspace["data"])
        report = tmp_path / "r.txt"
        assert main(["eval", "--model", str(workspace["model"]), "--data", str(data),
                     "--report", str(report)]) == 1
        assert "key 'data'" in capsys.readouterr().err
        assert not report.exists()


# Eval and compare stream their images, so their traced peak is the same
# (within this margin, the listing of the files) on 96 images as on 12:
# 1.91 and 1.94 MB for eval, 2.00 and 2.03 MB for compare at the float32
# recipe, 10 images per forward pass (0.82 and 0.86 MB, 0.92 and 0.94 MB
# at 4 per pass). Decoding every image first read 1.72 and 3.81 MB for
# eval, 1.81 and 3.90 MB for compare, in float64 at 4 per pass.
STREAM_MARGIN = 64 * 1024
# The recipe eval's own bound, so that a larger chunk budget cannot grow
# it unseen.
EVAL_PEAK = 2_500_000


@pytest.fixture(scope="module")
def recipe_sets(tmp_path_factory):
    """Two untrained recipe checkpoints (32 px, 3 channels, 2 stages, base
    width 8) and 32 px sets of 12 and 96 images."""
    root = tmp_path_factory.mktemp("stream")
    arch = ArchConfig(n_stages=2, input_size=32, base_channels=8)
    models = []
    for seed in (0, 1):
        net = build(arch, seed=seed)
        models.append(root / f"m{seed}.ckpt")
        save_checkpoint(Checkpoint(arch, {name: p.data for name, p in net.params.items()},
                                   1, 0.5), models[-1])
    sets = {}
    for per_class in (4, 32):
        sets[3 * per_class] = root / f"data{3 * per_class}"
        assert main(["synth", "--out", str(sets[3 * per_class]), "--per-class",
                     str(per_class), "--size", "32", "--seed", "3"]) == 0
    return {"root": root, "models": models, "sets": sets}


class TestStreaming:
    @staticmethod
    def _eval(recipe_sets, n):
        return ["eval", "--model", str(recipe_sets["models"][0]),
                "--data", str(recipe_sets["sets"][n]),
                "--report", str(recipe_sets["root"] / f"eval{n}.txt")]

    @staticmethod
    def _compare(recipe_sets, n):
        a, b = recipe_sets["models"]
        return ["compare", "--model-a", str(a), "--model-b", str(b),
                "--data", str(recipe_sets["sets"][n]),
                "--report", str(recipe_sets["root"] / f"compare{n}.txt")]

    @staticmethod
    def _record_batches(monkeypatch):
        """(net dtype, chunk dtype, image count) of every classifier forward
        pass, in order."""
        seen = []
        real = jointnet.evaluation.forward_backbone

        def recording(net, images):
            seen.append((net.dtype, images.data.dtype, len(images.data)))
            return real(net, images)

        monkeypatch.setattr(jointnet.evaluation, "forward_backbone", recording)
        return seen

    @pytest.mark.parametrize("command", ["_eval", "_compare"])
    def test_peak_does_not_grow_with_the_image_count(self, recipe_sets, capsys, command):
        argv = getattr(self, command)
        peaks = {n: traced_peak(lambda: succeeds(argv(recipe_sets, n))) for n in (12, 96)}
        if command == "_eval":
            assert max(peaks.values()) <= EVAL_PEAK, peaks
        assert peaks[96] - peaks[12] <= STREAM_MARGIN, peaks

    def test_eval_forwards_predict_chunks_and_a_tail(self, recipe_sets, capsys,
                                                     monkeypatch):
        """A float32 recipe model classifies 10 images per pass, so 12
        images make one chunk of 10 and a tail of 2, each decoded in
        float32."""
        seen = self._record_batches(monkeypatch)
        succeeds(self._eval(recipe_sets, 12))
        f32 = np.dtype(np.float32)
        assert seen == [(f32, f32, 10), (f32, f32, 2)]

    def test_compare_forwards_the_smaller_chunk_to_both(self, recipe_sets, tmp_path,
                                                        capsys, monkeypatch):
        """Beside a float64 model of the same shape (5 per pass), the float32
        model (10 per pass) gets the same chunks of 5, from one float64
        decode."""
        a = recipe_sets["models"][0]
        b = as_float64(recipe_sets["models"][1], tmp_path / "f64.ckpt")
        seen = self._record_batches(monkeypatch)
        succeeds(["compare", "--model-a", str(a), "--model-b", str(b),
                  "--data", str(recipe_sets["sets"][12]),
                  "--report", str(tmp_path / "compare.txt")])
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert seen == [(f32, f64, 5), (f64, f64, 5), (f32, f64, 5), (f64, f64, 5),
                        (f32, f64, 2), (f64, f64, 2)]

    def test_mixed_dtype_compare_matches_evaluating_the_loaded_set(
            self, recipe_sets, tmp_path, capsys):
        """A float32 and a float64 model compared on float64 chunks give
        the table of each one's ``evaluate`` on the loaded set."""
        a = recipe_sets["models"][0]
        b = as_float64(recipe_sets["models"][1], tmp_path / "f64.ckpt")
        data = recipe_sets["sets"][96]
        succeeds(["compare", "--model-a", str(a), "--model-b", str(b),
                  "--data", str(data), "--report", str(tmp_path / "compare.txt")])
        dataset = load_directory(data, 32, 3)
        a_report, b_report = (evaluate(to_network(load_checkpoint(m)), dataset)[1]
                              for m in (a, b))
        assert ((tmp_path / "compare.txt").read_bytes()
                == compare_report("m0", a_report, "f64", b_report).encode("utf-8"))

    @pytest.mark.parametrize("n", [12, 96])
    def test_reports_match_evaluating_the_loaded_set(self, recipe_sets, capsys, n):
        succeeds(self._eval(recipe_sets, n))
        succeeds(self._compare(recipe_sets, n))
        dataset = load_directory(recipe_sets["sets"][n], 32, 3)
        reports = []
        for model in recipe_sets["models"]:
            counts, report = evaluate(to_network(load_checkpoint(model)), dataset)
            reports.append(report)
            if model == recipe_sets["models"][0]:
                want = render_metrics_kv(counts, report, dataset.class_names,
                                         extra=[("model", str(model)),
                                                ("data", str(recipe_sets["sets"][n]))])
                assert (recipe_sets["root"] / f"eval{n}.txt").read_text() == want
        assert ((recipe_sets["root"] / f"compare{n}.txt").read_text()
                == compare_report("m0", reports[0], "m1", reports[1]))


class TestCompare:
    def test_side_by_side_table(self, workspace, tmp_path):
        report = tmp_path / "cmp.txt"
        assert main(["compare", "--model-a", str(workspace["model"]),
                     "--model-b", str(workspace["model"]),
                     "--data", str(workspace["data"]),
                     "--report", str(report),
                     "--name-a", "left", "--name-b", "right"]) == 0
        text = report.read_text()
        assert text.splitlines()[0].startswith("Metric")
        assert "left" in text and "right" in text
        accuracy_line = [l for l in text.splitlines() if l.startswith("Accuracy")][0]
        assert "+0.00" in accuracy_line

    @pytest.mark.parametrize("size_b, reads_per_image", [(16, 1), (8, 2)])
    def test_decodes_the_data_once_per_input_shape(self, workspace, tmp_path, monkeypatch,
                                                   size_b, reads_per_image):
        """Model B reuses model A's decoded images when their input shapes
        match, and decodes again when they differ; the report is the one
        two separate evaluations give either way."""
        arch_b = replace(load_checkpoint(workspace["model"]).arch, input_size=size_b)
        net_b = build(arch_b, seed=1)
        model_b = tmp_path / "b.ckpt"
        save_checkpoint(Checkpoint(arch_b, {name: p.data for name, p in net_b.params.items()},
                                   1, 0.5), model_b)
        reads = []
        real_read = jointnet.data.read_netpbm

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(jointnet.data, "read_netpbm", counting_read)
        report = tmp_path / "cmp.txt"
        assert main(["compare", "--model-a", str(workspace["model"]),
                     "--model-b", str(model_b), "--data", str(workspace["data"]),
                     "--report", str(report)]) == 0
        n_images = len(list(workspace["data"].glob("*/*.pgm")))
        assert len(reads) == reads_per_image * n_images

        separate = []
        for path in (workspace["model"], model_b):
            ckpt = load_checkpoint(path)
            dataset = load_directory(workspace["data"], ckpt.arch.input_size,
                                     ckpt.arch.input_channels)
            separate.append(evaluate(to_network(ckpt), dataset)[1])
        assert report.read_text() == compare_report("model", separate[0], "b", separate[1])


class TestAtomicWrites:
    """A write that fails midway exits 2 and leaves the previous artifact
    whole, with no temp file beside it."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "{model}", "--data", "{data}", "--report", "{out}"],
        ["compare", "--model-a", "{model}", "--model-b", "{model}",
         "--data", "{data}", "--report", "{out}"],
        ["train", "--data", "{data}", "--config", "{config}",
         "--out", "{out}"],
    ], ids=["eval-report", "compare-report", "train-checkpoint"])
    def test_interrupted_write_keeps_previous_file(self, workspace, tmp_path,
                                                   monkeypatch, argv):
        out = tmp_path / "artifact"
        out.write_bytes(b"previous run")
        fields = {key: str(value) for key, value in workspace.items()}
        fail_midway(monkeypatch)
        assert main([arg.format(out=out, **fields) for arg in argv]) == 2
        assert out.read_bytes() == b"previous run"
        assert leftovers(tmp_path) == []

    def test_interrupted_log_keeps_previous_log(self, workspace, tmp_path, monkeypatch):
        log = tmp_path / "train.log"
        log.write_bytes(b"previous log")
        real_write = jointnet.fileio.write_atomic

        def fail_on_log(path, data):
            if path == str(log):
                fail_midway(monkeypatch)
            real_write(path, data)

        monkeypatch.setattr(jointnet.cli, "write_atomic", fail_on_log)
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "m.ckpt"), "--log", str(log)]) == 2
        assert log.read_bytes() == b"previous log"
        assert leftovers(tmp_path) == []


class TestExportAttn:
    def test_writes_stage_maps(self, workspace, tmp_path):
        image = workspace["data"] / "DME" / "dme_0000.pgm"
        out = tmp_path / "maps"
        assert main(["export-attn", "--model", str(workspace["model"]),
                     "--image", str(image), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["attn_stage1.pgm"]
        pixels, _ = read_netpbm(out / "attn_stage1.pgm")
        assert pixels.shape == (1, 16, 16)


class TestGradcheck:
    """The command's verdict and exit code, over a stubbed battery: the
    battery itself is checked by the shared seed-0 run."""

    def _stub(self, monkeypatch, results):
        calls = []

        def run_battery(**kwargs):
            calls.append(kwargs)
            return results

        monkeypatch.setattr(jointnet.cli, "run_battery", run_battery)
        return calls

    def test_battery_passes_and_prints_verdict(self, capsys, monkeypatch,
                                               reference_battery):
        calls = self._stub(monkeypatch, reference_battery[0])
        assert main(["gradcheck"]) == 0
        assert calls == [{"seed": 0}]
        out = capsys.readouterr().out
        assert "gradcheck PASS" in out
        assert "joint_16x16_2stage" in out

    def test_failing_check_exits_3_and_names_the_entry(self, capsys, monkeypatch):
        failing = GradcheckResult("conv2d_same", 0.5, False, "k", 7, 30)
        passing = GradcheckResult("relu", 1e-9, True, "x", 0, 50)
        self._stub(monkeypatch, [passing, failing])
        assert main(["gradcheck", "--seed", "2"]) == 3
        out = capsys.readouterr().out
        assert "conv2d_same: max_rel_err=5.000e-01 (30 entries) FAIL at k[7]" in out
        assert "gradcheck FAIL" in out


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# Two identical train calls in one fresh process; prints the minor page
# faults of the second.
TWO_TRAINS = """\
import contextlib, io, resource, sys
from jointnet.cli import main
root = sys.argv[1]
def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
call("synth", "--out", f"{root}/data", "--per-class", "8", "--size", "32")
with open(f"{root}/run.cfg", "w") as f:
    f.write("input_size = 32\\nepochs = 1\\nfolds = 2\\n")
train = ("train", "--data", f"{root}/data", "--config", f"{root}/run.cfg",
         "--out", f"{root}/m.ckpt")
call(*train)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
call(*train)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeap:
    @pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
    def test_repeat_train_call_faults_in_no_fresh_pages(self, tmp_path):
        """The heap stays mapped from one call (and step) to the next: with
        glibc's default thresholds this second call takes about 2,100
        minor faults, with the CLI's under 50 (float32 training, 2 vCPUs;
        the counts move by tens with the heap layout of the code)."""
        src = Path(jointnet.cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", TWO_TRAINS, str(tmp_path)],
                              capture_output=True, text=True, env=env, check=True)
        assert int(done.stdout) < 1000


    def test_thresholds_are_set_once_per_process(self, monkeypatch):
        """``main`` sets the malloc thresholds on its first call only."""
        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))

        jointnet.cli._hold_heap.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        try:
            for _ in range(3):
                assert main(["--version"]) == 0
        finally:
            jointnet.cli._hold_heap.cache_clear()
        cli = jointnet.cli
        assert calls == [(cli._M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD),
                         (cli._M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD)]


class TestWidths:
    # widths numpy refuses before touching memory: more bytes than the
    # address space, or more than numpy's size limit
    @pytest.mark.parametrize("key, value, name", [
        ("base_channels", 10 ** 17, "enc1.conv1.w"),
        ("base_channels", 10 ** 18, "enc1.conv1.w"),
        ("input_channels", 10 ** 17, "replicate gray"),
    ])
    def test_width_numpy_refuses_exits_1(self, workspace, tmp_path, capsys,
                                         key, value, name):
        lines = [line for line in TINY_CONFIG.splitlines()
                 if not line.startswith(f"{key} =")]
        config = tmp_path / "wide.cfg"
        config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert main(["train", "--data", str(workspace["data"]), "--config", str(config),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err


class TestSizes:
    # image sizes numpy refuses before touching memory: more bytes than
    # numpy's size limit, or than the address space
    @pytest.mark.parametrize("size", [2 ** 60, 10 ** 17])
    @pytest.mark.parametrize("command", ["synth", "train", "eval", "export-attn"])
    def test_size_numpy_refuses_exits_1(self, workspace, tmp_path, capsys, command, size):
        """A size from the command line, the config or a checkpoint's header
        that numpy cannot allocate is a configuration error naming it."""
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out), "--per-class", "1", "--size", str(size)]
        elif command == "train":
            config = tmp_path / "big.cfg"
            config.write_text(TINY_CONFIG.replace("input_size = 16", f"input_size = {size}"))
            argv = ["train", "--data", str(workspace["data"]), "--config", str(config),
                    "--out", str(out)]
        else:
            ckpt = load_checkpoint(workspace["model"])
            model = tmp_path / "big.ckpt"
            save_checkpoint(replace(ckpt, arch=replace(ckpt.arch, input_size=size)), model)
            image = next(workspace["data"].glob("*/*.pgm"))
            argv = (["eval", "--model", str(model), "--data", str(workspace["data"]),
                     "--report", str(out)] if command == "eval" else
                    ["export-attn", "--model", str(model), "--image", str(image),
                     "--out", str(out)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"size {size}" in err
        assert not out.exists()


class TestDecodeAllocation:
    @pytest.mark.parametrize("command", ["train", "eval", "export-attn"])
    def test_unholdable_chunk_exits_1(self, workspace, tmp_path, capsys, monkeypatch,
                                      command):
        """A decoded chunk that cannot be allocated is a configuration error
        naming the size, raised before any gather: 32 px images decoded for
        a 16 px model."""
        data = tmp_path / "data32"
        assert main(["synth", "--out", str(data), "--per-class", "2", "--size", "32"]) == 0
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if len(shape) == 4 and shape[2:] == (16, 16):
                raise MemoryError("cannot allocate a decoded chunk")
            return real_empty(shape, *args, **kwargs)

        def no_gather(*args):
            raise AssertionError("nothing is gathered before the output exists")

        monkeypatch.setattr(jointnet.data.np, "empty", empty)
        monkeypatch.setattr(jointnet.data, "_gather", no_gather)
        out = tmp_path / "out"
        image = next(data.glob("*/*.pgm"))
        argv = {"train": ["train", "--data", str(data),
                          "--config", str(workspace["config"]), "--out", str(out)],
                "eval": ["eval", "--model", str(workspace["model"]),
                         "--data", str(data), "--report", str(out)],
                "export-attn": ["export-attn", "--model", str(workspace["model"]),
                                "--image", str(image), "--out", str(out)]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "size 16" in err
        assert not out.exists()


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("extra", [["--phi", "0.5"], ["--folds", "2"]])
    def test_train_takes_phi_and_folds_from_the_config_only(self, workspace, tmp_path,
                                                            capsys, extra):
        assert main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "m.ckpt"), *extra]) == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "1e-4"])
    def test_gradcheck_tolerance_is_not_settable(self, capsys, monkeypatch, tol):
        def run_battery(**kwargs):
            raise AssertionError("the battery must not run")

        monkeypatch.setattr(jointnet.cli, "run_battery", run_battery)
        assert main(["gradcheck", "--tol", tol]) == 1
        assert f"unrecognized arguments: --tol {tol}" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["eval", "--model", "m.ckpt"]) == 1

    @pytest.mark.parametrize("command", ["synth", "gradcheck"])
    def test_negative_seed_exits_1(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "ds")] if command == "synth" else []
        assert main([command, *out, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be a non-negative integer, got -1\n")

    def test_plain_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        """Only ConfigError means exit 1; a plain ValueError is a fault of
        the program and propagates."""
        def faulty(args):
            raise ValueError("internal fault")

        monkeypatch.setattr(jointnet.cli, "_cmd_synth", faulty)
        with pytest.raises(ValueError, match="internal fault"):
            main(["synth", "--out", str(tmp_path / "ds")])

    def test_parser_is_built_once_and_handlers_are_read_per_call(
            self, tmp_path, monkeypatch):
        """One parser serves every call, and the handler a subcommand runs
        is the one the module holds when ``main`` is called."""
        parser = jointnet.cli._build_parser()
        for tag in ("a", "b"):
            ran = []
            monkeypatch.setattr(jointnet.cli, "_cmd_synth",
                                lambda args: ran.append(args.out) or 0)
            assert main(["synth", "--out", str(tmp_path / tag)]) == 0
            assert ran == [str(tmp_path / tag)]
        assert jointnet.cli._build_parser() is parser

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.strip()}
        for name in ("synth", "train", "eval", "compare", "gradcheck",
                     "export-attn"):
            assert name in listed


README = Path(__file__).resolve().parent.parent / "README.md"
# each indented `jointnet ...` line of README, its backslash continuations joined
README_COMMANDS = re.findall(r"^    (jointnet .*)$",
                             re.sub(r"\\\n\s*", " ", README.read_text(encoding="utf-8")),
                             flags=re.MULTILINE)


class TestReadmeCommands:
    def test_every_subcommand_is_shown(self):
        assert {command.split()[1] for command in README_COMMANDS} == {
            "synth", "train", "eval", "compare", "export-attn", "gradcheck"}

    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_command_parses(self, command, capsys):
        try:
            jointnet.cli._build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}\n"
                        f"{capsys.readouterr().err}")


class TestLoadedCheckpoint:
    def test_arch_round_trips_through_cli(self, workspace):
        ckpt = load_checkpoint(workspace["model"])
        assert ckpt.arch.n_stages == 1
        assert ckpt.arch.input_size == 16
        assert ckpt.epoch >= 1
