"""End-to-end command-line workflows through main(argv)."""

import numpy as np
import pytest

import jointnet.cli
from jointnet import load_checkpoint, read_netpbm
from jointnet.cli import main
from jointnet.gradcheck import GradcheckResult

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
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(workspace["config"]),
                     "--out", str(tmp_path / "m.ckpt"),
                     "--log", str(tmp_path / "l.txt"), "--phi", "1.5"])
        assert code == 1
        assert "[0, 1]" in capsys.readouterr().err

    def test_unknown_config_key_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("learning_rate = 0.1\n")
        code = main(["train", "--data", str(workspace["data"]),
                     "--config", str(bad), "--out", str(tmp_path / "m"),
                     "--log", str(tmp_path / "l")])
        assert code == 1
        assert "unknown key 'learning_rate'" in capsys.readouterr().err

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

    def test_non_utf8_checkpoint_header_exits_2(self, workspace, tmp_path, capsys):
        blob = bytearray(workspace["model"].read_bytes())
        blob[9] = 0xFF  # first byte of the key = value header
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--model", str(bad),
                     "--data", str(workspace["data"]),
                     "--report", str(tmp_path / "r.txt")]) == 2
        assert "header is not UTF-8 at byte 9" in capsys.readouterr().err

    def test_oversized_ascii_header_exits_2(self, workspace, tmp_path, capsys):
        amd = tmp_path / "data" / "AMD"
        amd.mkdir(parents=True)
        (amd / "huge.pgm").write_bytes(b"P2 2000000000 2000000000 255\n0\n")
        assert main(["eval", "--model", str(workspace["model"]),
                     "--data", str(tmp_path / "data"),
                     "--report", str(tmp_path / "r.txt")]) == 2
        assert "huge.pgm" in capsys.readouterr().err


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
        assert main(["gradcheck", "--tol", "1e-4"]) == 0
        assert calls == [{"seed": 0, "tolerance": 1e-4}]
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


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["eval", "--model", "m.ckpt"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.strip()}
        for name in ("synth", "train", "eval", "compare", "gradcheck",
                     "export-attn"):
            assert name in listed


class TestLoadedCheckpoint:
    def test_arch_round_trips_through_cli(self, workspace):
        ckpt = load_checkpoint(workspace["model"])
        assert ckpt.arch.n_stages == 1
        assert ckpt.arch.input_size == 16
        assert ckpt.epoch >= 1
