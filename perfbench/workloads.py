"""The benchmark's workloads: set-up, one CLI call, and the check of its output.

Every workload drives ``jointnet.cli.main`` in-process, exactly as a user's
``jointnet ...`` command line would, at the frozen recipe: 32 px input,
2 stages, 3 channels, base width 8, batch 4, phi 0.5.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

# The frozen recipe. It is spelled out in every config file rather than left
# to the defaults, so a change of default does not change what is measured.
ARCH = {"n_stages": 2, "input_channels": 3, "input_size": 32,
        "base_channels": 8, "n_classes": 3}
PHI = 0.5
RECIPE = "".join(f"{key} = {value}\n"
                 for key, value in {**ARCH, "batch_size": 4, "phi": PHI}.items())
INPUT_SIZE = ARCH["input_size"]
CHANNELS = ARCH["input_channels"]
N_CLASSES = ARCH["n_classes"]

TRAIN_PER_CLASS = 8
TRAIN_FOLDS = 4  # 3:1 train/val split, the ratio of the wild-robustness gate
TRAIN_EPOCHS = 2
assert TRAIN_PER_CLASS % TRAIN_FOLDS == 0, "folds must split every class evenly"

# The eval checkpoint only has to exist; its accuracy is not measured.
CHECKPOINT_FOLDS = 2
CHECKPOINT_EPOCHS = 1

WILD_SIZE = 256
WILD_CHUNKS = 50
WILD_PER_CLASS_PER_CHUNK = 1


class SetupError(Exception):
    """Set-up could not produce the workload's inputs; nothing can be measured."""


class Ledger:
    """Counts the workload's CLI calls attempted and failed; a failure is
    never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def run_cli(cli_main, argv: list[str]) -> int:
    """One ``jointnet`` command in-process; its stdout is discarded.

    An exception the CLI does not map to an exit code is reported and
    returned as exit code 99, so the run goes on and counts it as failed.
    """
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(argv)
    except Exception:  # noqa: BLE001 - a crash is a counted failure, not an abort
        traceback.print_exc(file=sys.stderr)
        return 99


def _setup_cli(jn, argv: list[str]) -> None:
    code = run_cli(jn.cli.main, argv)
    if code != 0:
        raise SetupError(f"jointnet {' '.join(argv)} exited {code}")


def _synth(jn, out: Path, per_class: int, size: int, seed: int,
           shift: str = "none") -> None:
    _setup_cli(jn, ["synth", "--out", str(out), "--per-class", str(per_class),
                    "--size", str(size), "--shift", shift, "--seed", str(seed)])


class TrainWorkload:
    """``jointnet train`` with k-fold on a clean 32 px PGM set."""

    def __init__(self, jn, seed: int, mode: str):
        self.jn = jn
        self.seed = seed
        self.mode = mode
        self.name = f"train-{mode}"
        self.dir: Path | None = None
        self.expected: tuple[bytes, bytes] | None = None
        n = N_CLASSES * TRAIN_PER_CLASS
        self.val_size = n // TRAIN_FOLDS
        self.train_size = n - self.val_size
        self.samples_per_call = TRAIN_FOLDS * TRAIN_EPOCHS * self.train_size
        self.val_samples_per_call = TRAIN_FOLDS * TRAIN_EPOCHS * self.val_size

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        _synth(self.jn, dest / "data", TRAIN_PER_CLASS, INPUT_SIZE, self.seed)
        (dest / "run.cfg").write_text(
            RECIPE + f"epochs = {TRAIN_EPOCHS}\nfolds = {TRAIN_FOLDS}\n"
            f"seed = {self.seed}\n", encoding="utf-8")
        self.dir = dest
        self.expected = None

    def prepare(self) -> None:
        """Nothing to compute before the calls: the first call is the reference."""

    def train_data(self) -> Path:
        return self.dir / "data"

    def argv(self) -> list[str]:
        d = self.dir
        return ["train", "--data", str(d / "data"), "--config", str(d / "run.cfg"),
                "--out", str(d / "model.ckpt"), "--log", str(d / "train.log"),
                "--mode", self.mode]

    def checkpoint_path(self) -> Path:
        return self.dir / "model.ckpt"

    def check(self, code: int) -> bool:
        """Exit 0, and the log and checkpoint are byte-identical to the
        first call's; the first log has one line per fold and epoch."""
        if code != 0:
            return False
        got = ((self.dir / "model.ckpt").read_bytes(),
               (self.dir / "train.log").read_bytes())
        if self.expected is None:
            rows = [line for line in got[1].decode("utf-8").splitlines()
                    if line and not line.startswith("#")]
            if len(rows) != TRAIN_FOLDS * TRAIN_EPOCHS:
                return False
            self.expected = got
        return got == self.expected


class EvalWorkload:
    """``jointnet eval`` of a trained checkpoint on a wild 256 px PGM set,
    which the CLI resizes to 32 px on load."""

    name = "eval-wild"

    def __init__(self, jn, seed: int):
        self.jn = jn
        self.seed = seed
        self.dir: Path | None = None
        self.expected: bytes | None = None
        self.reference_accuracy = 0.0
        self.samples_per_call = N_CLASSES * WILD_CHUNKS * WILD_PER_CLASS_PER_CHUNK
        self.val_samples_per_call = 0

    def setup(self, dest: Path) -> None:
        dest.mkdir(parents=True)
        wild = dest / "wild"
        # Written in chunks so that synthesizing 256 px float images does not
        # set the process's peak memory; chunk seeds derive from the seed.
        chunk_seeds = np.random.SeedSequence([self.seed, 1]).generate_state(WILD_CHUNKS)
        for k, chunk_seed in enumerate(chunk_seeds):
            chunk = dest / f"chunk{k}"
            _synth(self.jn, chunk, WILD_PER_CLASS_PER_CHUNK, WILD_SIZE,
                   int(chunk_seed), shift="wild")
            for class_dir in sorted(p for p in chunk.iterdir() if p.is_dir()):
                (wild / class_dir.name).mkdir(parents=True, exist_ok=True)
                for f in class_dir.iterdir():
                    f.rename(wild / class_dir.name / f"c{k:02d}_{f.name}")
            shutil.rmtree(chunk)

        _synth(self.jn, dest / "train", TRAIN_PER_CLASS, INPUT_SIZE, self.seed)
        (dest / "run.cfg").write_text(
            RECIPE + f"epochs = {CHECKPOINT_EPOCHS}\nfolds = {CHECKPOINT_FOLDS}\n"
            f"seed = {self.seed}\n", encoding="utf-8")
        _setup_cli(self.jn, ["train", "--data", str(dest / "train"),
                             "--config", str(dest / "run.cfg"),
                             "--out", str(dest / "model.ckpt")])
        self.dir = dest
        self.expected = None

    def prepare(self) -> None:
        """In-memory ``evaluate`` of the checkpoint on the loaded images: the
        reference every eval report is checked against."""
        jn = self.jn
        net = jn.to_network(jn.load_checkpoint(self.dir / "model.ckpt"))
        dataset = jn.load_directory(self.dir / "wild", INPUT_SIZE, CHANNELS)
        if len(dataset) != self.samples_per_call:
            raise SetupError(f"wild set has {len(dataset)} images, "
                             f"expected {self.samples_per_call}")
        self.reference_accuracy = jn.evaluate(net, dataset)[1].accuracy

    def train_data(self) -> Path:
        return self.dir / "train"

    def argv(self) -> list[str]:
        d = self.dir
        return ["eval", "--model", str(d / "model.ckpt"), "--data", str(d / "wild"),
                "--report", str(d / "report.txt")]

    def checkpoint_path(self) -> Path:
        return self.dir / "model.ckpt"

    def check(self, code: int) -> bool:
        """Exit 0, the report's accuracy and sample count match the in-memory
        reference, and the report is byte-identical to the first call's."""
        if code != 0:
            return False
        text = (self.dir / "report.txt").read_bytes()
        report = self.jn.kvio.parse_kv(text.decode("utf-8"), source="report")
        if (float(report["accuracy"]) != self.reference_accuracy
                or int(report["samples"]) != self.samples_per_call):
            return False
        if self.expected is None:
            self.expected = text
        return text == self.expected


NAMES = ("train-joint", "train-backbone", "eval-wild")


def make(name: str, jn, seed: int):
    if name == "eval-wild":
        return EvalWorkload(jn, seed)
    return TrainWorkload(jn, seed, name.removeprefix("train-"))
