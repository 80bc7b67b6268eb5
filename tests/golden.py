"""Golden artifacts: the files a fixed set of ``jointnet`` commands writes,
with the sha256 of each, stamped with the numeric environment that made
them.

"Same behaviour" means byte-identical artifacts, so ``test_golden.py``
rebuilds these and compares them with ``golden_manifest.json``. OpenBLAS
picks its GEMM kernels by CPU at run time, and kernels may round a sum
differently, so the hashes are compared only where numpy, OpenBLAS and
the runtime core all match the manifest's fingerprint.

To rewrite the manifest, run from the repository root::

    PYTHONPATH=src python tests/golden.py

A change that rewrites it changes numerics: it says why in ``CHANGES.md``
and reports gates 6 and 7 before and after.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("golden_manifest.json")

# The benchmark's recipe (32 px, 2 stages, 3 channels, base width 8, batch 4,
# phi 0.5) on 8 images per class, 4 folds x 2 epochs, seed 1.
RECIPE = """\
n_stages = 2
input_channels = 3
input_size = 32
base_channels = 8
n_classes = 3
batch_size = 4
phi = 0.5
epochs = 2
folds = 4
seed = 1
"""

WILD_IMAGE = "wild/DME/dme_0000.pgm"

# Every path is relative to the working directory, because the training log
# and both reports record the --data and --model arguments.
COMMANDS = (
    ("synth", "--out", "train", "--per-class", "8", "--size", "32", "--seed", "1"),
    ("synth", "--out", "wild", "--per-class", "5", "--size", "256",
     "--shift", "wild", "--seed", "7"),
    ("train", "--data", "train", "--config", "run.cfg", "--out", "joint.ckpt",
     "--log", "joint.log", "--mode", "joint"),
    ("train", "--data", "train", "--config", "run.cfg", "--out", "backbone.ckpt",
     "--log", "backbone.log", "--mode", "backbone"),
    ("eval", "--model", "joint.ckpt", "--data", "wild", "--report", "eval.txt"),
    ("compare", "--model-a", "joint.ckpt", "--model-b", "backbone.ckpt",
     "--data", "wild", "--report", "compare.txt"),
    ("export-attn", "--model", "joint.ckpt", "--image", WILD_IMAGE, "--out", "attn"),
)


def _openblas_core() -> str:
    """The kernel set OpenBLAS chose for this CPU, from the library numpy
    bundles; ``unknown`` where numpy was built without it."""
    try:
        from numpy._core import _multiarray_umath
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, AttributeError, OSError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode("ascii")


def fingerprint() -> dict[str, str]:
    """The numeric environment the artifact bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}",
            "openblas_core": _openblas_core()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build(workdir: Path) -> dict[str, str]:
    """Run ``COMMANDS`` in-process from ``workdir`` and return the sha256 of
    every file they write, by relative path, and of the bytes ``load_image``
    returns for one wild image at 32 px with 3 and with 1 channels."""
    from jointnet.cli import main
    from jointnet.data import load_image

    previous = os.getcwd()
    os.chdir(workdir)
    try:
        Path("run.cfg").write_text(RECIPE, encoding="utf-8")
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(argv))
            if code != 0:
                raise RuntimeError(f"jointnet {' '.join(argv)} exited {code}")
        hashes = {path.as_posix(): _sha256(path.read_bytes())
                  for path in sorted(Path(".").rglob("*"))
                  if path.is_file() and path.name != "run.cfg"}
        for channels in (3, 1):
            image = load_image(WILD_IMAGE, 32, channels)
            hashes[f"load_image({WILD_IMAGE}, 32, {channels})"] = _sha256(
                image.data.tobytes())
    finally:
        os.chdir(previous)
    return hashes


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        artifacts = build(Path(workdir))
    manifest = {"fingerprint": fingerprint(), "artifacts": artifacts}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(artifacts)} hashes to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
