"""Command-line interface.

Subcommands: synth, train, eval, compare, gradcheck, export-attn. Exit
codes: 0 success, 1 usage or configuration error (``ConfigError``), 2
unreadable or invalid data (``DataError``, ``OSError``), 3 numeric failure
(``NumericError``). Any other exception, a plain ``ValueError`` included,
is an internal fault and propagates. All generated files (logs, reports,
checkpoints) are byte-identical across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint, to_network
from .config import parse_config
from .data import (CLASS_NAMES, SHIFTS, list_directory, load_directory, load_image,
                   synth_samples, write_samples)
from .errors import ConfigError, DataError, NumericError
from .evaluation import (compare_report, export_attention, metrics, predict_chunk,
                         render_metrics_kv, tally)
from .fileio import write_atomic
from .gradcheck import TOLERANCE, run_battery
from .training import MODES, TRAIN_DTYPE, EpochLog, kfold_train


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. It names each subcommand but
    binds no handler: ``main`` looks the handler up when it runs."""
    parser = argparse.ArgumentParser(
        prog="jointnet",
        description="Joint classification/reconstruction CNN on netpbm images.")
    parser.add_argument("--version", action="version", version=f"jointnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--shift", choices=SHIFTS, default=SHIFTS[0])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="k-fold training on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="training log output path (omit to skip)")
    p.add_argument("--mode", choices=MODES,
                   help="override the config's mode")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="metrics report output path")

    p = sub.add_parser("compare", help="evaluate two checkpoints side by side")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--name-a", help="display name for model A (default: file stem)")
    p.add_argument("--name-b", help="display name for model B (default: file stem)")

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export-attn", help="write per-stage attention maps as PGM")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True, help="input netpbm image")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_synth(args) -> int:
    # only channel 0 is written, and the channel count does not touch the
    # generator's stream, so one plane per image gives the same files; each
    # image is written as soon as it is drawn
    samples = synth_samples(args.per_class, args.size, args.shift, args.seed, channels=1)
    paths = write_samples(samples, list(CLASS_NAMES), args.out)
    print(f"wrote {len(paths)} images ({args.per_class} per class, "
          f"size {args.size}, shift {args.shift}) to {args.out}")
    return 0


def _check_classes(arch, data_dir: str, class_names: list[str]) -> None:
    if len(class_names) != arch.n_classes:
        raise ConfigError(
            f"{data_dir} has {len(class_names)} classes "
            f"({', '.join(class_names)}) but the model expects {arch.n_classes}")


def _load_for(arch, data_dir: str):
    """The directory loaded for training: in the dtype ``kfold_train`` trains
    in, so no batch is cast."""
    dataset = load_directory(data_dir, arch.input_size, arch.input_channels, TRAIN_DTYPE)
    _check_classes(arch, data_dir, dataset.class_names)
    return dataset


def _list_for(arch, data_dir: str):
    listing = list_directory(data_dir)
    _check_classes(arch, data_dir, listing.class_names)
    return listing


def _stream(listing, nets):
    """The listed images decoded for ``nets``, which share an input shape,
    in chunks of the smallest ``predict_chunk`` among them and in the nets'
    common dtype: float32 chunks for float32 nets, and float64 ones beside
    a float64 net, which each float32 net casts."""
    arch = nets[0].config
    return listing.batches(arch.input_size, arch.input_channels,
                           min(predict_chunk(net.config, net.dtype) for net in nets),
                           np.result_type(*(net.dtype for net in nets)))


def _cmd_train(args) -> int:
    run = parse_config(args.config)
    if args.mode is not None:
        run = replace(run, train=replace(run.train, mode=args.mode))
    dataset = _load_for(run.arch, args.data)

    result = kfold_train(dataset, run.arch, run.train)
    best = result.folds[result.best_fold]
    save_checkpoint(best.checkpoint, args.out)

    if args.log is not None:
        lines = ["# jointnet train log", f"# data = {args.data}"]
        lines += [f"# {key} = {value}" for key, value in run.pairs()]
        if args.mode is not None:
            lines.append(f"# override.mode = {args.mode}")
        lines.append("# columns: " + ",".join(f.name for f in fields(EpochLog)))
        for f, fold in enumerate(result.folds):
            lines.append(f"# fold {f}")
            for e in fold.log:
                lines.append(",".join(map(repr, astuple(e))))
        lines.append(f"# best fold {result.best_fold} epoch {best.checkpoint.epoch} "
                     f"val_accuracy {repr(best.val_accuracy)} "
                     f"val_loss {repr(best.checkpoint.best_val_loss)}")
        write_atomic(args.log, ("\n".join(lines) + "\n").encode("utf-8"))

    print(f"best fold {result.best_fold}: val_accuracy {best.val_accuracy:.4f}, "
          f"val_loss {best.checkpoint.best_val_loss:.6f} "
          f"(epoch {best.checkpoint.epoch}); "
          f"checkpoint -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    net = to_network(ckpt)
    listing = _list_for(ckpt.arch, args.data)
    (counts,) = tally([net], _stream(listing, [net]), ckpt.arch.n_classes)
    report = metrics(counts)
    text = render_metrics_kv(counts, report, listing.class_names,
                             extra=[("model", args.model), ("data", args.data)])
    write_atomic(args.report, text.encode("utf-8"))
    print(f"accuracy {report.accuracy:.4f} sensitivity {report.sensitivity:.4f} "
          f"specificity {report.specificity:.4f} on {int(counts.sum())} samples; "
          f"report -> {args.report}")
    return 0


def _cmd_compare(args) -> int:
    ckpt_a = load_checkpoint(args.model_a)
    ckpt_b = load_checkpoint(args.model_b)
    if ckpt_a.arch.n_classes != ckpt_b.arch.n_classes:
        raise ConfigError(
            f"models disagree on class count: {ckpt_a.arch.n_classes} vs "
            f"{ckpt_b.arch.n_classes}")
    name_a = args.name_a or Path(args.model_a).stem
    name_b = args.name_b or Path(args.model_b).stem
    listing = _list_for(ckpt_a.arch, args.data)
    nets = [to_network(ckpt_a), to_network(ckpt_b)]
    n_classes = ckpt_a.arch.n_classes
    # the class counts agree, so only the input shape calls for a second decode
    if ((ckpt_b.arch.input_size, ckpt_b.arch.input_channels)
            == (ckpt_a.arch.input_size, ckpt_a.arch.input_channels)):
        counts = tally(nets, _stream(listing, nets), n_classes)
    else:
        counts = [tally([net], _stream(listing, [net]), n_classes)[0] for net in nets]
    report_a, report_b = map(metrics, counts)
    table = compare_report(name_a, report_a, name_b, report_b)
    write_atomic(args.report, table.encode("utf-8"))
    print(table, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_battery(seed=args.seed)
    worst = 0.0
    failed = False
    for r in results:
        status = "ok" if r.passed else f"FAIL at {r.worst_param}[{r.worst_index}]"
        print(f"{r.name}: max_rel_err={r.max_relative_error:.3e} "
              f"({r.checked} entries) {status}")
        worst = max(worst, r.max_relative_error)
        failed = failed or not r.passed
    if failed:
        print(f"gradcheck FAIL (max relative error {worst:.3e}, "
              f"tolerance {TOLERANCE:.1e})")
        return 3
    print(f"gradcheck PASS (max relative error {worst:.3e}, "
          f"tolerance {TOLERANCE:.1e})")
    return 0


def _cmd_export_attn(args) -> int:
    ckpt = load_checkpoint(args.model)
    net = to_network(ckpt)
    image = load_image(args.image, ckpt.arch.input_size, ckpt.arch.input_channels)
    paths = export_attention(net, image, args.out)
    for path in paths:
        print(str(path))
    return 0


# glibc's mallopt parameters, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# The largest array a float32 recipe step allocates is about 0.3 MB (dec2's
# gradient grid, 16 x 4,694 values; 0.6 MB in float64) and a step frees a
# few MB, so heap allocation up to 4 MiB and trimming only past
# 64 MiB of free heap keep those pages mapped from one step to the next.
# With glibc's default (dynamic) thresholds, the heap is trimmed and
# mapped again between steps, and every step faults in fresh zero pages.
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 64 << 20


@functools.cache
def _hold_heap() -> None:
    """Set the two malloc thresholds above, once per process; without
    glibc, do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _hold_heap()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    # read at call time, so the handlers the module holds now run
    handlers = {"synth": _cmd_synth, "train": _cmd_train, "eval": _cmd_eval,
                "compare": _cmd_compare, "gradcheck": _cmd_gradcheck,
                "export-attn": _cmd_export_attn}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
