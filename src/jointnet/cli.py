"""Command-line interface.

Subcommands: synth, train, eval, compare, gradcheck, export-attn. Exit
codes: 0 success, 1 usage or configuration error, 2 unreadable or invalid
data, 3 numeric failure. All generated files (logs, reports, checkpoints)
are byte-identical across runs with the same arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint, to_network
from .config import parse_config
from .data import load_directory, load_image, synth_generate, write_dataset
from .errors import ConfigError, DataError, NumericError
from .evaluation import (compare_report, evaluate, export_attention,
                         render_metrics_kv)
from .gradcheck import TOLERANCE, run_battery
from .training import kfold_train

LOG_COLUMNS = "epoch,train_loss,train_ls,train_lu,val_loss,val_accuracy,lr,phi"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointnet",
        description="Joint classification/reconstruction CNN on netpbm images.")
    parser.add_argument("--version", action="version", version=f"jointnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--shift", choices=("none", "wild"), default="none")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="k-fold training on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="training log output path (omit to skip)")
    p.add_argument("--mode", choices=("joint", "backbone"),
                   help="override the config's mode")
    p.add_argument("--phi", type=float, help="override the config's phi")
    p.add_argument("--folds", type=int, help="override the config's fold count")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="metrics report output path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", help="evaluate two checkpoints side by side")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--name-a", help="display name for model A (default: file stem)")
    p.add_argument("--name-b", help="display name for model B (default: file stem)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--tol", dest="tolerance", type=float, default=TOLERANCE)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("export-attn", help="write per-stage attention maps as PGM")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True, help="input netpbm image")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_attn)
    return parser


def _cmd_synth(args) -> int:
    dataset = synth_generate(args.per_class, args.size, args.shift, args.seed)
    paths = write_dataset(dataset, args.out)
    print(f"wrote {len(paths)} images ({args.per_class} per class, "
          f"size {args.size}, shift {args.shift}) to {args.out}")
    return 0


def _load_for(arch, data_dir: str):
    dataset = load_directory(data_dir, arch.input_size, arch.input_channels)
    if len(dataset.class_names) != arch.n_classes:
        raise ConfigError(
            f"{data_dir} has {len(dataset.class_names)} classes "
            f"({', '.join(dataset.class_names)}) but the model expects "
            f"{arch.n_classes}")
    return dataset


def _cmd_train(args) -> int:
    run = parse_config(args.config)
    overrides: list[tuple[str, object]] = []
    if args.mode is not None:
        run = replace(run, mode=args.mode)
        overrides.append(("mode", args.mode))
    if args.phi is not None:
        run = replace(run, train=replace(run.train, phi=args.phi))
        overrides.append(("phi", repr(args.phi)))
    if args.folds is not None:
        run = replace(run, train=replace(run.train, folds=args.folds))
        overrides.append(("folds", args.folds))
    dataset = _load_for(run.arch, args.data)

    result = kfold_train(dataset, run.arch, run.train, mode=run.mode)
    save_checkpoint(result.best_checkpoint, args.out)

    best = result.folds[result.best_fold]
    if args.log is not None:
        lines = ["# jointnet train log", f"# data = {args.data}"]
        lines += [f"# {key} = {value}" for key, value in run.pairs()]
        lines += [f"# override.{key} = {value}" for key, value in overrides]
        lines.append(f"# columns: {LOG_COLUMNS}")
        for summary in result.folds:
            lines.append(f"# fold {summary.fold}")
            for e in summary.log:
                lines.append(",".join([
                    str(e.epoch), repr(e.train_loss), repr(e.train_ls),
                    repr(e.train_lu), repr(e.val_loss), repr(e.val_accuracy),
                    repr(e.lr), repr(e.phi)]))
        lines.append(f"# best fold {best.fold} epoch {best.checkpoint.epoch} "
                     f"val_accuracy {repr(best.val_accuracy)} "
                     f"val_loss {repr(best.val_loss)}")
        Path(args.log).write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"best fold {best.fold}: val_accuracy {best.val_accuracy:.4f}, "
          f"val_loss {best.val_loss:.6f} (epoch {best.checkpoint.epoch}); "
          f"checkpoint -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.model)
    net = to_network(ckpt)
    dataset = _load_for(ckpt.arch, args.data)
    cm, report = evaluate(net, dataset)
    text = render_metrics_kv(cm, report, dataset.class_names,
                             extra=[("model", args.model), ("data", args.data)])
    Path(args.report).write_text(text, encoding="utf-8")
    print(f"accuracy {report.accuracy:.4f} sensitivity {report.sensitivity:.4f} "
          f"specificity {report.specificity:.4f} on {cm.total} samples; "
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
    _, report_a = evaluate(to_network(ckpt_a), _load_for(ckpt_a.arch, args.data))
    _, report_b = evaluate(to_network(ckpt_b), _load_for(ckpt_b.arch, args.data))
    table = compare_report(name_a, report_a, name_b, report_b)
    Path(args.report).write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_battery(seed=args.seed, tolerance=args.tolerance)
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
              f"tolerance {args.tolerance:.1e})")
        return 3
    print(f"gradcheck PASS (max relative error {worst:.3e}, "
          f"tolerance {args.tolerance:.1e})")
    return 0


def _cmd_export_attn(args) -> int:
    ckpt = load_checkpoint(args.model)
    net = to_network(ckpt)
    image = load_image(args.image, ckpt.arch.input_size, ckpt.arch.input_channels)
    paths = export_attention(net, image, args.out)
    for path in paths:
        print(str(path))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
