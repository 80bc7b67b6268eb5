"""jointnet benchmark: train and eval throughput through the real CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-joint --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in one process as a closed loop with a single client:
each ``jointnet.cli.main`` call starts only after the previous one returned.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced pass and writes its spans as JSONL
under ``.perfbench/``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs each workload in a child process of its own, one after another,
and prints every metric as a table. ``perfbench/README.md`` defines the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-joint", "train-backbone", "eval-wild")
# A second BLAS thread is no faster at the recipe's matrix sizes, and when
# another process is busy on a 2-vCPU machine it made a train call 3x slower.
BLAS_THREADS = 1


def pin_blas_threads() -> int:
    """Run BLAS single-threaded, below any ``nproc``. Must run before numpy is
    imported; returns the thread count."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def import_jointnet():
    """Import jointnet from this checkout's ``src/`` and from nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import jointnet
        import jointnet.cli  # noqa: F401 - the package does not import it
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import jointnet from {src}: {e}")
    if not Path(jointnet.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: jointnet came from {jointnet.__file__}, not {src}")
    return jointnet


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    threads = pin_blas_threads()
    jn = import_jointnet()
    import bench
    import workloads

    env = bench.environment(threads)
    print(f"perfbench: env {json.dumps(env)}", file=sys.stderr)
    ledger = workloads.Ledger()
    wl = workloads.make(workload, jn, seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        if trace:
            measured = bench.traced(jn, wl, ledger, work, seconds, seed, env,
                                    WORK / f"spans-{workload}.jsonl")
        else:
            measured = bench.end_to_end(jn, wl, ledger, work, seconds)
    except workloads.SetupError as e:
        raise SystemExit(f"perfbench: {workload}: set-up failed: {e}")
    finally:
        shutil.rmtree(work)

    declared = declared_metrics(trace)
    got = {name: unit for name, (_, unit) in measured.items()}
    if got != declared:
        raise SystemExit(f"perfbench: measured metrics {got} do not match "
                         f"BENCHMARK.json {declared}")
    print(f"perfbench: {workload}: error_rate {ledger.failed / ledger.attempted} "
          f"({ledger.failed} of {ledger.attempted} operations failed)", file=sys.stderr)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": measured[name][0], "unit": unit}
                        for name, unit in declared.items()}}


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a fresh child process, so that its peak memory is
    its own; the children run one at a time."""
    results = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        if child.returncode != 0:
            print(f"perfbench: {workload} exited {child.returncode}", file=sys.stderr)
            return child.returncode
        results[workload] = json.loads(child.stdout.strip().splitlines()[-1])
    for workload, result in results.items():
        print(f"{workload}: correct {result['correct']}, error_rate "
              f"{result['failed'] / result['attempted']} "
              f"({result['failed']}/{result['attempted']})")
        for name, metric in result["metrics"].items():
            print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
