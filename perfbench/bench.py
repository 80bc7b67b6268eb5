"""Measurement passes of one workload: end-to-end (untraced) and per-layer
(traced). Imported only after ``run.py`` has set the BLAS threads."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import inventory
import layers
from tracing import Tracer
from workloads import INPUT_SIZE, run_cli

SETUP_REPEATS = 5
SETUP_SECONDS = 2.0  # a set-up of a few milliseconds is repeated until this adds up
MIN_CALLS = 3


def environment(threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no machine-readable config
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads}


def timed_calls(jn, wl, ledger, seconds: float, call=run_cli,
                min_calls: int = MIN_CALLS) -> list[float]:
    """Call the CLI back to back, at least ``min_calls`` times and for about
    ``seconds``; returns each call's wall time. Each call's output is
    checked after its clock stops."""
    times: list[float] = []
    started = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - started + times[-1] <= seconds:
        t0 = time.perf_counter()
        code = call(jn.cli.main, wl.argv())
        times.append(time.perf_counter() - t0)
        try:
            ok = wl.check(code)
        except (OSError, ValueError, KeyError, jn.ConfigError) as e:
            print(f"perfbench: unreadable output: {e!r}", file=sys.stderr)
            ok = False
        ledger.count(ok, f"{wl.name} call {len(times)} (exit {code})")
    return times


def setup(wl, work: Path, repeats: int, seconds: float = 0.0) -> list[float]:
    """Set the workload up from the same seed, at least ``repeats`` times and
    for at least ``seconds``, and keep the last set-up for the run. Returns
    each set-up's wall time."""
    times: list[float] = []
    while len(times) < repeats or sum(times) < seconds:
        i = len(times)
        t0 = time.perf_counter()
        wl.setup(work / f"setup{i}")
        times.append(time.perf_counter() - t0)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    wl.prepare()
    return times


def end_to_end(jn, wl, ledger, work: Path, seconds: float) -> dict:
    setups = setup(wl, work, SETUP_REPEATS, SETUP_SECONDS)
    timed_calls(jn, wl, ledger, 0, min_calls=1)  # warm-up
    times = timed_calls(jn, wl, ledger, seconds)
    median = statistics.median(times)
    print(f"perfbench: {wl.name}: {len(times)} timed calls, median {median:.4f} s, "
          f"quartiles {[round(q, 4) for q in statistics.quantiles(times, n=4)]}; "
          f"set-up median of {len(setups)}: {statistics.median(setups):.4f} s",
          file=sys.stderr)
    return {"samples_per_s": (wl.samples_per_call / median, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}


def traced(jn, wl, ledger, work: Path, seconds: float, seed: int, env: dict,
           spans_path: Path) -> dict:
    """Op inventory, then untraced and traced calls in alternation for
    ``seconds``; the difference of their medians is the tracing overhead."""
    setup(wl, work, 1)
    sample = jn.load_directory(wl.train_data(), INPUT_SIZE).samples[0]
    rows = inventory.measure(jn, sample.image, sample.label, seed)
    timed_calls(jn, wl, ledger, 0, min_calls=1)  # warm-up
    tracer = Tracer(jn)

    def traced_call(main, argv):
        tracer.install()
        try:
            return tracer.call(run_cli, main, argv)
        finally:
            tracer.restore()

    untraced: list[float] = []
    with_trace: list[float] = []
    started = time.perf_counter()
    while len(with_trace) < MIN_CALLS or time.perf_counter() - started < seconds:
        untraced += timed_calls(jn, wl, ledger, 0, min_calls=1)
        with_trace += timed_calls(jn, wl, ledger, 0, call=traced_call, min_calls=1)
    calls = len(with_trace)
    print(f"perfbench: {wl.name}: {calls} traced calls, {len(tracer.spans)} spans "
          f"-> {spans_path}", file=sys.stderr)
    tracer.write_jsonl(spans_path, {"env": env, "workload": wl.name, "seed": seed,
                                    "calls": calls})
    return layers.derive(tracer.spans, tracer.tape_nodes, rows,
                         calls * wl.samples_per_call, calls * wl.val_samples_per_call,
                         wl.checkpoint_path().stat().st_size,
                         statistics.median(untraced), statistics.median(with_trace))
