"""Traced peak memory of a call, for the memory tests."""

import tracemalloc


def traced_peaks(*phases) -> list[int]:
    """Run ``phases`` in order, each given the previous one's result (the
    first gets nothing): once as a warm-up, which fills numpy's lazy caches,
    then under ``tracemalloc``. Returns each phase's traced peak in bytes,
    counted from the start of the trace, so what an earlier phase left
    alive counts in a later phase's peak."""

    def run(record):
        peaks, result = [], ()
        for phase in phases:
            result = (phase(*result),)
            if record:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
        return peaks

    run(False)
    tracemalloc.start()
    try:
        return run(True)
    finally:
        tracemalloc.stop()


def traced_peak(fn) -> int:
    """The traced peak of ``fn()`` in bytes, after one warm-up call."""
    return traced_peaks(fn)[0]
