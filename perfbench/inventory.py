"""Op inventory: forward and backward time of every tape op at recipe shapes.

The op list and the input shapes come from ``tape.nodes`` after one
``forward_joint`` plus the blended loss at the frozen recipe, so the table
follows the network as it changes. Each node's primitive is called again on
the recorded inputs (no tape active), then its recorded backward closure is
called at the same shapes.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from tracing import LOSS_OPS, signature
from workloads import ARCH, PHI

ROUNDS = 9
BATCH_NS = 2_000_000  # each timed batch of calls lasts at least this long


@dataclass
class Row:
    op: str
    sig: tuple
    out_size: int
    forward: object
    backward: object
    fwd_ns: float = 0.0
    bwd_ns: float = 0.0


def _forward_call(jn, node):
    """Re-invoke the node's primitive on its recorded inputs."""
    inputs = node.inputs
    if node.op == "scale":
        # the factor is not stored on the node; recover it from the values
        x, y = inputs[0].data.ravel(), node.output.data.ravel()
        nonzero = np.flatnonzero(x)
        factor = float(y[nonzero[0]] / x[nonzero[0]]) if nonzero.size else 0.0
        return lambda: jn.tensor.scale(inputs[0], factor)
    module = jn.training if node.op in LOSS_OPS else jn.tensor
    fn = getattr(module, node.op)
    return lambda: fn(*inputs)


def _per_call_ns(fn, calls: int) -> float:
    start = time.perf_counter_ns()
    for _ in range(calls):
        fn()
    return (time.perf_counter_ns() - start) / calls


def _calibrate(fn) -> int:
    calls = 1
    while _per_call_ns(fn, calls) * calls < BATCH_NS and calls < 1 << 16:
        calls *= 2
    return calls


def _record_rows(jn, image, label: int, seed: int) -> list[Row]:
    net = jn.build(jn.ArchConfig(**ARCH), seed=seed)
    onehot = jn.Tensor(np.eye(net.config.n_classes)[label])
    tape = jn.Tape()
    with tape:
        for p in net.params.values():
            tape.watch(p)
        out = jn.forward_joint(net, image)
        jn.combined_loss(jn.cross_entropy(onehot, out.class_probs),
                         jn.mse(image, out.reconstruction), PHI)
    rows = []
    for node in tape.nodes:
        forward = _forward_call(jn, node)
        if forward().shape != node.output.shape:
            raise RuntimeError(f"inventory: re-invoked {node.op} changed its output shape")
        grad = np.ones(node.output.shape)
        rows.append(Row(node.op, signature(node.inputs), node.output.size, forward,
                        lambda node=node, grad=grad: node.backward(grad)))
    return rows


def measure(jn, image, label: int, seed: int) -> list[Row]:
    """Median per-call ns over ROUNDS interleaved rounds, for every node."""
    rows = _record_rows(jn, image, label, seed)
    plan = [(row, _calibrate(row.forward), _calibrate(row.backward)) for row in rows]
    fwd = [[] for _ in rows]
    bwd = [[] for _ in rows]
    for _ in range(ROUNDS):
        for i, (row, fwd_calls, bwd_calls) in enumerate(plan):
            fwd[i].append(_per_call_ns(row.forward, fwd_calls))
            bwd[i].append(_per_call_ns(row.backward, bwd_calls))
    for i, row in enumerate(rows):
        row.fwd_ns = statistics.median(fwd[i])
        row.bwd_ns = statistics.median(bwd[i])
    return rows


def conv_work(rows: list[Row]) -> tuple[float, float]:
    """FLOPs and bytes of the conv2d rows, forward plus backward, from the
    shapes alone. Backward computes the kernel and the input gradient, each
    as many multiply-adds as forward. Bytes count every float64 array an
    op reads or writes once."""
    flops = moved = 0
    for row in rows:
        if row.op != "conv2d":
            continue
        x_shape, k_shape, b_shape = row.sig
        x, k, b, out = (int(np.prod(x_shape)), int(np.prod(k_shape)),
                        int(np.prod(b_shape)), row.out_size)
        flops += 3 * 2 * out * (k // k_shape[0])
        moved += 8 * ((x + k + b + out) + (out + x + k + x + k + b))
    return float(flops), float(moved)
