"""Per-layer metrics of the traced run, derived from its spans and the op
inventory. A layer the workload never enters reads 0."""

from __future__ import annotations

import statistics
from collections import defaultdict

from inventory import conv_work
from tracing import LOSS_OPS, TENSOR_OPS, op_span_name, self_times

FORWARDS = ("network.forward_joint", "network.forward_backbone")
LOSSES = ("training.cross_entropy", "training.mse", "training.combined_loss")
OP_SPANS = frozenset(op_span_name(op) for op in TENSOR_OPS + LOSS_OPS)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def derive(spans: list[tuple], tape_nodes: int, rows, samples: int,
           val_samples: int, checkpoint_bytes: int,
           untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """``samples`` counts training samples (train workloads) or evaluated
    images (eval) over the traced calls; ``untraced_s`` and ``traced_s`` are
    the median call times without and with tracing."""
    out: dict[str, tuple[float, str]] = {}
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    dur = [end - start for _, start, end, *_ in spans]
    own = self_times(spans)

    def total(name: str, times=dur, taped=None) -> int:
        return sum(times[i] for i in by_name[name]
                   if taped is None or spans[i][5] == taped)

    def ms_each(name: str) -> list[float]:
        return [dur[i] / 1e6 for i in by_name[name]]

    # Per-op forward/backward time at recipe shapes, from the inventory.
    inventory: dict[tuple[str, tuple], list[float]] = defaultdict(list)
    for op in TENSOR_OPS + LOSS_OPS:
        name = op_span_name(op)
        fwd = [r.fwd_ns for r in rows if r.op == op]
        bwd = [r.bwd_ns for r in rows if r.op == op]
        out[f"{name}.fwd_ms_per_sample"] = (sum(fwd) / 1e6, "ms")
        out[f"{name}.bwd_ms_per_sample"] = (sum(bwd) / 1e6, "ms")
        out[f"{name}.calls_per_sample"] = (_ratio(len(by_name[name]), samples), "count")
    for r in rows:
        inventory[(op_span_name(r.op), r.sig)].append(r.fwd_ns)
        inventory[(op_span_name(r.op) + ".bwd", r.sig)].append(r.bwd_ns)

    flops, moved = conv_work(rows)
    conv_ns = sum(r.fwd_ns + r.bwd_ns for r in rows if r.op == "conv2d")
    out["tensor.conv2d.mflop_per_sample"] = (flops / 1e6, "MFLOP")
    out["tensor.conv2d.computed_mb_per_sample"] = (moved / 1e6, "MB")
    out["tensor.conv2d.gflops"] = (_ratio(flops, conv_ns), "GFLOP/s")

    # A step is the taped forward, loss and backward of one batch; with no
    # training step (eval), the untaped forward passes stand in for it.
    steps = len(by_name["tensor.backward"])

    def is_step(i: int) -> bool:
        name, taped = spans[i][0], spans[i][5]
        if steps:
            return name == "tensor.backward" or (taped and name in FORWARDS + LOSSES)
        return name in FORWARDS

    step_ns = covered_ns = 0.0
    for i, span in enumerate(spans):
        if is_step(i):
            step_ns += dur[i]
        name = span[0]
        base = name.removesuffix(".bwd")
        if base in OP_SPANS and (is_step(i) or (span[3] >= 0 and is_step(span[3]))):
            per_call = inventory.get((name, span[6]))
            if per_call:
                covered_ns += sum(per_call) / len(per_call)
    out["tensor.backward_ms_per_step"] = (_ratio(total("tensor.backward"), steps) / 1e6, "ms")
    out["tensor.tape_nodes_per_step"] = (_ratio(tape_nodes, steps), "count")
    out["tensor.step_covered_share"] = (_ratio(covered_ns, step_ns), "share")

    train_spans = set(by_name["training.train"])
    val_forwards = [i for name in FORWARDS for i in by_name[name]
                    if not spans[i][5] and spans[i][3] in train_spans]
    taped_forward_ns = sum(total(name, taped=True) for name in FORWARDS)
    out["training.forward_ms_per_sample"] = (_ratio(taped_forward_ns, samples) / 1e6, "ms")
    out["training.val_ms_per_val_sample"] = (
        _ratio(sum(dur[i] for i in val_forwards), val_samples) / 1e6, "ms")
    out["training.val_forwards_per_val_sample"] = (_ratio(len(val_forwards), val_samples), "count")
    out["training.adam_ms_per_step"] = (_ratio(total("training.adam_step"), steps) / 1e6, "ms")
    loss_ns = sum(total(name, taped=True) for name in LOSSES)
    out["training.loss_ms_per_sample"] = (_ratio(loss_ns, samples) / 1e6, "ms")
    out["training.other_share"] = (
        _ratio(total("training.train", own), total("training.train")), "share")

    out["network.forward_joint_ms.p50"] = (_median(ms_each("network.forward_joint")), "ms")
    out["network.forward_backbone_ms.p50"] = (_median(ms_each("network.forward_backbone")), "ms")
    out["evaluation.predict_ms_per_image"] = (
        _ratio(total("evaluation.predict"), samples) / 1e6, "ms")

    reads = by_name["netpbm.read_netpbm"]
    read_ns = total("netpbm.read_netpbm")
    out["data.load_ms_per_image"] = (
        _ratio(total("data.load_directory", own), len(reads)) / 1e6, "ms")
    out["netpbm.read_ms_per_image"] = (_ratio(read_ns, len(reads)) / 1e6, "ms")
    out["netpbm.read_mb_per_s"] = (
        _ratio(sum(spans[i][6] for i in reads) / 1e6, read_ns / 1e9), "MB/s")

    out["checkpoint.save_ms"] = (_median(ms_each("checkpoint.save_checkpoint")), "ms")
    out["checkpoint.load_ms"] = (_median(ms_each("checkpoint.load_checkpoint")), "ms")
    out["checkpoint.bytes"] = (float(checkpoint_bytes), "bytes")

    out["trace.overhead_ms_per_call"] = ((traced_s - untraced_s) * 1e3, "ms")
    out["trace.overhead_share"] = (_ratio(traced_s - untraced_s, untraced_s), "share")
    return out
