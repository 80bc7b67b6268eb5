"""Span recorder for the traced run.

The tracer replaces public functions of jointnet's modules *as the calling
module binds them* (``jointnet.network.conv2d``, ``jointnet.cli.kfold_train``,
...) with wrappers that record a span per call, and restores the originals
afterwards. Nothing inside ``src/`` changes; the untraced run installs no
wrapper at all.

A span is ``(name, start_ns, end_ns, parent, op_id, taped, attr)``: the
parent is the index of the enclosing span (-1 at the root), ``op_id`` is the
CLI call the span belongs to, ``taped`` says whether an autodiff tape was
recording, and ``attr`` is the input-shape signature of a tensor op or the
raster bytes of a netpbm read.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# The tape ops the benchmark reports: tensor primitives, then the losses.
TENSOR_OPS = ("conv2d", "maxpool2x2", "upsample2x2", "relu", "add", "scale",
              "dense", "softmax", "sigmoid", "global_avg_pool")
LOSS_OPS = ("cross_entropy", "mse")


def op_span_name(op: str) -> str:
    return f"training.{op}" if op in LOSS_OPS else f"tensor.{op}"


def signature(args) -> tuple:
    """Shapes of the tensor arguments: the key the op inventory times by."""
    return tuple(a.shape for a in args if hasattr(a, "shape"))


def _input_shapes(args, result) -> tuple:
    return signature(args)


def _raster_bytes(args, result) -> int:
    values, maxval = result
    return int(values.size) * (2 if maxval > 255 else 1)


class Tracer:
    def __init__(self, jn):
        self.jn = jn
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.tape_nodes = 0
        self._active_tape = jn.tensor.active_tape
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr_fn=None):
        spans, stack, clock, active = self.spans, self.stack, time.perf_counter_ns, self._active_tape

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserved, so that children can name their parent
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            # A tuple of plain values leaves the garbage collector's tracking,
            # so a long trace does not slow every later collection.
            spans[index] = (name, start, end, parent, self.op_id, active() is not None,
                            None if attr_fn is None else attr_fn(args, result))
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, attr_fn=None) -> None:
        """Wrap ``owner.attr``; a name the module no longer binds is skipped,
        and its metrics read 0."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attr_fn))

    def _patch_record(self, module, prefix: str) -> None:
        """Wrap each backward closure recorded on an active tape in a span."""
        original = getattr(module, "record", None)
        if original is None:
            return
        self._patches.append((module, "record", original))

        def record(op, inputs, output, backward_fn):
            if self._active_tape() is not None:
                self.tape_nodes += 1
                sig = signature(inputs)
                backward_fn = self.wrap(f"{prefix}.{op}.bwd", backward_fn,
                                        lambda args, result: sig)
            return original(op, inputs, output, backward_fn)

        module.record = record

    def install(self) -> None:
        jn = self.jn
        cli, data, evaluation, network, training = (
            jn.cli, jn.data, jn.evaluation, jn.network, jn.training)
        for attr, name in (("parse_config", "config.parse_config"),
                           ("load_directory", "data.load_directory"),
                           ("kfold_train", "training.kfold_train"),
                           ("save_checkpoint", "checkpoint.save_checkpoint"),
                           ("load_checkpoint", "checkpoint.load_checkpoint"),
                           ("to_network", "checkpoint.to_network"),
                           ("evaluate", "evaluation.evaluate"),
                           ("render_metrics_kv", "evaluation.render_metrics_kv")):
            self._patch(cli, attr, name)
        self._patch(data, "read_netpbm", "netpbm.read_netpbm", _raster_bytes)
        for attr, name in (("train", "training.train"),
                           ("build", "network.build"),
                           ("combined_loss", "training.combined_loss"),
                           ("forward_joint", "network.forward_joint"),
                           ("forward_backbone", "network.forward_backbone"),
                           ("backward", "tensor.backward")):
            self._patch(training, attr, name)
        self._patch(training.Adam, "step", "training.adam_step")
        for op in LOSS_OPS + ("add", "scale"):
            self._patch(training, op, op_span_name(op), _input_shapes)
        self._patch(evaluation, "predict", "evaluation.predict")
        self._patch(evaluation, "forward_backbone", "network.forward_backbone")
        for op in TENSOR_OPS:
            self._patch(network, op, op_span_name(op), _input_shapes)
        self._patch_record(jn.tensor, "tensor")
        self._patch_record(training, "training")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, fn, *args):
        """Run one CLI call under a root span with a fresh operation id."""
        self.op_id += 1
        return self.wrap("cli.main", fn)(*args)

    def write_jsonl(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, op_id, taped, attr) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent, "op": op_id,
                                    "taped": taped, "attr": attr}) + "\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
