"""Nearest-neighbor 2x upsampling and the elementwise sum as taped ops of
their own: two of the three ops each decoder stage recorded before the
stage became one ``fuse_skip`` node. The tests keep them as the reference
``fuse_skip`` must match, ``add(conv2d(...), upsample2x2(...))`` bit for
bit, and the upsample to check the replica sum it shares with
``fuse_skip``."""

from __future__ import annotations

import numpy as np

from jointnet import tensor
from jointnet.tensor import _WINDOW, Tensor, _replica_sum


def upsample2x2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling of [..., C,H,W]; backward sums the
    four replicas (``_replica_sum``).

    Forward assigns ``x`` into the four stride-2 views of one array. The
    gradient is C-ordered, and that matters downstream: ``conv2d``'s bias
    gradient sums in an order that follows the layout of its ``g``.
    """
    if x.ndim < 3:
        raise ValueError(f"upsample2x2 expects [..., C,H,W], got {x.shape}")
    h, w = x.shape[-2:]
    up = np.empty(x.shape[:-2] + (2 * h, 2 * w))
    for i, j in _WINDOW:
        up[..., i::2, j::2] = x.data
    out = Tensor(up)

    def backward_fn(g):
        return (_replica_sum(g, x.shape),)

    tensor.record("upsample2x2", (x,), out, backward_fn)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors; backward hands ``g`` to
    both."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        return g, g

    tensor.record("add", (a, b), out, backward_fn)
    return out
