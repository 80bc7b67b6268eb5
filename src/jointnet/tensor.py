"""Dense float64 tensors and a reverse-mode differentiation tape.

Every layer and loss in the package is built from the primitives here. Ops
compute eagerly on numpy arrays; when a Tape is active (``with tape:``) each
op appends a node holding its inputs, output, and a backward closure, in
execution order. ``backward`` then walks the node list in reverse.

Shapes: each primitive acts on its trailing axes ([C,H,W] for the spatial
ops, [K] for dense and softmax) and treats any leading axes as the batch,
so one call and one tape node cover a whole minibatch.

Gradients flow only where they can reach a parameter: the tape tracks the
watched parameters and every op output computed from a tracked tensor, and
a primitive may skip the gradient of an untracked input (``conv2d`` skips
the input-image gradient of the first layer). So ``watch`` must come before
the parameter's first use on the tape.

Finiteness is checked once, where a value becomes a Tensor: the
constructor rejects NaN and infinity, so every op output is checked and the
primitives do not re-check their inputs.

Determinism is a hard contract: reductions use fixed numpy orderings, and
maxpool ties break to the first (row-major) window position. Some numpy
reductions sum in an order that follows the memory layout of their operand
(``conv2d``'s bias gradient does), so the layout of each array a primitive
returns is part of the contract, not only its values: the pooling kernels
return C-ordered arrays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

Array = np.ndarray


class Tensor:
    """Dense array of 64-bit floats.

    Values must be finite: NaN/Inf is an error state, never a silent value.
    The constructor is the one place this is checked. Ops treat ``data`` as
    read-only and build new tensors; the only in-place writer is gradcheck,
    which perturbs a parameter by a finite step and restores it.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor contains non-finite values")
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def zeros_like(t: Tensor) -> Tensor:
    return Tensor(np.zeros(t.shape))


@dataclass
class TapeNode:
    """One recorded primitive: kind, inputs, single output, backward closure.

    The closure maps the output gradient to one gradient array per input
    (None for inputs that do not need one). Saved activations live in the
    closure's captured variables.
    """

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[Array], tuple[Array | None, ...]]


class Tape:
    """Execution-ordered record of ops plus the set of watched parameters.

    Activate with ``with tape:``. Parameters must be watched explicitly so
    that ``backward`` can return an exact-zero gradient for any parameter
    the loss never touched. The tape also tracks, by id, every tensor a
    watched parameter flows into: the parameters themselves and the output
    of each recorded op with a tracked input. Primitives read this to skip
    input gradients no parameter needs, so a parameter must be watched
    before its first use. Single-writer: one tape records one forward pass
    on one thread.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._watched: dict[int, Tensor] = {}
        self._tracked: set[int] = set()

    def watch(self, parameter: Tensor) -> None:
        """Flag a leaf tensor as trainable for the next backward call; call
        before the tensor's first use on this tape."""
        self._watched[id(parameter)] = parameter
        self._tracked.add(id(parameter))

    @property
    def watched(self) -> list[Tensor]:
        return list(self._watched.values())

    def __enter__(self) -> "Tape":
        _tls_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tls_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape context exited out of order")


_tls = threading.local()


def _tls_stack() -> list[Tape]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tls_stack()
    return stack[-1] if stack else None


def record(op: str, inputs: tuple[Tensor, ...], output: Tensor,
           backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> None:
    """Append a node to the active tape, if any. No-op during inference.
    The output is tracked when any input is."""
    tape = active_tape()
    if tape is not None:
        tape.nodes.append(TapeNode(op, inputs, output, backward_fn))
        tracked = tape._tracked
        if any(id(t) in tracked for t in inputs):
            tracked.add(id(output))


def _needs_grad(t: Tensor) -> bool:
    """Whether a watched parameter flows into ``t`` on the active tape."""
    tape = active_tape()
    return tape is not None and id(t) in tape._tracked


def backward(tape: Tape, seed: Tensor) -> dict[Tensor, Tensor]:
    """Reverse-traverse the tape from a scalar seed.

    Returns dLoss/dParam for every watched parameter; parameters unreachable
    from the seed get exact zeros of the parameter's shape.
    """
    if seed.shape != ():
        raise ValueError(f"backward seed must be a scalar, got shape {seed.shape}")
    grads: dict[int, Array] = {id(seed): np.ones(())}
    for node in reversed(tape.nodes):
        out_grad = grads.pop(id(node.output), None)
        if out_grad is None:
            continue
        input_grads = node.backward(out_grad)
        for tensor, grad in zip(node.inputs, input_grads):
            if grad is None:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + grad
            else:
                grads[key] = grad
    result: dict[Tensor, Tensor] = {}
    for param in tape._watched.values():
        grad = grads.get(id(param))
        if grad is None:
            result[param] = zeros_like(param)
        else:
            result[param] = Tensor(np.broadcast_to(grad, param.shape).copy())
    return result


# ---------------------------------------------------------------------------
# primitives


def _batched(x: Tensor, trailing: int) -> Array:
    """View ``x`` as a batch: any leading axes folded into one axis in front
    of its ``trailing`` axes."""
    return x.data.reshape((-1,) + x.shape[x.ndim - trailing:])


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           padding: str = "same") -> Tensor:
    """2-D cross-correlation over [..., C,H,W] with a [C_out,C_in,kH,kW]
    kernel; any leading axes are the batch.

    "same" keeps H' = ceil(H/stride) (odd kernels only); "valid" gives
    H' = floor((H-kH)/stride) + 1. Bias is per output channel.

    Each kernel tap is one GEMM over the whole batch. The input is copied,
    channel-major, into a zero-filled padded grid flattened to
    [C_in, N*Hp*Wp]; tap (i, j) then reads the contiguous column range
    shifted by i*Wp + j, so no column matrix is built. The GEMMs fill the
    stride-1 output at every grid position and the strided, in-image
    positions are kept.

    Backward computes the input gradient only when the input is tracked on
    the active tape (see ``Tape``); otherwise the closure returns None for
    it. The bias gradient sums over ``g`` in an order that follows its
    memory layout.
    """
    if x.ndim < 3 or kernel.ndim != 4 or bias.ndim != 1:
        raise ValueError(
            f"conv2d expects input [..., C,H,W], kernel [C_out,C_in,kH,kW], "
            f"bias [C_out]; got {x.shape}, {kernel.shape}, {bias.shape}")
    c_in, h, w = x.shape[-3:]
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ValueError(
            f"conv2d channel mismatch: kernel {kernel.shape} expects {kc} input "
            f"channels but input is {x.shape}")
    if bias.shape[0] != c_out:
        raise ValueError(f"conv2d bias {bias.shape} does not match {c_out} output channels")
    if stride < 1:
        raise ValueError(f"conv2d stride must be >= 1, got {stride}")
    if padding not in ("same", "valid"):
        raise ValueError(f"conv2d padding must be 'same' or 'valid', got {padding!r}")
    if padding == "same" and (kh % 2 == 0 or kw % 2 == 0):
        raise ValueError(f"conv2d same padding requires odd kernel dims, got {kh}x{kw}")
    if padding == "valid" and (kh > h or kw > w):
        raise ValueError(f"conv2d kernel {kh}x{kw} larger than input {h}x{w} for valid padding")

    if padding == "same":
        h_out = -(-h // stride)
        w_out = -(-w // stride)
        pad_h = max((h_out - 1) * stride + kh - h, 0)
        pad_w = max((w_out - 1) * stride + kw - w, 0)
    else:
        h_out = (h - kh) // stride + 1
        w_out = (w - kw) // stride + 1
        pad_h = pad_w = 0
    top, left = pad_h // 2, pad_w // 2
    n = math.prod(x.shape[:-3])
    hp, wp = h + pad_h, w + pad_w
    # the last in-image output reads the last grid cell with its last tap
    span = n * hp * wp - (kh - 1) * wp - (kw - 1)
    taps = [(ki, kj, ki * wp + kj) for ki in range(kh) for kj in range(kw)]
    kept = (slice(None), slice(None), slice(0, stride * h_out, stride),
            slice(0, stride * w_out, stride))
    kdata = kernel.data
    need_dx = _needs_grad(x)

    def padded_flat() -> Array:
        # rebuilt in backward rather than kept on the tape alongside x
        padded = np.zeros((c_in, n, hp, wp))
        padded[:, :, top:top + h, left:left + w] = _batched(x, 3).transpose(1, 0, 2, 3)
        return padded.reshape(c_in, n * hp * wp)

    flat = padded_flat()
    # every kept position lies below span, so the grid's tail is never read
    grid = np.empty((c_out, n, hp, wp))
    acc = grid.reshape(c_out, -1)[:, :span]
    tmp = np.empty_like(acc)
    for t, (ki, kj, off) in enumerate(taps):
        np.matmul(kdata[:, :, ki, kj], flat[:, off:off + span], out=tmp if t else acc)
        if t:
            acc += tmp
    del flat, tmp
    out_data = grid[kept].transpose(1, 0, 2, 3) + bias.data[:, None, None]
    out = Tensor(out_data.reshape(x.shape[:-3] + (c_out, h_out, w_out)))

    def backward_fn(g: Array):
        gb = g.reshape(-1, c_out, h_out, w_out)
        db = gb.sum(axis=(0, 2, 3))
        ggrid = np.zeros((c_out, n, hp, wp))
        ggrid[kept] = gb.transpose(1, 0, 2, 3)
        gflat = ggrid.reshape(c_out, -1)[:, :span]
        flat = padded_flat()
        dk = np.empty_like(kdata)
        for ki, kj, off in taps:
            dk[:, :, ki, kj] = gflat @ flat[:, off:off + span].T
        if not need_dx:
            return None, dk, db
        dflat = flat  # the padded input is spent; its buffer takes dx
        dflat.fill(0.0)
        tmp = np.empty((c_in, span))
        for ki, kj, off in taps:
            np.matmul(kdata[:, :, ki, kj].T, gflat, out=tmp)
            dflat[:, off:off + span] += tmp
        # a view into dflat: no copy of the input gradient
        dx = (dflat.reshape(c_in, n, hp, wp)[:, :, top:top + h, left:left + w]
              .transpose(1, 0, 2, 3).reshape(x.shape))
        return dx, dk, db

    record("conv2d", (x, kernel, bias), out, backward_fn)
    return out


# The four positions of a 2x2 window, in row-major (tie-break) order.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over [..., C,H,W]; requires even
    spatial dims.

    Forward is ``np.maximum`` over the four stride-2 views
    ``x[..., i::2, j::2]``, so no window copy is made; the output is the
    first maximum in row-major order, down to the sign of a zero. Backward
    writes each window's gradient to that same first maximum, through the
    stride-2 views of one array, and zeros elsewhere; it finds the position
    again from ``x`` and the output, so the closure keeps no index array.
    Both results are C-ordered whatever the layout of ``x`` (a batched
    ``conv2d`` output is channel-major).
    """
    if x.ndim < 3:
        raise ValueError(f"maxpool2x2 expects [..., C,H,W], got {x.shape}")
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2 requires even spatial dims, got {h}x{w}")
    xd = x.data
    v00, v01, v10, v11 = (xd[..., i::2, j::2] for i, j in _WINDOW)
    pooled = np.empty(x.shape[:-2] + (h // 2, w // 2))
    # on operands that compare equal (0.0 and -0.0) np.maximum returns the
    # second, so the earlier positions go second
    np.maximum(np.maximum(v11, v10), np.maximum(v01, v00), out=pooled)
    out = Tensor(pooled)

    def backward_fn(g: Array):
        dx = np.empty(x.shape)
        free = np.ones(pooled.shape, dtype=bool)  # no maximum met yet
        for i, j in _WINDOW[:3]:
            hit = xd[..., i::2, j::2] == pooled
            hit &= free
            free ^= hit
            dx[..., i::2, j::2] = np.where(hit, g, 0.0)
        dx[..., 1::2, 1::2] = np.where(free, g, 0.0)
        return (dx,)

    record("maxpool2x2", (x,), out, backward_fn)
    return out


def upsample2x2(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling of [..., C,H,W]; backward sums the
    four replicas.

    Forward assigns ``x`` into the four stride-2 views of one array.
    Backward adds the four stride-2 views of ``g`` into a C-ordered array
    in numpy's order for ``g.reshape(..., H, 2, W, 2).sum(axis=(-3, -1))``:
    ``(g00 + g01) + (g10 + g11)``, or left to right when W is 1. The
    C order matters downstream: ``conv2d``'s bias gradient sums in an order
    that follows the layout of its ``g``.
    """
    if x.ndim < 3:
        raise ValueError(f"upsample2x2 expects [..., C,H,W], got {x.shape}")
    h, w = x.shape[-2:]
    up = np.empty(x.shape[:-2] + (2 * h, 2 * w))
    for i, j in _WINDOW:
        up[..., i::2, j::2] = x.data
    out = Tensor(up)

    def backward_fn(g: Array):
        g00, g01, g10, g11 = (g[..., i::2, j::2] for i, j in _WINDOW)
        dx = np.empty(x.shape)
        np.add(g00, g01, out=dx)
        if w == 1:
            dx += g10
            dx += g11
        else:
            dx += g10 + g11
        return (dx,)

    record("upsample2x2", (x,), out, backward_fn)
    return out


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer over [..., D]: out[..., k] = sum_d
    weights[k,d]*x[..., d] + bias[k]; any leading axes are the batch."""
    if x.ndim < 1 or weights.ndim != 2 or bias.ndim != 1:
        raise ValueError(
            f"dense expects x [..., D], weights [K,D], bias [K]; got "
            f"{x.shape}, {weights.shape}, {bias.shape}")
    k, d = weights.shape
    if x.shape[-1] != d or bias.shape[0] != k:
        raise ValueError(
            f"dense dimension mismatch: weights {weights.shape} vs input "
            f"{x.shape} and bias {bias.shape}")
    rows, wdata = _batched(x, 1), weights.data
    out = Tensor((rows @ wdata.T + bias.data).reshape(x.shape[:-1] + (k,)))

    def backward_fn(g: Array):
        grows = g.reshape(-1, k)
        return (grows @ wdata).reshape(x.shape), grows.T @ rows, grows.sum(axis=0)

    record("dense", (x, weights, bias), out, backward_fn)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    mask = x.data > 0

    def backward_fn(g: Array):
        return (g * mask,)

    record("relu", (x,), out, backward_fn)
    return out


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    # split by sign so exp never overflows
    out_data = np.empty_like(xd)
    pos = xd >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    out = Tensor(out_data)

    def backward_fn(g: Array):
        return (g * out_data * (1.0 - out_data),)

    record("sigmoid", (x,), out, backward_fn)
    return out


def softmax(x: Tensor) -> Tensor:
    """Stable softmax over the last axis (shift by the row max is
    mandatory); any leading axes are the batch."""
    if x.ndim < 1 or x.size < 1:
        raise ValueError(f"softmax expects a non-empty tensor [..., K], got {x.shape}")
    rows = _batched(x, 1)
    e = np.exp(rows - rows.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p.reshape(x.shape))

    def backward_fn(g: Array):
        grows = g.reshape(p.shape)
        dot = (grows * p).sum(axis=1, keepdims=True)
        return ((p * (grows - dot)).reshape(x.shape),)

    record("softmax", (x,), out, backward_fn)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over each channel plane: [..., C,H,W] -> [..., C]."""
    if x.ndim < 3:
        raise ValueError(f"global_avg_pool expects [..., C,H,W], got {x.shape}")
    h, w = x.shape[-2:]
    out = Tensor(x.data.mean(axis=(-2, -1)))

    def backward_fn(g: Array):
        return (np.broadcast_to(g[..., None, None] / (h * w), x.shape).copy(),)

    record("global_avg_pool", (x,), out, backward_fn)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward_fn(g: Array):
        return g, g

    record("add", (a, b), out, backward_fn)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (used for loss weighting)."""
    factor = float(factor)
    if not np.isfinite(factor):
        raise NumericError(f"scale factor must be finite, got {factor}")
    out = Tensor(x.data * factor)

    def backward_fn(g: Array):
        return (g * factor,)

    record("scale", (x,), out, backward_fn)
    return out


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(x.data.sum())
    shape = x.shape

    def backward_fn(g: Array):
        return (np.full(shape, float(g)),)

    record("tensor_sum", (x,), out, backward_fn)
    return out
