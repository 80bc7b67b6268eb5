"""Dense float32 or float64 tensors and a reverse-mode differentiation tape.

Every layer and loss in the package is built from the primitives here. Ops
compute eagerly on numpy arrays; when a Tape is active (``with tape:``) each
op appends a node holding its inputs, output, and a backward closure, in
execution order. ``backward`` then walks the node list in reverse. One tape
records one forward pass and is differentiated once: ``backward`` releases
each node as it goes, so a forward activation is freed as soon as the
gradients that need it exist, not when the whole pass ends.

Shapes: each primitive acts on its trailing axes ([C,H,W] for the spatial
ops, [K] for dense and softmax) and treats any leading axes as the batch,
so one call and one tape node cover a whole minibatch.

A stack of F same-shape models shares every call too. ``conv2d``,
``fuse_skip`` and ``dense`` take parameters with one leading model axis
(kernel [F,C_out,C_in,kH,kW], weights [F,K,D], bias [F,C_out]) and
then read model f's batch at ``x[f]``: each of their GEMMs is one
``np.matmul`` over the F models, which rounds each model's product as the
unstacked call does, so model f's results are bit for bit those of model f
alone. Without the model axis the GEMMs stay 2-D calls. The other
primitives need no model axis: it is one more leading batch axis to them.
The losses (``training``) return one value per model, and ``backward``
differentiates the sum of a vector seed's entries, so each model's
parameters get exactly their own loss's gradient.

The relu is fused into the convolution, not a primitive of its own:
``conv2d(..., relu=True)`` adds the bias and clamps at zero in one output
pass, and its backward masks ``g`` by ``out > 0``. The mask is taken from
the output, which is positive exactly where the pre-relu value was, so
the node keeps no mask array. A decoder stage is one op too:
``fuse_skip(skip, x, kernel, bias)`` is ``conv2d(skip, kernel, bias)``
plus the nearest-neighbor 2x upsampling of ``x``, in one output pass and
one node, so neither the conv output nor the upsampled map is made or
held. ``conv2d`` and ``fuse_skip`` share their tap GEMMs and backward
rule (``_conv_taps``); the upsampling's gradient is ``_replica_sum``.

Gradients flow only where they can reach a parameter, and two places skip
one. The tape tracks the watched parameters and every op output computed
from a tracked tensor, and a primitive may skip the gradient of an
untracked input: ``conv2d`` skips the input-image gradient of the first
layer, so ``watch`` must come before the parameter's first use on the
tape. And no op differentiates its data: the one-hot rows and the input
image that the losses (``training.cross_entropy``, ``training.mse``) take
as targets, and the two weights of ``weighted_sum``, have no gradient, so
every recorded node can be called again as ``fn(*node.inputs)``.

The compute dtype follows the data. A Tensor keeps a float32 or float64
array as it is, and every array an op, its backward rule or ``backward``
makes has the dtype of the op's inputs, so a float32 network computes in
float32 and a float64 one in float64 on the same code. Each allocation
names its dtype: numpy 2 promotes float32 with a float64 0-d array, so a
single default-dtype ``np.ones(())`` would turn a float32 pass into a
float64 one. A conv computes in the common dtype of its input and kernel.

Finiteness is checked once, where a value becomes a Tensor: the
constructor rejects NaN and infinity, so every op output is checked and the
primitives do not re-check their inputs. Gradients are plain arrays:
``Adam.step`` checks them, and names the parameter of a non-finite one.

Determinism is a hard contract: reductions use fixed numpy orderings, and
maxpool ties break to the first (row-major) window position. Some numpy
reductions sum in an order that follows the memory layout of their operand
(``conv2d``'s bias gradient does), so the layout of each array a primitive
returns is part of the contract, not only its values: the pooling kernels
return C-ordered arrays, ``conv2d`` the transpose of a channel-major
one, and ``fuse_skip`` a C-ordered one, the layout of the elementwise sum
it replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError

Array = np.ndarray

# the dtypes a Tensor keeps; it converts anything else to float64
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense array of 32- or 64-bit floats: a float32 or float64 array keeps
    its dtype, and anything else (Python numbers, integer arrays) becomes
    float64.

    Values must be finite: NaN/Inf is an error state, never a silent value.
    The constructor is the one place this is checked. Ops treat ``data`` as
    read-only and build new tensors; the only in-place writer is gradcheck,
    which perturbs a parameter by a finite step and restores it.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = np.asarray(arr, dtype=np.float64)
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
    and is differentiated once; ``backward`` releases each node as it goes
    and leaves ``nodes`` empty, and a second ``backward`` on the tape raises
    ``ValueError``. The active tape is process-wide, not per thread, so
    record on one thread only.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self._watched: dict[int, Tensor] = {}
        self._tracked: set[int] = set()
        self._spent = False

    def watch(self, parameter: Tensor) -> None:
        """Flag a leaf tensor as trainable for the next backward call; call
        before the tensor's first use on this tape."""
        self._watched[id(parameter)] = parameter
        self._tracked.add(id(parameter))

    def __enter__(self) -> "Tape":
        _stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _stack.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise RuntimeError("tape context exited out of order")


_stack: list[Tape] = []


def active_tape() -> Tape | None:
    return _stack[-1] if _stack else None


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


def backward(tape: Tape, seed: Tensor) -> dict[Tensor, Array]:
    """Reverse-traverse the tape from a seed, consuming it. The seed is a
    scalar loss, or a vector of one loss per model of a stack; a vector's
    entries are summed, so the pass starts from a gradient of ones of the
    seed's shape and records no node of its own.

    Each array is freed after its last reader. A node is popped off
    ``tape.nodes`` and dropped before its closure runs, so its output dies
    then unless the closure keeps it; the closure and what it saved die
    before the next closure runs. The closure gets the only
    reference to its output gradient, so a rule may free ``g`` once it has
    read it (the conv rule does, once ``g`` is in its gradient grid), and
    an input gradient that is summed into an earlier one dies at once. So
    while a rule runs, the pass holds only the table and the nodes still
    ahead. The tape is empty afterwards, and a second call on it raises
    ``ValueError``. The id-keyed gradient table stays sound while tensors
    are freed: the pass creates no Tensor, so no id is reused by a tensor
    it looks up.

    Returns dLoss/dParam for every watched parameter as the accumulated
    array itself; parameters unreachable from the seed get exact zeros of
    the parameter's shape. The arrays are read-only results that may share
    memory, and they are not checked for finiteness.
    """
    if seed.ndim > 1:
        raise ValueError(f"backward seed must be a scalar or a vector of "
                         f"per-model losses, got shape {seed.shape}")
    if tape._spent:
        raise ValueError("this tape was already differentiated: "
                         "record a new tape for each backward pass")
    tape._spent = True
    nodes = tape.nodes
    grads: dict[int, Array] = {id(seed): np.ones(seed.shape, seed.data.dtype)}
    while nodes:
        node = nodes.pop()
        key = id(node.output)
        if key not in grads:
            continue
        keys, rule = [id(t) for t in node.inputs], node.backward
        # the rule gets the only reference to its output gradient, and
        # neither the node nor its output outlives this line unless the
        # rule itself keeps them
        del node
        _accumulate(grads, keys, rule(grads.pop(key)))
    return {p: grads[id(p)] if id(p) in grads else np.zeros(p.shape, p.data.dtype)
            for p in tape._watched.values()}


def _accumulate(grads: dict[int, Array], keys: list[int],
                input_grads: tuple[Array | None, ...]) -> None:
    """Add one node's input gradients into the table. A gradient that is
    summed into an existing entry dies when this returns."""
    for key, grad in zip(keys, input_grads):
        if grad is not None:
            grads[key] = grads[key] + grad if key in grads else grad


# ---------------------------------------------------------------------------
# primitives


def _conv_taps(op: str, x: Tensor, kernel: Tensor,
               bias: Tensor) -> tuple[Array, Callable, Callable]:
    """The tap GEMMs of a stride-1, same-padded 2-D cross-correlation of
    ``x`` [..., C,H,W] with ``kernel`` [C_out,C_in,kH,kW] (odd kH and kW),
    and its backward rule; ``conv2d`` and ``fuse_skip`` differ only in the
    output pass they run over the result. A stack of F models has kernel
    [F,C_out,C_in,kH,kW], bias [F,C_out] and ``x`` [F, ..., C,H,W]; every
    array below then has the model axis in front, and each tap GEMM is one
    ``np.matmul`` over it.

    Returns ``(blocks, to_grid, conv_backward)``. ``blocks`` is a read-only
    [C_out, N, H, W] view of the tap sums ([F, C_out, N, H, W] for a
    stack), without the bias, where N folds the batch axes of ``x``. The
    backward rule takes two calls: ``to_grid(g)`` copies the gradient of
    ``blocks + bias`` (shape [..., C_out,H,W], any layout) into the
    gradient grid below and sums the bias gradient, and
    ``conv_backward(*to_grid(g))`` returns ``(dx, dkernel, dbias)``.
    Between them the caller drops ``g``, so ``g`` is not held while the
    grid and the GEMMs are.

    Each kernel tap is one GEMM over the whole batch. The input is copied,
    channel-major, at offset (kH//2, kW//2) into a zero-filled
    (H+kH-1) x (W+kW-1) grid per channel and sample, flattened to
    [C_in, N*Hp*Wp]; tap (i, j) then reads the contiguous column range
    shifted by i*Wp + j, so no column matrix is built. The tap products
    sum in one contiguous [C_out, span] array, where span stops at the
    last output's grid cell; output (n, y, x) of a channel is its column
    n*Hp*Wp + y*Wp + x, which ``blocks`` reads through a strided view.

    The input gradient is gathered rather than scattered. The output
    gradient sits in a grid of the same layout behind (kH-1)*Wp + kW-1
    zero columns, the last tap's offset; each tap's transposed GEMM reads
    it from its own offset back, so column p of every product belongs to
    grid cell p. The first tap writes the input-gradient grid and the
    others add to it, each as one contiguous array.

    No tap GEMM of the forward pass or of the kernel gradient may change
    its N or its operands: OpenBLAS rounds a GEMM's edge columns apart
    from the rest, so over N*Hp*Wp columns instead of span the outputs,
    and the checkpoints, change. The transposed GEMMs of the input
    gradient run over N*Hp*Wp columns and round every column as they did
    over span, at every shape of the recipe network. A stacked
    ``np.matmul`` calls the same GEMM once per model on that model's
    operands, so a stack keeps each model's rounding.

    The input gradient is computed only when the input is tracked on the
    active tape (see ``Tape``); otherwise it is None. The bias gradient
    sums over ``g`` in an order that follows its memory layout, per model.
    """
    stack = kernel.shape[:-4]
    if (kernel.ndim not in (4, 5) or bias.ndim != kernel.ndim - 3
            or x.ndim < kernel.ndim - 1 or x.shape[:len(stack)] != stack):
        raise ValueError(
            f"{op} expects input [..., C,H,W], kernel [C_out,C_in,kH,kW], "
            f"bias [C_out], or for F models input [F, ..., C,H,W], kernel "
            f"[F,C_out,C_in,kH,kW], bias [F,C_out]; got {x.shape}, "
            f"{kernel.shape}, {bias.shape}")
    c_in, h, w = x.shape[-3:]
    c_out, kc, kh, kw = kernel.shape[-4:]
    if kc != c_in:
        raise ValueError(
            f"{op} channel mismatch: kernel {kernel.shape} expects {kc} input "
            f"channels but input is {x.shape}")
    if bias.shape != stack + (c_out,):
        raise ValueError(f"{op} bias {bias.shape} does not match {c_out} output channels")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"{op} same padding requires odd kernel dims, got {kh}x{kw}")

    top, left = kh // 2, kw // 2
    n = math.prod(x.shape[len(stack):-3])
    hp, wp = h + kh - 1, w + kw - 1
    cells = n * hp * wp
    # the last tap's offset: the last output reads the last grid cell with it
    reach = (kh - 1) * wp + (kw - 1)
    span = cells - reach
    taps = [(ki, kj, ki * wp + kj) for ki in range(kh) for kj in range(kw)]
    kdata = kernel.data
    dtype = np.result_type(x.data, kdata)
    need_dx = _needs_grad(x)

    def padded_flat() -> Array:
        # rebuilt in backward: keeping it was 1.02x faster but +1.6 MB peak RSS
        padded = np.zeros(stack + (c_in, n, hp, wp), dtype)
        padded[..., top:top + h, left:left + w] = x.data.reshape(
            stack + (n, c_in, h, w)).swapaxes(-4, -3)
        return padded.reshape(stack + (c_in, cells))

    flat = padded_flat()
    # taps sum into a C-ordered [C_out, span] array: numpy adds two
    # contiguous arrays several times faster than two strided row views
    acc = np.empty(stack + (c_out, span), dtype)
    tmp = np.empty_like(acc) if len(taps) > 1 else None
    for t, (ki, kj, off) in enumerate(taps):
        np.matmul(kdata[..., ki, kj], flat[..., off:off + span], out=tmp if t else acc)
        if t:
            acc += tmp
    del flat, tmp
    # output (c, i, y, x) is acc[c, i*hp*wp + y*wp + x], a column below span
    step = acc.itemsize
    blocks = np.lib.stride_tricks.as_strided(
        acc, stack + (c_out, n, h, w),
        acc.strides[:len(stack)] + (span * step, hp * wp * step, wp * step, step),
        writeable=False)

    def to_grid(g: Array) -> tuple[Array, Array]:
        gb = g.reshape(stack + (-1, c_out, h, w))
        db = gb.sum(axis=(-4, -2, -1))
        # the gradient grid behind reach zero columns, which the dx taps
        # read before its start
        gpad = np.zeros(stack + (c_out, reach + cells), dtype)
        gpad[..., reach:].reshape(stack + (c_out, n, hp, wp))[..., :h, :w] = gb.swapaxes(
            -4, -3)
        return gpad, db

    def conv_backward(gpad: Array, db: Array):
        gflat = gpad[..., reach:reach + span]
        flat = padded_flat()
        flat_t = flat.swapaxes(-1, -2)
        dk = np.empty_like(kdata)
        for ki, kj, off in taps:
            dk[..., ki, kj] = gflat @ flat_t[..., off:off + span, :]
        if not need_dx:
            return None, dk, db
        dflat = flat  # the padded input is spent; its buffer takes dx
        # each grid cell gathers the products of the outputs its taps reach,
        # so every sum adds whole contiguous arrays
        tmp = np.empty_like(dflat) if len(taps) > 1 else None
        k_t = kdata.swapaxes(-4, -3)  # tap (i, j) is k_t[..., i, j], [C_in, C_out]
        for t, (ki, kj, off) in enumerate(taps):
            np.matmul(k_t[..., ki, kj], gpad[..., reach - off:reach - off + cells],
                      out=tmp if t else dflat)
            if t:
                dflat += tmp
        # a view into dflat: no copy of the input gradient
        dx = (dflat.reshape(stack + (c_in, n, hp, wp))[..., top:top + h, left:left + w]
              .swapaxes(-4, -3).reshape(x.shape))
        return dx, dk, db

    return blocks, to_grid, conv_backward


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, relu: bool = False) -> Tensor:
    """Stride-1, same-padded 2-D cross-correlation over [..., C,H,W] with a
    [C_out,C_in,kH,kW] kernel (odd kH and kW); any leading axes are the
    batch. The output is [..., C_out,H,W]; bias is per output channel.
    With ``relu=True`` the output is clamped at zero, ``max(conv, 0)``, in
    the same op: one tape node and one output array instead of two. A
    stack of F models takes kernel [F,C_out,C_in,kH,kW], bias [F,C_out]
    and ``x`` [F, ..., C,H,W] (see ``_conv_taps``).

    ``_conv_taps`` runs the tap GEMMs and holds the backward rule. The
    output pass reads the tap sums and writes them plus the bias into a fresh
    channel-major [C_out, N, H, W] array, the relu (if any) clamps it in
    place, and the op returns its [N, C_out, H, W] transpose: the values
    and the layout of ``relu(conv2d(...))`` as two ops.

    With the relu, backward first masks ``g`` by ``out > 0``: the output
    is positive exactly where the pre-relu value was, so no mask is kept.
    ``g`` is dropped once it is in the gradient grid.
    """
    blocks, to_grid, conv_backward = _conv_taps("conv2d", x, kernel, bias)
    c_out, _, h, w = blocks.shape[-4:]
    out_data = blocks + bias.data[..., None, None, None]
    del blocks
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
    out = Tensor(out_data.swapaxes(-4, -3).reshape(x.shape[:-3] + (c_out, h, w)))

    def backward_fn(g: Array):
        if relu:
            g = g * (out.data > 0)
        grid = to_grid(g)
        del g
        return conv_backward(*grid)

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
    pooled = np.empty(x.shape[:-2] + (h // 2, w // 2), xd.dtype)
    # on operands that compare equal (0.0 and -0.0) np.maximum returns the
    # second, so the earlier positions go second
    np.maximum(np.maximum(v11, v10), np.maximum(v01, v00), out=pooled)
    out = Tensor(pooled)

    def backward_fn(g: Array):
        dx = np.empty(x.shape, xd.dtype)
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


def _replica_sum(g: Array, shape: tuple[int, ...]) -> Array:
    """The gradient of a nearest-neighbor 2x upsampling to ``g``'s shape
    from ``shape`` [..., H, W]: the four stride-2 views of ``g`` added into
    a C-ordered array in numpy's order for ``g.reshape(..., H, 2, W,
    2).sum(axis=(-3, -1))``, ``(g00 + g01) + (g10 + g11)``, or left to
    right when W is 1."""
    g00, g01, g10, g11 = (g[..., i::2, j::2] for i, j in _WINDOW)
    dx = np.empty(shape, g.dtype)
    np.add(g00, g01, out=dx)
    if shape[-1] == 1:
        dx += g10
        dx += g11
    else:
        dx += g10 + g11
    return dx


def fuse_skip(skip: Tensor, x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """One decoder stage: ``conv2d(skip, kernel, bias)`` plus the
    nearest-neighbor 2x upsampling of ``x``, as one op and one tape node.
    ``skip`` is [..., C,H,W] and ``x`` is [..., C_out, H/2, W/2] with the
    same leading (batch) axes; the output is a C-ordered [..., C_out,H,W]
    array, the layout of the elementwise sum it replaced. A stack of F
    models takes kernel [F,C_out,C_in,kH,kW] and bias [F,C_out], and
    ``skip`` and ``x`` then lead with the model axis (see ``_conv_taps``).

    The output pass writes the tap sums plus the bias into the fresh
    output array and then adds ``x`` into its four stride-2 views, so
    neither the conv output nor the upsampled map exists as an array, and
    the tape holds neither. Backward takes the upsample's replica sum for
    ``x`` first, a quarter of ``g``'s size, and copies ``g`` into the
    conv's gradient grid; ``g`` is then dropped before the conv's GEMMs
    run, so ``g`` and the grid are not both held through them.
    """
    blocks, to_grid, conv_backward = _conv_taps("fuse_skip", skip, kernel, bias)
    stack, (c_out, _, h, w) = blocks.shape[:-4], blocks.shape[-4:]
    if h % 2 or w % 2 or x.shape != skip.shape[:-3] + (c_out, h // 2, w // 2):
        raise ValueError(
            f"fuse_skip expects x [..., {c_out}, H/2, W/2] for skip {skip.shape}, "
            f"got {x.shape}")
    fused = np.empty(skip.shape[:-3] + (c_out, h, w), blocks.dtype)
    np.add(blocks.swapaxes(-4, -3), bias.data[..., None, :, None, None],
           out=fused.reshape(stack + (-1, c_out, h, w)))
    del blocks
    for i, j in _WINDOW:
        fused[..., i::2, j::2] += x.data
    out = Tensor(fused)

    def backward_fn(g: Array):
        dx = _replica_sum(g, x.shape)
        grid = to_grid(g)
        del g
        dskip, dk, db = conv_backward(*grid)
        return dskip, dx, dk, db

    record("fuse_skip", (skip, x, kernel, bias), out, backward_fn)
    return out


def dense(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer over [..., D]: out[..., k] = sum_d
    weights[k,d]*x[..., d] + bias[k]; any leading axes are the batch. A
    stack of F models takes weights [F,K,D], bias [F,K] and ``x``
    [F, ..., D], and its GEMMs are one ``np.matmul`` over the models."""
    if weights.ndim not in (2, 3) or bias.ndim != weights.ndim - 1 or x.ndim < bias.ndim:
        raise ValueError(
            f"dense expects x [..., D], weights [K,D], bias [K], or for F models "
            f"x [F, ..., D], weights [F,K,D], bias [F,K]; got "
            f"{x.shape}, {weights.shape}, {bias.shape}")
    stack, (k, d) = weights.shape[:-2], weights.shape[-2:]
    if x.shape[-1] != d or bias.shape != stack + (k,) or x.shape[:len(stack)] != stack:
        raise ValueError(
            f"dense dimension mismatch: weights {weights.shape} vs input "
            f"{x.shape} and bias {bias.shape}")
    rows, wdata = x.data.reshape(stack + (-1, d)), weights.data
    out = Tensor((rows @ wdata.swapaxes(-1, -2) + bias.data[..., None, :])
                 .reshape(x.shape[:-1] + (k,)))

    def backward_fn(g: Array):
        grows = g.reshape(stack + (-1, k))
        return ((grows @ wdata).reshape(x.shape), grows.swapaxes(-1, -2) @ rows,
                grows.sum(axis=-2))

    record("dense", (x, weights, bias), out, backward_fn)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """The logistic function in one pass: with ``e = exp(-|x|)``, the
    output is ``1 / (1 + e)`` = 1 / (1 + exp(-x)) where x >= 0 (-0.0
    included) and ``e / (1 + e)`` = exp(x) / (1 + exp(x)) below. ``e`` is
    at most 1, so nothing overflows; the output keeps the input's layout."""
    e = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1.0, e) / (1.0 + e)
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
    rows = x.data.reshape(-1, x.shape[-1])
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


def weighted_sum(a: Tensor, b: Tensor, weights: Tensor) -> Tensor:
    """``weights[0] * a + weights[1] * b`` for same-shape ``a`` and ``b``.
    ``weights`` is a [2] data tensor, like a loss's target: its gradient is
    always None, and the node can be called again with its inputs."""
    if a.shape != b.shape or weights.shape != (2,):
        raise ValueError(
            f"weighted_sum expects same-shape a and b and weights [2]; got "
            f"{a.shape}, {b.shape}, {weights.shape}")
    wa, wb = weights.data
    out = Tensor(wa * a.data + wb * b.data)

    def backward_fn(g: Array):
        return wa * g, wb * g, None

    record("weighted_sum", (a, b, weights), out, backward_fn)
    return out


def tensor_sum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out = Tensor(x.data.sum())
    shape, dtype = x.shape, x.data.dtype

    def backward_fn(g: Array):
        return (np.full(shape, g, dtype),)

    record("tensor_sum", (x,), out, backward_fn)
    return out
