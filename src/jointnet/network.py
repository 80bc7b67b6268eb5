"""The joint classification/reconstruction network.

The encoder is a stack of ``n_stages`` blocks (two same-padded 3x3 convs
with relu, then 2x2 max pooling), followed by a bottleneck conv. The
classifier head pools the bottleneck once more, global-average-pools, and
ends in dense + softmax. The decoder starts from the bottleneck and, per
stage, fuses a 3x3-convolved encoder skip with the 2x upsampled previous
decoder map; a final 1x1 conv + sigmoid produces the reconstruction. Each
stage is one ``fuse_skip`` op, the skip conv plus the upsampled map in
one output pass, whose tape node keeps neither the conv output nor the
upsampled map: a recipe joint forward pass and loss record 18 nodes.

Spatial bookkeeping for input size S: stage k emits its skip at
S / 2^(k-1); the bottleneck sits at S / 2^n; decoder map i lives at
S / 2^(n-i). Channel widths double per stage from ``base_channels`` and
the decoder stays at the bottleneck width.

Both forward passes take one [C,S,S] image or an [N,C,S,S] batch; every
output then carries the same leading batch axis.

A network may also hold a stack of F same-architecture models
(``stacked``): every parameter then has one leading model axis of F, the
forward passes take an [F,N,C,S,S] batch per model, and every output leads
with the model axis. One pass of a stack makes the op calls of one model's
pass, and model f's outputs are bit for bit those of model f alone.

A network computes in the dtype of its parameters, float32 or float64
(``build``'s ``dtype``). The forward passes cast the image to that dtype
once (``_cast_input``), so one pass never mixes the two: a float64 image
(``load_image``, a ``synth_generate`` batch) is cast, and a batch already
in the network's dtype is used as it is: a chunk the CLI decoded for it,
or a training batch of the float32 set ``jointnet train`` loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import WEIGHTS, make_rng
from .tensor import (Tensor, conv2d, dense, fuse_skip, global_avg_pool,
                     maxpool2x2, sigmoid, softmax)


@dataclass(frozen=True)
class ArchConfig:
    """Architecture dimensions; immutable once constructed."""

    n_stages: int = 2
    input_channels: int = 3
    input_size: int = 32
    base_channels: int = 8
    n_classes: int = 3

    def __post_init__(self):
        if self.n_stages < 1:
            raise ConfigError(f"n_stages must be >= 1, got {self.n_stages}")
        if self.input_channels < 1:
            raise ConfigError(f"input_channels must be >= 1, got {self.input_channels}")
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be >= 1, got {self.base_channels}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        # the bit length bounds n_stages before 2^(n_stages+1) is computed,
        # so a huge n_stages allocates nothing
        if (self.input_size < 1 or self.n_stages + 1 >= self.input_size.bit_length()
                or self.input_size % 2 ** (self.n_stages + 1)):
            # n_stages + 1 can have one digit more than Python will print
            try:
                power = f" = 2^{self.n_stages + 1}"
            except ValueError:
                power = ""
            raise ConfigError(
                f"input_size must be a positive multiple of 2^(n_stages+1)"
                f"{power}, got {self.input_size}")

    def stage_channels(self, k: int) -> int:
        """Output width of encoder stage k (1-based)."""
        return self.base_channels * 2 ** (k - 1)

    @property
    def bottleneck_channels(self) -> int:
        return self.stage_channels(self.n_stages)


def parameter_specs(config: ArchConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; defines ordering everywhere
    (initialization, optimizer state, checkpoints)."""
    specs: list[tuple[str, tuple[int, ...]]] = []

    def conv_spec(name: str, c_out: int, c_in: int, k: int) -> None:
        specs.append((f"{name}.w", (c_out, c_in, k, k)))
        specs.append((f"{name}.b", (c_out,)))

    c_prev = config.input_channels
    for k in range(1, config.n_stages + 1):
        c_stage = config.stage_channels(k)
        conv_spec(f"enc{k}.conv1", c_stage, c_prev, 3)
        conv_spec(f"enc{k}.conv2", c_stage, c_stage, 3)
        c_prev = c_stage
    cb = config.bottleneck_channels
    conv_spec("bottleneck.conv", cb, c_prev, 3)
    specs.append(("classifier.dense.w", (config.n_classes, cb)))
    specs.append(("classifier.dense.b", (config.n_classes,)))
    for i in range(1, config.n_stages + 1):
        skip_channels = config.stage_channels(config.n_stages + 1 - i)
        conv_spec(f"dec{i}.skip", cb, skip_channels, 3)
    conv_spec("recon.conv", config.input_channels, cb, 1)
    return specs


class JointNetwork:
    """Parameter container plus the config that fixes its shapes.

    ``params`` maps canonical names to tensors in canonical order. Reads
    (forward passes) may run concurrently only while no tape is active,
    since the active tape is process-wide; recording and parameter
    replacement during training are single-threaded.

    ``stack`` is ``()`` for one model and ``(F,)`` for a stack of F
    models, whose parameters all lead with that axis.
    """

    def __init__(self, config: ArchConfig, params: dict[str, Tensor]):
        expected = parameter_specs(config)
        if list(params) != [name for name, _ in expected]:
            raise ConfigError("parameter names do not match the architecture")
        first, first_shape = expected[0]
        lead = params[first].shape[:params[first].ndim - len(first_shape)]
        stack = lead if len(lead) == 1 else ()
        for name, shape in expected:
            if params[name].shape != stack + shape:
                raise ConfigError(
                    f"parameter '{name}' has shape {params[name].shape}, "
                    f"expected {stack + shape}")
        self.config = config
        self.params = params
        self.stack = stack

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: that of the parameters."""
        return next(iter(self.params.values())).data.dtype

    def parameter_groups(self) -> dict[str, list[str]]:
        """Names grouped by role: encoder, classifier, decoder."""
        groups = {"encoder": [], "classifier": [], "decoder": []}
        for name in self.params:
            if name.startswith(("enc", "bottleneck")):
                groups["encoder"].append(name)
            elif name.startswith("classifier"):
                groups["classifier"].append(name)
            else:
                groups["decoder"].append(name)
        return groups


def build(config: ArchConfig, seed: int = 0, dtype=np.float32) -> JointNetwork:
    """Initialize a network: weights uniform(-sqrt(6/fan_in), +sqrt(6/fan_in))
    drawn in canonical parameter order, biases zero. fan_in is the product
    of a weight's shape past its first axis: C_in*k*k or D. The draws are
    float64 whatever ``dtype`` is, then rounded to it, so a float32 network
    holds the float64 network's weights to float32 precision.

    A width too large for numpy to allocate is a ConfigError naming the
    first parameter it refuses and that parameter's shape."""
    rng = make_rng(seed, WEIGHTS)
    params: dict[str, Tensor] = {}
    for name, shape in parameter_specs(config):
        try:
            if name.endswith(".b"):
                params[name] = Tensor(np.zeros(shape, dtype))
            else:
                limit = float(np.sqrt(6.0 / math.prod(shape[1:])))
                params[name] = Tensor(rng.uniform(-limit, limit, shape).astype(dtype))
        except (MemoryError, OverflowError, ValueError) as e:
            raise ConfigError(
                f"parameter '{name}' of shape {shape} cannot be allocated: {e}") from None
    return JointNetwork(config, params)


def stacked(nets: list[JointNetwork]) -> JointNetwork:
    """``nets``, of one architecture and dtype, as one stack of
    ``len(nets)`` models: model f's parameters at index f of each stacked
    parameter. One network makes a stack of one: training steps every run
    as a stack, and inference keeps the network unstacked."""
    first = nets[0]
    return JointNetwork(first.config, {
        name: Tensor(np.stack([net.params[name].data for net in nets]))
        for name in first.params})


@dataclass
class JointOutput:
    """Both heads of one forward pass, the fused decoder maps (index i
    holds the stage-i fusion, spatial size S / 2^(n-i)) and the input image
    in the network's dtype, the reconstruction's target. For a batch, each
    tensor has the batch as its leading axis."""

    class_probs: Tensor
    reconstruction: Tensor
    attention_maps: list[Tensor]
    image: Tensor


def _cast_input(net: JointNetwork, image: Tensor) -> Tensor:
    """``image`` checked against ``net``'s input shape (with the model axis
    of a stack) and the [0, 1] range, in ``net``'s dtype: the image itself
    when it has that dtype already, else one cast copy. Both forward passes
    start here."""
    config = net.config
    expected = (config.input_channels, config.input_size, config.input_size)
    if net.stack:
        fits = image.ndim == 5 and image.shape[:1] == net.stack
        shapes = f"[{net.stack[0]}, N, *{expected}]"
    else:
        fits = image.ndim in (3, 4)
        shapes = f"{expected} or [N, *{expected}]"
    if not fits or image.shape[-3:] != expected:
        raise ValueError(f"image shape {image.shape} does not match configured {shapes}")
    if image.data.min() < 0.0 or image.data.max() > 1.0:
        raise ValueError("image values must lie within [0, 1]")
    dtype = net.dtype
    return image if image.data.dtype == dtype else Tensor(image.data.astype(dtype))


def _encode(net: JointNetwork, image: Tensor) -> tuple[list[Tensor], Tensor]:
    """Run the encoder; returns the per-stage skips (tapped before each
    pooling) and the bottleneck output."""
    p = net.params
    x = image
    skips: list[Tensor] = []
    for k in range(1, net.config.n_stages + 1):
        x = conv2d(x, p[f"enc{k}.conv1.w"], p[f"enc{k}.conv1.b"], relu=True)
        x = conv2d(x, p[f"enc{k}.conv2.w"], p[f"enc{k}.conv2.b"], relu=True)
        skips.append(x)
        x = maxpool2x2(x)
    bottleneck = conv2d(x, p["bottleneck.conv.w"], p["bottleneck.conv.b"], relu=True)
    return skips, bottleneck


def _classify(net: JointNetwork, bottleneck: Tensor) -> Tensor:
    p = net.params
    pooled = maxpool2x2(bottleneck)
    features = global_avg_pool(pooled)
    return softmax(dense(features, p["classifier.dense.w"], p["classifier.dense.b"]))


def forward_backbone(net: JointNetwork, image: Tensor) -> Tensor:
    """Classifier path only; the decoder is never touched. Returns [K]
    probabilities for one image, [N,K] for a batch."""
    _, bottleneck = _encode(net, _cast_input(net, image))
    return _classify(net, bottleneck)


def forward_joint(net: JointNetwork, image: Tensor) -> JointOutput:
    """Full pass: class probabilities, reconstruction, decoder maps and the
    input in the network's dtype."""
    p = net.params
    image = _cast_input(net, image)
    skips, bottleneck = _encode(net, image)
    probs = _classify(net, bottleneck)

    n = net.config.n_stages
    x = bottleneck
    maps: list[Tensor] = []
    for i in range(1, n + 1):
        x = fuse_skip(skips[n - i], x, p[f"dec{i}.skip.w"], p[f"dec{i}.skip.b"])
        maps.append(x)
    recon = sigmoid(conv2d(x, p["recon.conv.w"], p["recon.conv.b"]))
    return JointOutput(probs, recon, maps, image)


def extract_attention(output: JointOutput, stage: int) -> Tensor:
    """Channel-mean of a fused decoder map, min-max normalized to [0, 1].

    A constant map normalizes to all zeros. Returns shape [1, H, W].
    ``output`` must come from a single-image forward pass.
    """
    if not 1 <= stage <= len(output.attention_maps):
        raise ValueError(
            f"stage must be within 1..{len(output.attention_maps)}, got {stage}")
    fused = output.attention_maps[stage - 1]
    if fused.ndim != 3:
        raise ValueError(f"extract_attention expects one image's maps, got {fused.shape}")
    plane = fused.data.mean(axis=0)
    lo, hi = plane.min(), plane.max()
    if hi > lo:
        plane = (plane - lo) / (hi - lo)
    else:
        plane = np.zeros_like(plane)
    return Tensor(plane[None, :, :])
