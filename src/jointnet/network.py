"""The joint classification/reconstruction network.

The encoder is a stack of ``n_stages`` blocks (two same-padded 3x3 convs
with relu, then 2x2 max pooling), followed by a bottleneck conv. The
classifier head pools the bottleneck once more, global-average-pools, and
ends in dense + softmax. The decoder starts from the bottleneck and, per
stage, fuses a 3x3-convolved encoder skip with the 2x upsampled previous
decoder map; a final 1x1 conv + sigmoid produces the reconstruction.

Spatial bookkeeping for input size S: stage k emits its skip at
S / 2^(k-1); the bottleneck sits at S / 2^n; decoder map i lives at
S / 2^(n-i). Channel widths double per stage from ``base_channels`` and
the decoder stays at the bottleneck width.

Both forward passes take one [C,S,S] image or an [N,C,S,S] batch; every
output then carries the same leading batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .rng import WEIGHTS, make_rng
from .tensor import (Tensor, add, conv2d, dense, global_avg_pool, maxpool2x2,
                     relu, sigmoid, softmax, upsample2x2)


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
        divisor = 2 ** (self.n_stages + 1)
        if self.input_size < divisor or self.input_size % divisor != 0:
            raise ConfigError(
                f"input_size must be a positive multiple of 2^(n_stages+1) = "
                f"{divisor}, got {self.input_size}")

    def stage_channels(self, k: int) -> int:
        """Output width of encoder stage k (1-based)."""
        return self.base_channels * 2 ** (k - 1)

    @property
    def bottleneck_channels(self) -> int:
        return self.stage_channels(self.n_stages)


def parameter_specs(config: ArchConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """Canonical (name, shape, fan_in) list; defines ordering everywhere
    (initialization, optimizer state, checkpoints)."""
    specs: list[tuple[str, tuple[int, ...], int]] = []

    def conv_spec(name: str, c_out: int, c_in: int, k: int) -> None:
        specs.append((f"{name}.w", (c_out, c_in, k, k), c_in * k * k))
        specs.append((f"{name}.b", (c_out,), c_in * k * k))

    c_prev = config.input_channels
    for k in range(1, config.n_stages + 1):
        c_stage = config.stage_channels(k)
        conv_spec(f"enc{k}.conv1", c_stage, c_prev, 3)
        conv_spec(f"enc{k}.conv2", c_stage, c_stage, 3)
        c_prev = c_stage
    cb = config.bottleneck_channels
    conv_spec("bottleneck.conv", cb, c_prev, 3)
    specs.append(("classifier.dense.w", (config.n_classes, cb), cb))
    specs.append(("classifier.dense.b", (config.n_classes,), cb))
    for i in range(1, config.n_stages + 1):
        skip_channels = config.stage_channels(config.n_stages + 1 - i)
        conv_spec(f"dec{i}.skip", cb, skip_channels, 3)
    conv_spec("recon.conv", config.input_channels, cb, 1)
    return specs


def parameter_count(config: ArchConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_specs(config))


class JointNetwork:
    """Parameter container plus the config that fixes its shapes.

    ``params`` maps canonical names to tensors in canonical order. Reads
    (forward passes) may run concurrently; parameter replacement during
    training is single-threaded.
    """

    def __init__(self, config: ArchConfig, params: dict[str, Tensor]):
        expected = parameter_specs(config)
        if list(params) != [name for name, _, _ in expected]:
            raise ConfigError("parameter names do not match the architecture")
        for name, shape, _ in expected:
            if params[name].shape != shape:
                raise ConfigError(
                    f"parameter '{name}' has shape {params[name].shape}, "
                    f"expected {shape}")
        self.config = config
        self.params = params

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


def build(config: ArchConfig, seed: int = 0) -> JointNetwork:
    """Initialize a network: weights uniform(-sqrt(6/fan_in), +sqrt(6/fan_in))
    drawn in canonical parameter order, biases zero."""
    rng = make_rng(seed, WEIGHTS)
    params: dict[str, Tensor] = {}
    for name, shape, fan_in in parameter_specs(config):
        if name.endswith(".b"):
            params[name] = Tensor(np.zeros(shape))
        else:
            limit = float(np.sqrt(6.0 / fan_in))
            params[name] = Tensor(rng.uniform(-limit, limit, shape))
    return JointNetwork(config, params)


@dataclass
class JointOutput:
    """Both heads of one forward pass plus the fused decoder maps
    (index i holds the stage-i fusion, spatial size S / 2^(n-i)). For a
    batch, each tensor has the batch as its leading axis."""

    class_probs: Tensor
    reconstruction: Tensor
    attention_maps: list[Tensor] = field(default_factory=list)


def _check_image(config: ArchConfig, image: Tensor) -> None:
    expected = (config.input_channels, config.input_size, config.input_size)
    if image.ndim not in (3, 4) or image.shape[-3:] != expected:
        raise ValueError(
            f"image shape {image.shape} does not match configured {expected} "
            f"or [N, *{expected}]")
    if image.data.min() < 0.0 or image.data.max() > 1.0:
        raise ValueError("image values must lie within [0, 1]")


def _encode(net: JointNetwork, image: Tensor) -> tuple[list[Tensor], Tensor]:
    """Run the encoder; returns the per-stage skips (tapped before each
    pooling) and the bottleneck output."""
    p = net.params
    x = image
    skips: list[Tensor] = []
    for k in range(1, net.config.n_stages + 1):
        x = relu(conv2d(x, p[f"enc{k}.conv1.w"], p[f"enc{k}.conv1.b"]))
        x = relu(conv2d(x, p[f"enc{k}.conv2.w"], p[f"enc{k}.conv2.b"]))
        skips.append(x)
        x = maxpool2x2(x)
    bottleneck = relu(conv2d(x, p["bottleneck.conv.w"], p["bottleneck.conv.b"]))
    return skips, bottleneck


def _classify(net: JointNetwork, bottleneck: Tensor) -> Tensor:
    p = net.params
    pooled = maxpool2x2(bottleneck)
    features = global_avg_pool(pooled)
    return softmax(dense(features, p["classifier.dense.w"], p["classifier.dense.b"]))


def forward_backbone(net: JointNetwork, image: Tensor) -> Tensor:
    """Classifier path only; the decoder is never touched. Returns [K]
    probabilities for one image, [N,K] for a batch."""
    _check_image(net.config, image)
    _, bottleneck = _encode(net, image)
    return _classify(net, bottleneck)


def forward_joint(net: JointNetwork, image: Tensor) -> JointOutput:
    """Full pass: class probabilities, reconstruction, and decoder maps."""
    _check_image(net.config, image)
    p = net.params
    skips, bottleneck = _encode(net, image)
    probs = _classify(net, bottleneck)

    n = net.config.n_stages
    x = bottleneck
    maps: list[Tensor] = []
    for i in range(1, n + 1):
        skip = skips[n - i]
        fused_skip = conv2d(skip, p[f"dec{i}.skip.w"], p[f"dec{i}.skip.b"])
        up = upsample2x2(x)
        if fused_skip.shape != up.shape:
            raise ValueError(
                f"fusion step {i}: skip conv produced {fused_skip.shape} but "
                f"upsampled map is {up.shape}")
        x = add(fused_skip, up)
        maps.append(x)
    recon = sigmoid(conv2d(x, p["recon.conv.w"], p["recon.conv.b"]))
    return JointOutput(probs, recon, maps)


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
