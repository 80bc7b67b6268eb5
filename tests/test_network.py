"""Architecture wiring: shapes, parameter bookkeeping, forward paths."""

import math

import numpy as np
import pytest

from jointnet import (ArchConfig, ConfigError, JointNetwork, Tensor, TrainConfig, build,
                      extract_attention, forward_backbone, forward_joint,
                      parameter_specs, synth_generate, train)
from jointnet.network import stacked


def _image(arch: ArchConfig, seed: int = 0) -> Tensor:
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0.0, 1.0,
                              (arch.input_channels, arch.input_size, arch.input_size)))


class TestArchConfig:
    def test_defaults_valid(self):
        arch = ArchConfig()
        assert arch.n_stages == 2
        assert arch.bottleneck_channels == 16

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError, match=r"2\^\(n_stages\+1\)"):
            ArchConfig(n_stages=2, input_size=20)

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigError):
            ArchConfig(n_stages=3, input_size=8)

    def test_bad_class_count_rejected(self):
        with pytest.raises(ConfigError, match="n_classes"):
            ArchConfig(n_classes=1)

    def test_stage_channels_double(self):
        arch = ArchConfig(base_channels=8, n_stages=3, input_size=64)
        assert [arch.stage_channels(k) for k in (1, 2, 3)] == [8, 16, 32]


class TestParameters:
    def test_canonical_order(self):
        names = [n for n, _ in parameter_specs(ArchConfig())]
        assert names[0] == "enc1.conv1.w"
        assert names.index("bottleneck.conv.w") > names.index("enc2.conv2.b")
        assert names.index("classifier.dense.w") < names.index("dec1.skip.w")
        assert names[-1] == "recon.conv.b"

    def test_count_matches_built_network(self):
        arch = ArchConfig(base_channels=4)
        net = build(arch, seed=0)
        total = sum(p.size for p in net.params.values())
        assert total == sum(math.prod(shape) for _, shape in parameter_specs(arch))

    # Each width makes numpy refuse one parameter before it touches memory:
    # more bytes than the address space, or more than numpy's size limit.
    @pytest.mark.parametrize("widths, name, shape", [
        ({"base_channels": 10 ** 17, "input_channels": 1},
         "enc1.conv1.w", (10 ** 17, 1, 3, 3)),
        ({"base_channels": 10 ** 18}, "enc1.conv1.w", (10 ** 18, 3, 3, 3)),
        ({"input_channels": 10 ** 17}, "enc1.conv1.w", (8, 10 ** 17, 3, 3)),
        ({"n_classes": 10 ** 16}, "classifier.dense.w", (10 ** 16, 16)),
        ({"n_classes": 10 ** 18}, "classifier.dense.w", (10 ** 18, 16)),
    ])
    def test_unallocatable_width_is_a_config_error(self, widths, name, shape):
        with pytest.raises(ConfigError) as caught:
            build(ArchConfig(**widths))
        assert f"'{name}' of shape {shape}" in str(caught.value)

    def test_build_is_deterministic(self):
        a = build(ArchConfig(), seed=3)
        b = build(ArchConfig(), seed=3)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seeds_differ(self):
        a = build(ArchConfig(), seed=0)
        b = build(ArchConfig(), seed=1)
        assert not np.array_equal(a.params["enc1.conv1.w"].data,
                                  b.params["enc1.conv1.w"].data)

    def test_biases_start_at_zero(self):
        net = build(ArchConfig(), seed=0)
        for name, p in net.params.items():
            if name.endswith(".b"):
                assert np.all(p.data == 0.0)

    def test_weights_within_fan_in_limit(self):
        # fan_in of each weight of ArchConfig(): C_in*3*3 for the 3x3 convs,
        # D = 16 for the dense layer, C_in for the 1x1 reconstruction conv
        fan_ins = {"enc1.conv1.w": 27, "enc1.conv2.w": 72, "enc2.conv1.w": 72,
                   "enc2.conv2.w": 144, "bottleneck.conv.w": 144,
                   "classifier.dense.w": 16, "dec1.skip.w": 144,
                   "dec2.skip.w": 72, "recon.conv.w": 16}
        net = build(ArchConfig(), seed=0)
        assert sorted(fan_ins) == sorted(n for n in net.params if n.endswith(".w"))
        for name, fan_in in fan_ins.items():
            limit = np.sqrt(6.0 / fan_in)
            data = net.params[name].data
            assert data.min() > -limit and data.max() < limit
            # and spans it: a smaller limit (a larger fan_in) would not
            assert np.abs(data).max() > 0.8 * limit

    def test_parameter_groups_partition(self):
        net = build(ArchConfig(), seed=0)
        groups = net.parameter_groups()
        combined = groups["encoder"] + groups["classifier"] + groups["decoder"]
        assert sorted(combined) == sorted(net.params)
        assert "bottleneck.conv.w" in groups["encoder"]
        assert "recon.conv.w" in groups["decoder"]
        assert groups["classifier"] == ["classifier.dense.w", "classifier.dense.b"]


class TestForward:
    @pytest.mark.parametrize("n_stages", [1, 2, 3])
    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_joint_shapes(self, n_stages, size):
        """Decoder map i sits at input/2^(n-i); reconstruction matches input."""
        arch = ArchConfig(n_stages=n_stages, input_size=size, base_channels=4)
        net = build(arch, seed=0)
        out = forward_joint(net, _image(arch))
        assert out.class_probs.shape == (arch.n_classes,)
        assert out.reconstruction.shape == _image(arch).shape
        assert len(out.attention_maps) == n_stages
        for i, m in enumerate(out.attention_maps, start=1):
            expected_spatial = size // 2 ** (n_stages - i)
            assert m.shape == (arch.bottleneck_channels, expected_spatial,
                               expected_spatial)

    def test_probabilities_normalized(self):
        arch = ArchConfig()
        out = forward_joint(build(arch, seed=1, dtype=np.float64), _image(arch, seed=2))
        assert abs(out.class_probs.data.sum() - 1.0) <= 1e-12
        assert np.all(out.class_probs.data >= 0.0)

    def test_reconstruction_in_unit_interval(self):
        arch = ArchConfig()
        out = forward_joint(build(arch, seed=1), _image(arch, seed=2))
        assert out.reconstruction.data.min() >= 0.0
        assert out.reconstruction.data.max() <= 1.0

    def test_backbone_matches_joint_class_head(self):
        """Both paths share the encoder and classifier exactly."""
        arch = ArchConfig()
        net = build(arch, seed=4)
        image = _image(arch, seed=5)
        joint = forward_joint(net, image)
        backbone = forward_backbone(net, image)
        np.testing.assert_array_equal(joint.class_probs.data, backbone.data)

    def test_wrong_image_shape_rejected(self):
        net = build(ArchConfig(), seed=0)
        with pytest.raises(ValueError, match="shape"):
            forward_joint(net, Tensor(np.zeros((3, 16, 16))))

    def test_out_of_range_image_rejected(self):
        net = build(ArchConfig(), seed=0)
        bad = np.zeros((3, 32, 32))
        bad[0, 0, 0] = 1.5
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            forward_joint(net, Tensor(bad))

    def test_range_checked_before_the_cast(self):
        """1 + 1e-12 rounds to 1.0 in float32; a float32 network still
        refuses the float64 image that holds it."""
        net = build(ArchConfig(), seed=0, dtype=np.float32)
        bad = np.zeros((3, 32, 32))
        bad[0, 0, 0] = 1.0 + 1e-12
        assert np.float32(bad[0, 0, 0]) == 1.0
        for forward in (forward_joint, forward_backbone):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                forward(net, Tensor(bad))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_joint_output_holds_the_cast_image(self, dtype):
        """``out.image``, the reconstruction's target, is the input in the
        network's dtype: one cast copy of a float64 image for a float32
        network, and the input itself when the dtypes already match."""
        arch = ArchConfig()
        net = build(arch, seed=0, dtype=dtype)
        image = _image(arch)
        out = forward_joint(net, image)
        assert out.image.data.dtype == dtype
        np.testing.assert_array_equal(out.image.data, image.data.astype(dtype))
        same = Tensor(image.data.astype(dtype))
        assert forward_joint(net, same).image is same


class TestBatchedForward:
    """One [N,C,H,W] pass equals N single-image passes, stacked. In float64
    the bound is round-off (eps 2.2e-16) grown by the summation depth of
    the network, far below any learned difference. In float32 it is
    stated in float32 ulps: both dtypes measured at most 5 ulps apart
    (the class probabilities; the maps and the reconstruction were equal),
    and ``MAX_ULP_FLOAT32`` leaves 3x of that."""

    RTOL = 1e-12
    MAX_ULP_FLOAT32 = 16

    def _batch(self, arch, n=3):
        return [_image(arch, seed=20 + i) for i in range(n)]

    def _assert_rows(self, got, want, dtype):
        assert got.dtype == want.dtype == dtype
        if dtype == np.float64:
            np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0)
        else:
            np.testing.assert_array_max_ulp(got, want, maxulp=self.MAX_ULP_FLOAT32)

    def _joint(self, dtype):
        arch = ArchConfig()
        net = build(arch, seed=3, dtype=dtype)
        images = self._batch(arch)
        batched = forward_joint(net, Tensor(np.stack([im.data for im in images])))
        singles = [forward_joint(net, im) for im in images]
        pairs = [(batched.class_probs, [s.class_probs for s in singles]),
                 (batched.reconstruction, [s.reconstruction for s in singles])]
        pairs += [(m, [s.attention_maps[i] for s in singles])
                  for i, m in enumerate(batched.attention_maps)]
        for got, rows in pairs:
            assert got.shape == (len(images),) + rows[0].shape
            self._assert_rows(got.data, np.stack([r.data for r in rows]), dtype)

    def _backbone(self, dtype):
        arch = ArchConfig(n_stages=3, input_size=32, base_channels=4)
        net = build(arch, seed=3, dtype=dtype)
        images = self._batch(arch, n=2)
        batched = forward_backbone(net, Tensor(np.stack([im.data for im in images])))
        singles = np.stack([forward_backbone(net, im).data for im in images])
        self._assert_rows(batched.data, singles, dtype)

    def test_joint_matches_stacked_single_images(self):
        self._joint(np.float64)

    def test_backbone_matches_stacked_single_images(self):
        self._backbone(np.float64)

    def test_joint_matches_stacked_single_images_float32(self):
        self._joint(np.float32)

    def test_backbone_matches_stacked_single_images_float32(self):
        self._backbone(np.float32)

    def test_batch_with_wrong_image_shape_rejected(self):
        net = build(ArchConfig(), seed=0)
        with pytest.raises(ValueError, match="shape"):
            forward_joint(net, Tensor(np.zeros((2, 3, 16, 16))))
        with pytest.raises(ValueError, match="shape"):
            forward_backbone(net, Tensor(np.zeros((1, 2, 3, 32, 32))))

    def test_attention_needs_a_single_image_pass(self):
        arch = ArchConfig()
        out = forward_joint(build(arch, seed=0),
                            Tensor(np.stack([_image(arch).data] * 2)))
        with pytest.raises(ValueError, match="one image"):
            extract_attention(out, 1)


class TestStackedForward:
    """A stack of F networks forwards an [F, N, C, S, S] batch, model f's
    batch through model f's parameters, bit for bit as model f alone."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_joint_outputs_are_each_models_own(self, dtype):
        arch = ArchConfig()
        nets = [build(arch, seed=f, dtype=dtype) for f in range(2)]
        rng = np.random.default_rng(31)
        images = rng.uniform(0.0, 1.0, (2, 4, 3, 32, 32))
        out = forward_joint(stacked(nets), Tensor(images))
        for f, net in enumerate(nets):
            alone = forward_joint(net, Tensor(images[f]))
            for got, want in ([(out.class_probs, alone.class_probs),
                               (out.reconstruction, alone.reconstruction),
                               (out.image, alone.image)]
                              + list(zip(out.attention_maps, alone.attention_maps))):
                assert got.data.dtype == want.data.dtype == dtype
                assert got.data[f].tobytes() == want.data.tobytes()

    def test_backbone_outputs_are_each_models_own(self):
        arch = ArchConfig(n_stages=3, input_size=32, base_channels=4)
        nets = [build(arch, seed=f) for f in range(3)]
        images = np.random.default_rng(37).uniform(0.0, 1.0, (3, 2, 3, 32, 32))
        probs = forward_backbone(stacked(nets), Tensor(images))
        for f, net in enumerate(nets):
            assert probs.data[f].tobytes() == forward_backbone(
                net, Tensor(images[f])).data.tobytes()

    def test_stack_of_one_is_the_network(self):
        """A stack of one forwards images[None] as the network forwards
        images, bit for bit; ``train`` takes the network, not a stack."""
        net = build(ArchConfig(), seed=0)
        one = stacked([net])
        assert one.stack == (1,) and net.stack == ()
        images = np.random.default_rng(41).uniform(0.0, 1.0, (4, 3, 32, 32))
        out, alone = (forward_joint(one, Tensor(images[None])),
                      forward_joint(net, Tensor(images)))
        for got, want in ([(out.class_probs, alone.class_probs),
                           (out.reconstruction, alone.reconstruction),
                           (out.image, alone.image)]
                          + list(zip(out.attention_maps, alone.attention_maps))):
            assert got.data.shape == (1,) + want.data.shape
            assert got.data[0].tobytes() == want.data.tobytes()
        assert forward_backbone(one, Tensor(images[None])).data[0].tobytes() == (
            forward_backbone(net, Tensor(images)).data.tobytes())
        data = synth_generate(1, 32, seed=0)
        with pytest.raises(ValueError, match="stack of 1"):
            train(one, data, data, TrainConfig(epochs=1))

    @pytest.mark.parametrize("shape", [(4, 3, 32, 32), (3, 4, 3, 32, 32), (3, 32, 32)])
    def test_stack_rejects_a_batch_without_its_model_axis(self, shape):
        net = stacked([build(ArchConfig(), seed=f) for f in range(2)])
        with pytest.raises(ValueError, match="shape"):
            forward_joint(net, Tensor(np.zeros(shape)))

    def test_parameters_of_different_stacks_rejected(self):
        nets = [build(ArchConfig(), seed=f) for f in range(2)]
        params = dict(stacked(nets).params)
        params["recon.conv.b"] = nets[0].params["recon.conv.b"]
        with pytest.raises(ConfigError, match="recon.conv.b"):
            JointNetwork(ArchConfig(), params)


class TestAttention:
    def test_normalized_to_unit_range(self):
        arch = ArchConfig()
        out = forward_joint(build(arch, seed=0), _image(arch, seed=1))
        for stage in (1, 2):
            att = extract_attention(out, stage)
            assert att.shape[0] == 1
            assert att.data.min() == 0.0
            assert att.data.max() == 1.0

    def test_stage_out_of_range_rejected(self):
        arch = ArchConfig()
        out = forward_joint(build(arch, seed=0), _image(arch, seed=1))
        with pytest.raises(ValueError, match="stage"):
            extract_attention(out, 3)
