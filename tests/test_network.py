"""Architecture wiring: shapes, parameter bookkeeping, forward paths."""

import numpy as np
import pytest

from jointnet import (ArchConfig, ConfigError, Tensor, build,
                      extract_attention, forward_backbone, forward_joint,
                      parameter_count, parameter_specs)


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
        names = [n for n, _, _ in parameter_specs(ArchConfig())]
        assert names[0] == "enc1.conv1.w"
        assert names.index("bottleneck.conv.w") > names.index("enc2.conv2.b")
        assert names.index("classifier.dense.w") < names.index("dec1.skip.w")
        assert names[-1] == "recon.conv.b"

    def test_count_matches_built_network(self):
        arch = ArchConfig(base_channels=4)
        net = build(arch, seed=0)
        total = sum(p.size for p in net.params.values())
        assert total == parameter_count(arch)

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
        net = build(ArchConfig(), seed=0)
        for name, shape, fan_in in parameter_specs(net.config):
            if name.endswith(".w"):
                limit = np.sqrt(6.0 / fan_in)
                data = net.params[name].data
                assert data.min() > -limit and data.max() < limit

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
        out = forward_joint(build(arch, seed=1), _image(arch, seed=2))
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


class TestBatchedForward:
    """One [N,C,H,W] pass equals N single-image passes, stacked. The bound
    is float64 round-off (eps 2.2e-16) grown by the summation depth of the
    network, far below any learned difference."""

    RTOL = 1e-12

    def _batch(self, arch, n=3):
        return [_image(arch, seed=20 + i) for i in range(n)]

    def test_joint_matches_stacked_single_images(self):
        arch = ArchConfig()
        net = build(arch, seed=3)
        images = self._batch(arch)
        batched = forward_joint(net, Tensor(np.stack([im.data for im in images])))
        singles = [forward_joint(net, im) for im in images]
        pairs = [(batched.class_probs, [s.class_probs for s in singles]),
                 (batched.reconstruction, [s.reconstruction for s in singles])]
        pairs += [(m, [s.attention_maps[i] for s in singles])
                  for i, m in enumerate(batched.attention_maps)]
        for got, rows in pairs:
            assert got.shape == (len(images),) + rows[0].shape
            np.testing.assert_allclose(got.data, np.stack([r.data for r in rows]),
                                       rtol=self.RTOL, atol=0)

    def test_backbone_matches_stacked_single_images(self):
        arch = ArchConfig(n_stages=3, input_size=32, base_channels=4)
        net = build(arch, seed=3)
        images = self._batch(arch, n=2)
        batched = forward_backbone(net, Tensor(np.stack([im.data for im in images])))
        singles = np.stack([forward_backbone(net, im).data for im in images])
        np.testing.assert_allclose(batched.data, singles, rtol=self.RTOL, atol=0)

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
