"""Residual blocks, batch norm, linear/embedding layers, positional encoding."""

import numpy as np
import pytest

from conftest import gradcheck, narrow, tanh
from melsynth.nn_core import (
    BatchNormTemporal,
    Conv1d,
    Embedding,
    GatedResidualBlock,
    Linear,
    PlainResidualBlock,
    Tensor,
)
from melsynth.nn_core import functional as F


def to64(module):
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
    return module


class TestGatedResidualBlock:
    def test_zero_weights_is_identity(self, rng):
        block = GatedResidualBlock(3, 8, kernel_size=3, dilation=2, causal=True, rng=rng)
        for _, p in block.named_parameters():
            p.data[...] = 0.0
        x = Tensor(rng.normal(size=(2, 3, 6)))
        res = block(x)
        skip = res.data - x.data
        np.testing.assert_array_equal(res.data, x.data)
        assert not np.any(skip)

    def test_zero_preactivation_kills_skip(self, rng):
        # tanh(0) * sigmoid(0) = 0, so any projection weight still yields 0
        block = GatedResidualBlock(1, 2, kernel_size=1, dilation=1, causal=False, rng=rng)
        block.conv.weight.data[...] = 0.0
        block.conv.bias.data[...] = 0.0
        block.proj.weight.data[...] = 7.5
        block.proj.bias.data[...] = 0.0
        res = block(Tensor(np.array([[[2.0]]])))
        skip = res.data - 2.0
        np.testing.assert_allclose(skip, 0.0)
        np.testing.assert_allclose(res.data, 2.0)

    def test_matches_straight_line_composition(self, rng):
        block = GatedResidualBlock(2, 6, kernel_size=3, dilation=1, causal=False, rng=rng)
        x = Tensor(rng.normal(size=(1, 2, 8)))
        res = block(x)
        skip = res.data - x.data

        z = F.conv1d(x, block.conv.weight, block.conv.bias, dilation=1, causal=False)
        gated = F.mul(tanh(narrow(z, 1, 0, 3)), F.sigmoid(narrow(z, 1, 3, 3)))
        skip_ref = F.conv1d(gated, block.proj.weight, block.proj.bias)
        np.testing.assert_allclose(skip, skip_ref.data, atol=1e-6)
        np.testing.assert_allclose(res.data, x.data + skip_ref.data, atol=1e-6)

    def test_odd_gate_channels_rejected(self, rng):
        with pytest.raises(ValueError, match="even"):
            GatedResidualBlock(2, 5, kernel_size=3, dilation=1, causal=False, rng=rng)

    def test_gradients(self, rng):
        block = to64(GatedResidualBlock(2, 4, kernel_size=3, dilation=2, causal=True, rng=rng))
        x = Tensor(rng.normal(size=(1, 2, 6)).astype(np.float64), requires_grad=True)
        params = [x] + block.parameters()

        def loss():
            res = block(x)
            skip = F.sub(res, x)
            return F.add(F.mul(res, res).mean(), F.abs_(F.add(skip, 0.3)).mean())

        gradcheck(loss, params)


class TestBatchNormTemporal:
    def test_normalized_input_is_fixed_point(self, rng):
        bn = BatchNormTemporal(3)
        x = rng.normal(size=(4, 3, 10))
        x -= x.mean(axis=(0, 2), keepdims=True)
        x /= x.std(axis=(0, 2), keepdims=True)
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_constant_channel_becomes_shift(self):
        bn = BatchNormTemporal(2)
        bn.shift.data[:] = [0.5, -1.0]
        x = np.full((3, 2, 4), 7.0)
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data[:, 0], 0.5, atol=1e-3)
        np.testing.assert_allclose(out.data[:, 1], -1.0, atol=1e-3)

    def test_train_mode_moments(self, rng):
        bn = BatchNormTemporal(3)
        out = bn(Tensor(rng.normal(loc=2.0, scale=3.0, size=(2, 3, 8)))).data
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_running_stats_track_batches(self, rng):
        bn = BatchNormTemporal(1)
        x = rng.normal(loc=5.0, size=(8, 1, 16))
        for _ in range(60):
            bn(Tensor(x))
        assert abs(bn.running_mean[0] - x.mean()) < 0.05

    def test_running_update_in_place_matches_rebinding(self, rng):
        # the update used to rebind each statistic to (1 - m) * r + m * x;
        # in place it must give the same float32 values, bit for bit
        bn = BatchNormTemporal(4)
        arrays = [bn.running_mean, bn.running_var]
        mean, var = arrays[0].copy(), arrays[1].copy()
        m = bn.momentum
        for count in (2, 7, 48, 3):
            batch_mean = rng.normal(size=4).astype(np.float32)
            batch_var = rng.uniform(0.1, 3.0, size=4).astype(np.float32)
            bn.update_running(batch_mean, batch_var, count)
            mean = (1 - m) * mean + m * batch_mean
            var = (1 - m) * var + m * (batch_var * (count / (count - 1)))
            assert bn.running_mean is arrays[0] and bn.running_var is arrays[1]
            assert bn.running_mean.dtype == np.float32
            np.testing.assert_array_equal(bn.running_mean.view(np.uint32),
                                          mean.view(np.uint32))
            np.testing.assert_array_equal(bn.running_var.view(np.uint32),
                                          var.view(np.uint32))

    def test_eval_mode_is_deterministic_affine(self, rng):
        bn = BatchNormTemporal(2)
        bn(Tensor(rng.normal(size=(4, 2, 6))))  # populate running stats
        bn.eval()
        x = rng.normal(size=(1, 2, 5))
        a = bn(Tensor(x)).data
        b = bn(Tensor(x)).data
        np.testing.assert_array_equal(a, b)
        # affine in x: f(2x) - f(x) == f(x) - f(0) per channel/time cell
        f0 = bn(Tensor(np.zeros_like(x))).data
        f2 = bn(Tensor(2 * x)).data
        np.testing.assert_allclose(f2 - a, a - f0, atol=1e-5)

    def test_train_needs_two_cells(self):
        bn = BatchNormTemporal(1)
        with pytest.raises(ValueError):
            bn(Tensor(np.ones((1, 1, 1))))

    def test_gradients(self, rng):
        bn = to64(BatchNormTemporal(2))
        x = Tensor(rng.normal(size=(2, 2, 5)).astype(np.float64), requires_grad=True)

        def loss():
            y = bn(x)
            return F.mul(y, F.sigmoid(y)).mean()

        gradcheck(loss, [x, bn.scale, bn.shift])


class TestPlainResidualBlock:
    def test_composition(self, rng):
        block = PlainResidualBlock(3, kernel_size=3, dilation=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 7)))
        out = block(x)
        ref = F.add(x, block.norm(F.relu(block.conv(x))))
        np.testing.assert_allclose(out.data, ref.data, atol=1e-6)

    def test_gradients(self, rng):
        block = to64(PlainResidualBlock(2, kernel_size=3, dilation=1, rng=rng))
        x = Tensor(rng.normal(size=(2, 2, 5)).astype(np.float64), requires_grad=True)

        def loss():
            return F.mul(block(x), 0.5).mean()

        gradcheck(loss, [x] + block.parameters())


class TestLinearAndEmbedding:
    def test_identity_linear(self, rng):
        lin = Linear(3, 3, rng=rng)
        lin.weight.data = np.eye(3, dtype=np.float32)
        lin.bias.data[:] = 0.0
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        np.testing.assert_allclose(lin(Tensor(x)).data, x, atol=1e-7)

    def test_matches_per_step_matvec(self, rng):
        lin = Linear(4, 2, rng=rng)
        x = rng.normal(size=(2, 4, 5)).astype(np.float32)
        out = lin(Tensor(x)).data
        for b in range(2):
            for t in range(5):
                ref = lin.weight.data @ x[b, :, t] + lin.bias.data
                np.testing.assert_allclose(out[b, :, t], ref, atol=1e-6)

    def test_linear_channel_mismatch(self, rng):
        lin = Linear(4, 2, rng=rng)
        with pytest.raises(ValueError, match="channel mismatch"):
            lin(Tensor(np.zeros((1, 3, 5))))

    def test_embedding_shape_and_grad(self, rng):
        emb = Embedding(5, 4, rng=rng)
        emb.weight.data = emb.weight.data.astype(np.float64)
        ids = np.array([[1, 1, 3]])

        def loss():
            return F.mul(emb(ids), 2.0).mean()

        gradcheck(loss, [emb.weight])
        assert emb(ids).shape == (1, 4, 3)

    def test_linear_gradients(self, rng):
        lin = to64(Linear(3, 2, rng=rng))
        x = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float64), requires_grad=True)

        def loss():
            return tanh(lin(x)).mean()

        gradcheck(loss, [x, lin.weight, lin.bias])


class TestPositionalEncoding:
    def test_position_zero_rows(self):
        table = F.sinusoid_table(np.arange(3), 6)
        np.testing.assert_allclose(table[0::2, 0], 0.0, atol=1e-7)
        np.testing.assert_allclose(table[1::2, 0], 1.0, atol=1e-7)

    def test_range(self):
        table = F.sinusoid_table(np.arange(50) + 13, 8)
        assert table.min() >= -1.0 and table.max() <= 1.0

    def test_matches_scalar_formula(self):
        dim, length = 4, 3
        table = F.sinusoid_table(np.arange(length), dim)
        for pos in range(length):
            for i in range(dim // 2):
                angle = pos / 10000 ** (2 * i / dim)
                assert abs(table[2 * i, pos] - np.sin(angle)) < 1e-7
                assert abs(table[2 * i + 1, pos] - np.cos(angle)) < 1e-7

    def test_fractional_positions(self):
        table = F.sinusoid_table(np.array([0.5, 2.25]), 4)
        assert abs(table[0, 0] - np.sin(0.5)) < 1e-7
        assert abs(table[1, 1] - np.cos(2.25)) < 1e-7

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            F.sinusoid_table(np.arange(3), 5)
