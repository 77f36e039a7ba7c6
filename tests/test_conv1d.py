"""Dilated convolution contract: padding, causality, oracles, gradients."""

import numpy as np
import pytest

from conftest import gradcheck, mean, narrow
from melsynth.nn_core import Tensor
from melsynth.nn_core import functional as F


def conv(x, w, b, dilation=1, causal=False):
    return F.conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation, causal=causal).data


def brute_force_conv(x, w, dilation, causal):
    """Direct sliding-window evaluation with zero padding, one sample at a time."""
    batch, cin, time = x.shape
    cout, _, ksize = w.shape
    span = (ksize - 1) * dilation
    shift = span if causal else span // 2
    out = np.zeros((batch, cout, time))
    for bi in range(batch):
        for o in range(cout):
            for t in range(time):
                acc = 0.0
                for c in range(cin):
                    for k in range(ksize):
                        src = t + k * dilation - shift
                        if 0 <= src < time:
                            acc += w[o, c, k] * x[bi, c, src]
                out[bi, o, t] = acc
    return out


class TestForward:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(2, 1, 9))
        out = conv(x, np.ones((1, 1, 1)), np.zeros(1))
        np.testing.assert_allclose(out, x, atol=1e-7)

    def test_causal_impulse_stays_causal(self):
        x = np.zeros((1, 1, 12))
        x[0, 0, 5] = 1.0
        out = conv(x, np.ones((1, 1, 3)), np.zeros(1), dilation=2, causal=True)
        assert not np.any(out[0, 0, :5])
        np.testing.assert_array_equal(np.nonzero(out[0, 0])[0], [5, 7, 9])

    def test_dilation3_matches_window_sum(self):
        x = np.arange(1.0, 8.0).reshape(1, 1, 7)
        out = conv(x, np.ones((1, 1, 3)), np.zeros(1), dilation=3)
        ref = brute_force_conv(x, np.ones((1, 1, 3)), dilation=3, causal=False)
        np.testing.assert_allclose(out, ref, atol=1e-7)

    @pytest.mark.parametrize("dilation,causal", [(1, False), (2, True), (4, False), (3, True)])
    def test_random_matches_brute_force(self, rng, dilation, causal):
        x = rng.normal(size=(2, 3, 14))
        w = rng.normal(size=(4, 3, 3))
        out = conv(x, w, np.zeros(4), dilation=dilation, causal=causal)
        ref = brute_force_conv(x, w, dilation, causal)
        np.testing.assert_allclose(out, ref, atol=1e-5)

    def test_bias_added(self, rng):
        x = rng.normal(size=(1, 2, 5))
        w = np.zeros((3, 2, 1))
        out = conv(x, w, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(out[0, :, 0], [1.0, -2.0, 0.5], atol=1e-7)


class TestErrors:
    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv(np.zeros((1, 2, 4)), np.zeros((1, 3, 3)), np.zeros(1))


class TestGradients:
    @pytest.mark.parametrize("causal", [False, True])
    def test_finite_differences(self, rng, causal):
        x = Tensor(rng.normal(size=(2, 2, 7)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(scale=0.4, size=(3, 2, 3)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.normal(scale=0.2, size=3).astype(np.float64), requires_grad=True)

        def loss():
            y = F.conv1d(x, w, b, dilation=2, causal=causal)
            return mean(F.mul(y, y))

        gradcheck(loss, [x, w, b])

    @pytest.mark.parametrize("causal", [False, True])
    def test_finite_differences_input_shorter_than_reach(self, rng, causal):
        # 3 frames under a k=3, dilation-4 conv: two of the taps fall wholly
        # past the input's ends and read only zeros
        x = Tensor(rng.normal(size=(2, 2, 3)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(scale=0.4, size=(3, 2, 3)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.normal(scale=0.2, size=3).astype(np.float64), requires_grad=True)

        def loss():
            y = F.conv1d(x, w, b, dilation=4, causal=causal)
            return mean(F.mul(y, y))

        gradcheck(loss, [x, w, b])

    def test_causality_by_gradient_sparsity(self, rng):
        # d(out_t)/d(in_s) must vanish for s > t in a causal stack
        x = Tensor(rng.normal(size=(1, 1, 10)).astype(np.float64), requires_grad=True)
        w1 = Tensor(rng.normal(size=(1, 1, 3)).astype(np.float64), requires_grad=True)
        w2 = Tensor(rng.normal(size=(1, 1, 3)).astype(np.float64), requires_grad=True)
        b = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        t_probe = 4
        y = F.conv1d(F.conv1d(x, w1, b, dilation=1, causal=True),
                     w2, b, dilation=2, causal=True)
        F.sum(narrow(y, 2, t_probe, 1)).backward()
        assert not np.any(x.grad[0, 0, t_probe + 1:])

    def test_receptive_field_matches_analytic(self, rng):
        # two non-causal k=3 layers, dilations 1 and 4: halfwidth = 1 + 4 = 5
        x = Tensor(rng.normal(size=(1, 1, 16)).astype(np.float64), requires_grad=True)
        w1 = Tensor(rng.uniform(0.5, 1.0, size=(1, 1, 3)).astype(np.float64), requires_grad=True)
        w2 = Tensor(rng.uniform(0.5, 1.0, size=(1, 1, 3)).astype(np.float64), requires_grad=True)
        b = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        t_probe = 8
        y = F.conv1d(F.conv1d(x, w1, b, dilation=1), w2, b, dilation=4)
        F.sum(narrow(y, 2, t_probe, 1)).backward()
        touched = np.nonzero(x.grad[0, 0])[0]
        assert touched.min() == t_probe - 5
        assert touched.max() == t_probe + 5
