"""Tape autodiff: recording, backward, release, error states."""

import numpy as np
import pytest

from conftest import (div, filter1d_valid, gather_time, gradcheck, mean, narrow,
                      sqrt, tanh)
from melsynth.nn_core import AutodiffError, NonFiniteError, Tensor, no_grad
from melsynth.nn_core import functional as F


class TestBackward:
    def test_linear_function_grad_is_input(self):
        x = np.array([[1.0, -2.0, 3.0]])
        w = Tensor(np.array([[0.5, 0.25, -1.0]]), requires_grad=True)
        loss = F.sum(F.mul(w, x))
        loss.backward()
        np.testing.assert_array_equal(w.grad, x)

    def test_unused_parameter_has_zero_gradient(self):
        used = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        loss = F.sum(used)
        loss.backward()
        assert unused.grad is None or not np.any(unused.grad)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(AutodiffError):
            F.mul(x, 2.0).backward()

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = F.sum(F.mul(x, x))
        loss.backward()
        with pytest.raises(AutodiffError):
            loss.backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = F.sum(F.add(F.mul(x, 3.0), F.mul(x, x)))
        loss.backward()
        np.testing.assert_allclose(x.grad, [3.0 + 2.0 * 2.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            y = F.sum(F.mul(x, 2.0))
        assert not y.requires_grad
        y.backward()
        assert x.grad is None

    def test_detach_cuts_flow(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = F.mul(x, 2.0)
        loss = F.sum(F.mul(y.detach(), x))
        loss.backward()
        # only the direct use of x contributes: d/dx (6*x) where 6 is constant
        np.testing.assert_allclose(x.grad, [6.0])

    def test_check_finite_raises(self):
        t = Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            t.check_finite("unit test tensor")


class TestFiniteDifferences:
    def test_conv_sigmoid_mae_pipeline(self, rng):
        x = Tensor(rng.normal(size=(2, 1, 9)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(scale=0.5, size=(1, 1, 3)).astype(np.float64), requires_grad=True)
        b = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)

        def loss():
            pred = F.sigmoid(F.conv1d(x, w, b, dilation=1, causal=False))
            return mean(F.abs_(pred))  # target 0; sigmoid keeps residuals off the kink

        gradcheck(loss, [x, w, b])

    def test_linear_on_a_row(self, rng):
        # one (channels, width) row, as the student's duration head passes
        x = Tensor(rng.normal(size=(4, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        weights = rng.normal(size=(3, 7))

        def loss():
            return F.sum(F.mul(F.linear(x, w, b), weights))

        gradcheck(loss, [x, w, b])
        batch = F.linear(Tensor(x.data[None]), w, b).data
        np.testing.assert_allclose(F.linear(x, w, b).data, batch[0], rtol=1e-12)

    def test_broadcast_arithmetic(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float64), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3, 1)).astype(np.float64) + 3.0, requires_grad=True)

        def loss():
            return mean(div(F.mul(F.add(a, b), F.sub(a, 0.5)), b))

        gradcheck(loss, [a, b])

    def test_elementwise_chain(self, rng):
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 5)).astype(np.float64), requires_grad=True)

        def loss():
            return F.sum(F.mul(F.add(F.sigmoid(tanh(x)), 1.0), sqrt(x)))

        gradcheck(loss, [x])

    def test_softmax_matmul_attention_shape(self, rng):
        q = Tensor(rng.normal(size=(2, 4, 6)).astype(np.float64), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 4, 5)).astype(np.float64), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float64), requires_grad=True)

        def loss():
            scores = F.mul(F.matmul(F.transpose_last2(k), q), 1.0 / np.sqrt(4.0))
            att = F.softmax(scores, axis=1)
            ctx = F.matmul(v, att)
            return mean(F.mul(ctx, ctx))

        gradcheck(loss, [q, k, v])

    def test_gather_huber_reduce(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float64), requires_grad=True)
        idx = np.array([[0, 0, 1, 3, 3, 2], [1, 1, 1, 0, 2, 3]])

        def loss():
            y = gather_time(x, idx)
            return mean(F.huber(F.sub(y, 0.25), delta=0.5))

        gradcheck(loss, [x])

    def test_narrow_and_filter(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 10)).astype(np.float64), requires_grad=True)
        win = rng.uniform(0.1, 1.0, size=5)
        win /= win.sum()

        def loss():
            part = narrow(x, 1, 1, 2)
            smooth = filter1d_valid(part, win, axis=2)
            return mean(F.mul(smooth, smooth))

        gradcheck(loss, [x])


class TestOpSemantics:
    def test_softmax_columns_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 7)))
        s = F.softmax(x, axis=1)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-6)

    def test_gather_time_selects_columns(self):
        x = Tensor(np.arange(12.0).reshape(1, 2, 6))
        out = gather_time(x, np.array([[5, 0, 0]]))
        np.testing.assert_array_equal(out.data, [[[5.0, 0.0, 0.0], [11.0, 6.0, 6.0]]])

    def test_gather_time_range_checked(self):
        x = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(IndexError):
            gather_time(x, np.array([[4]]))

    def test_embedding_out_of_range(self):
        table = Tensor(np.eye(3), requires_grad=True)
        with pytest.raises(IndexError):
            F.embedding(table, np.array([[3]]))

    def test_embedding_one_hot_lookup(self):
        table = Tensor(np.eye(4), requires_grad=True)
        out = F.embedding(table, np.array([[2, 0]]))
        assert out.shape == (1, 4, 2)
        np.testing.assert_array_equal(out.data[0, :, 0], [0, 0, 1, 0])
        np.testing.assert_array_equal(out.data[0, :, 1], [1, 0, 0, 0])

    def test_filter1d_valid_matches_correlate(self, rng):
        x = rng.normal(size=(1, 2, 16))
        k = rng.normal(size=5)
        out = filter1d_valid(Tensor(x), k, axis=2)
        for c in range(2):
            ref = np.correlate(x[0, c], k, mode="valid")
            np.testing.assert_allclose(out.data[0, c], ref, atol=1e-10)
