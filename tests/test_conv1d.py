"""Dilated convolution contract: padding, causality, oracles, gradients,
and wide rows split by output columns over the worker pool, the fused
plain residual block's epilogue included."""

import inspect
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import conv_reference, gradcheck, mean, narrow
from melsynth import pipeline
from melsynth.audio_frontend import PhonemeVocabulary
from melsynth.nn_core import Tensor, kernels, pool
from melsynth.nn_core import functional as F
from melsynth.student import StudentModel, synthesize, synthesize_batch

THRESHOLD = 2 * kernels.RANGE_COLUMNS  # the narrowest row that is split


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


@pytest.fixture
def one_blas_thread(monkeypatch):
    """Rows are split as under one BLAS thread, whatever BLAS runs here."""
    monkeypatch.setattr(kernels, "_blas_threads", lambda: 1)


def use_pool(monkeypatch, block_pools, workers):
    """The pool of `workers` threads in all; None keeps the default pool."""
    if workers:
        monkeypatch.setattr(pool, "worker_pool", lambda: block_pools[workers])


class TestColumnRanges:
    def test_ranges_are_cut_at_multiples_of_16(self, one_blas_thread,
                                               block_pools, monkeypatch):
        use_pool(monkeypatch, block_pools, 3)
        for width in (THRESHOLD, THRESHOLD + 17, 3 * kernels.RANGE_COLUMNS,
                      6406):
            ranges = kernels._column_ranges(width, 128, 128, np.float32)
            assert ranges[0][0] == 0 and ranges[-1][1] == width
            assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
            assert all(a % 16 == 0 for a, _ in ranges)
            assert all(b - a >= kernels.RANGE_COLUMNS - 16 for a, b in ranges)
            assert len(ranges) == min(3, width // kernels.RANGE_COLUMNS)

    @pytest.mark.parametrize("width,rows,dtype", [
        (THRESHOLD - 1, 128, np.float32),  # too narrow
        (6406, 128, np.float64),  # column slices change float64 bits
        (6406, 1, np.float32),  # a matrix-vector product in BLAS
    ])
    def test_not_split(self, one_blas_thread, block_pools, monkeypatch,
                       width, rows, dtype):
        use_pool(monkeypatch, block_pools, 3)
        assert kernels._column_ranges(width, rows, 128, dtype) == [(0, width)]

    @pytest.mark.parametrize("rows,depth", [(40, 40), (32, 32), (2, 1599)])
    def test_small_product_not_split(self, one_blas_thread, block_pools,
                                     monkeypatch, rows, depth):
        # OpenBLAS gives a range of a small product other bits than the
        # same columns of the whole one
        use_pool(monkeypatch, block_pools, 3)
        assert kernels._column_ranges(6406, rows, depth, np.float32) == [(0, 6406)]
        assert len(kernels._column_ranges(6406, 40, 80, np.float32)) == 3

    def test_one_worker_is_not_split(self, one_blas_thread, block_pools,
                                     monkeypatch):
        use_pool(monkeypatch, block_pools, 1)
        assert kernels._column_ranges(6406, 128, 128, np.float32) == [(0, 6406)]


def geometries():
    for dilation in (1, 2, 4, 8):
        for causal in (False, True):
            span = 2 * dilation  # kernel size 3
            yield dilation, span if causal else span // 2


class TestSplitMatchesOneGemmPerTap:
    """Every row width around the split thresholds and where the later taps
    start to add inside BLAS, both kernels that run `_conv`, bit for bit
    against one GEMM per tap on the calling thread. 40 -> 40 channels is
    below the smallest product that is split: split, it read other bits in
    two ranges than in the whole row."""

    WIDTHS = (list(range(kernels.RANGE_COLUMNS - 16, kernels.RANGE_COLUMNS + 33))
              + list(range(THRESHOLD - 16, THRESHOLD + 33))
              + list(range(3 * kernels.RANGE_COLUMNS - 16,
                           3 * kernels.RANGE_COLUMNS + 33)))

    @pytest.mark.parametrize("workers", [3, None], ids=["3", "default"])
    @pytest.mark.parametrize("cin,cout", [(40, 40), (40, 80), (80, 40), (128, 128)],
                             ids=["40x40", "40x80", "80x40", "128x128"])
    def test_forward_and_grad_input(self, one_blas_thread, block_pools,
                                    monkeypatch, workers, cin, cout):
        use_pool(monkeypatch, block_pools, workers)
        gen = np.random.default_rng(5)
        weight = gen.normal(scale=0.1, size=(cout, cin, 3)).astype(np.float32)
        bias = gen.normal(size=cout).astype(np.float32)
        row = gen.normal(size=(1, cin, max(self.WIDTHS))).astype(np.float32)
        for width in self.WIDTHS:
            x = row[:, :, :width]
            for dilation, left in geometries():
                span = 2 * dilation
                expected = conv_reference(x, weight, dilation, left)
                expected += bias[:, None]
                got = kernels.conv1d_forward(x, weight, bias, dilation, left=left)
                assert got.tobytes() == expected.tobytes(), (width, dilation, left)
                # x as the output gradient of a cout -> cin conv
                back = np.ascontiguousarray(weight.transpose(1, 0, 2))
                expected = conv_reference(x, weight[:, :, ::-1], dilation, span - left)
                got = kernels.conv1d_grad_input(x, back, dilation, left=left)
                assert got.tobytes() == expected.tobytes(), (width, dilation, left)
        split = cin * cout >= 40 * 80
        assert len(kernels._column_ranges(THRESHOLD, cout, cin, np.float32)) == (
            2 if split else 1)

    def test_batch_of_rows(self, one_blas_thread, block_pools, monkeypatch):
        # a k=1, 128 -> 80 conv over a batch of 16 wide rows, split by
        # columns like a batch-1 row
        use_pool(monkeypatch, block_pools, 3)
        gen = np.random.default_rng(6)
        x = gen.normal(size=(16, 128, 3 * kernels.RANGE_COLUMNS + 5)).astype(np.float32)
        weight = gen.normal(size=(80, 128, 1)).astype(np.float32)
        got = kernels.conv1d_forward(x, weight, np.zeros(80, np.float32), 1, left=0)
        assert got.tobytes() == conv_reference(x, weight, 1, 0).tobytes()


def kernel_outputs(x, weight, bias, dilation, left):
    """conv1d_forward on `x`, and conv1d_grad_input with `x` as the output
    gradient of the conv whose weight is `weight` transposed: both sum
    products over `x`'s channels."""
    back = np.ascontiguousarray(weight.transpose(1, 0, 2))
    return [kernels.conv1d_forward(x, weight, bias, dilation, left=left),
            kernels.conv1d_grad_input(x, back, dilation, left=left)]


def reference_outputs(x, weight, bias, dilation, left):
    """`kernel_outputs` through `conv_reference`: one GEMM per tap into a
    tap buffer, added, over the whole row on the calling thread."""
    forward = conv_reference(x, weight, dilation, left)
    forward += bias[:, None]
    span = (weight.shape[2] - 1) * dilation
    return [forward, conv_reference(x, weight[:, :, ::-1], dilation, span - left)]


def conv_of(cin, width, seed):
    """A (1, cin, width) row and a cin -> 128 channel, k = 3 conv."""
    gen = np.random.default_rng(seed)
    weight = gen.normal(scale=cin ** -0.5, size=(128, cin, 3)).astype(np.float32)
    bias = gen.normal(size=128).astype(np.float32)
    return gen.normal(size=(1, cin, width)).astype(np.float32), weight, bias


class TestTapsAccumulateInBlas:
    """A float32 batch-1 row of at least RANGE_COLUMNS columns adds each
    later tap into the output inside BLAS (sgemm with beta = 1); other
    convs add a tap buffer."""

    @pytest.mark.parametrize("workers", [3, None], ids=["3", "default"])
    @pytest.mark.parametrize("cin", [40, 80, 128, 384])
    def test_same_bytes_up_to_384_channels(self, one_blas_thread, block_pools,
                                           monkeypatch, workers, cin):
        use_pool(monkeypatch, block_pools, workers)
        for width in (kernels.RANGE_COLUMNS, THRESHOLD + 17):
            x, weight, bias = conv_of(cin, width, cin)
            for dilation, left in geometries():
                got = kernel_outputs(x, weight, bias, dilation, left)
                want = reference_outputs(x, weight, bias, dilation, left)
                for g, w in zip(got, want, strict=True):
                    assert g.tobytes() == w.tobytes(), (width, dilation, left)

    def test_512_channels_within_tolerance_at_any_worker_count(
            self, one_blas_thread, block_pools, monkeypatch):
        # OpenBLAS adds its K panels into C one by one: the last bits may
        # differ from one sum per tap added, but not between worker counts
        pools = {1: block_pools[1], 3: block_pools[3], None: pool.worker_pool()}
        x, weight, bias = conv_of(512, 3 * kernels.RANGE_COLUMNS + 5, 12)
        for dilation, left in geometries():
            want = reference_outputs(x, weight, bias, dilation, left)
            results = []
            for threads in pools.values():
                monkeypatch.setattr(pool, "worker_pool", lambda: threads)
                results.append(kernel_outputs(x, weight, bias, dilation, left))
            for got in results[1:]:
                for g, first in zip(got, results[0], strict=True):
                    assert g.tobytes() == first.tobytes(), (dilation, left)
            for g, w in zip(results[0], want, strict=True):
                assert np.abs(g - w).max() <= 1e-5 * np.abs(w).max(), (dilation, left)

    @pytest.mark.parametrize("layout", ["every other column", "time-major"])
    def test_strided_row_same_bytes_as_contiguous(self, one_blas_thread,
                                                  block_pools, monkeypatch,
                                                  layout):
        use_pool(monkeypatch, block_pools, 3)
        x, weight, bias = conv_of(128, THRESHOLD + 17, 13)
        if layout == "every other column":
            view = np.repeat(x, 2, axis=2)[:, :, ::2]
        else:
            view = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert view.strides[2] != 4 and np.array_equal(view, x)
        for dilation, left in geometries():
            got = kernel_outputs(view, weight, bias, dilation, left)
            want = kernel_outputs(x, weight, bias, dilation, left)
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes(), (dilation, left)

    def test_without_bundled_openblas_matmul_alone_unsplit(self, monkeypatch):
        # numpy built on another BLAS: no thread count to ask, no sgemm
        monkeypatch.setattr(kernels, "_openblas", lambda: None)
        assert kernels._blas_threads() is None
        assert kernels._column_ranges(6406, 128, 128, np.float32) == [(0, 6406)]
        seen = []
        sum_taps = kernels._sum_taps

        def spy(*part):
            seen.append(part[-1])
            return sum_taps(*part)

        monkeypatch.setattr(kernels, "_sum_taps", spy)
        x, weight, bias = conv_of(128, 6406, 14)
        for dilation, left in geometries():
            got = kernel_outputs(x, weight, bias, dilation, left)
            want = reference_outputs(x, weight, bias, dilation, left)
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes(), (dilation, left)
        assert seen and all(sgemm is None for sgemm in seen)

    def test_wide_row_allocates_no_tap_buffer(self):
        if kernels._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        x, weight, bias = conv_of(128, 6406, 15)
        kernels.conv1d_forward(x, weight, bias, 1, left=1)  # binds BLAS first
        tracemalloc.start()
        try:
            out = kernels.conv1d_forward(x, weight, bias, 1, left=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output and the contiguous taps, no second (1, cout, time) buffer
        assert peak < 1.1 * (out.nbytes + weight.nbytes), peak


def eval_block_reference(xd, weight, bias, scale, shift, running, keep,
                         dilation, left, eps=1e-5):
    """The eval-mode plain residual block as it ran before its epilogue
    moved into the conv's column-range jobs: one GEMM per tap, then bias,
    ReLU, batch-norm affine, residual and keep, each over the whole row on
    the calling thread. Returns (out, relu(conv), a, 1 / sd)."""
    r = conv_reference(xd[None], weight, dilation, left)[0]
    r += bias[:, None]
    np.maximum(r, 0, out=r)
    mean, var = running
    inv = 1.0 / np.sqrt(np.asarray(var, dtype=np.float64) + eps)
    a64 = scale * inv
    a = a64.astype(r.dtype)[:, None]
    out = r * a
    out += (shift - mean * a64).astype(r.dtype)[:, None]
    out += xd
    out *= keep
    return out, r, a, inv


def eval_block_gradients_reference(g, xd, weight, running, keep, dilation,
                                   left, r, a, inv):
    """The gradients (x, weight, bias, scale, shift) of the eval-mode block
    for the output gradient `g`, from `eval_block_reference`'s r, a and
    1 / sd, with every conv on the calling thread."""
    g = g * keep
    gshift = g.sum(axis=1)
    xhat = ((r - np.asarray(running[0], dtype=r.dtype)[:, None])
            * inv.astype(r.dtype)[:, None])
    gscale = np.einsum("ct,ct->c", g, xhat)
    gr = g * a
    gr *= r > 0
    gweight = kernels.conv1d_grad_weight(gr[None], xd[None], dilation, 3,
                                         left=left)
    span = 2 * dilation
    gx = g + conv_reference(gr[None], weight.transpose(1, 0, 2)[:, :, ::-1],
                            dilation, span - left)[0]
    return [gx, gweight, gr.sum(axis=1), gscale, gshift]


class TestPlainResidualEpilogueInRanges:
    """The eval-mode block runs its whole epilogue inside the conv's column
    ranges: bit for bit the sequence it replaced, at every row width around
    the split thresholds, with and without recorded gradients."""

    @staticmethod
    def block(width, gen):
        weight = gen.normal(scale=0.1, size=(128, 128, 3)).astype(np.float32)
        bias = gen.normal(scale=0.1, size=128).astype(np.float32)
        scale = gen.uniform(0.5, 1.5, 128).astype(np.float32)
        shift = gen.normal(scale=0.3, size=128).astype(np.float32)
        running = (gen.uniform(0.0, 0.5, 128).astype(np.float32),
                   gen.uniform(0.2, 1.0, 128).astype(np.float32))
        keep = (gen.random(width) > 0.1).astype(np.float32)
        xd = gen.normal(size=(128, width)).astype(np.float32) * keep
        return xd, weight, bias, scale, shift, running, keep

    @staticmethod
    def run(xd, weight, bias, scale, shift, running, keep, dilation, left,
            grad):
        tensors = [Tensor(a, requires_grad=grad)
                   for a in (xd, weight, bias, scale, shift)]
        out, _, _ = F.plain_residual(*tensors, keep, dilation=dilation,
                                     causal=left == 2 * dilation,
                                     running=running)
        return out, tensors

    def test_no_grad_matches_calling_thread(self, one_blas_thread, block_pools,
                                            monkeypatch):
        pools = {1: block_pools[1], 3: block_pools[3], None: pool.worker_pool()}
        widths = TestSplitMatchesOneGemmPerTap.WIDTHS
        params = self.block(max(widths), np.random.default_rng(8))
        for width in widths:
            xd, weight, bias, scale, shift, running, keep = params
            xd, keep = np.ascontiguousarray(xd[:, :width]), keep[:width]
            for dilation, left in geometries():
                expected, *_ = eval_block_reference(
                    xd, weight, bias, scale, shift, running, keep, dilation, left)
                for workers, threads in pools.items():
                    monkeypatch.setattr(pool, "worker_pool", lambda: threads)
                    got, _ = self.run(xd, weight, bias, scale, shift, running,
                                      keep, dilation, left, grad=False)
                    assert got.data.tobytes() == expected.tobytes(), (
                        width, dilation, left, workers)

    @pytest.mark.parametrize("workers", [1, 3, None], ids=["1", "3", "default"])
    def test_recorded_gradients_match_calling_thread(
            self, one_blas_thread, block_pools, monkeypatch, workers):
        # the epilogue writes beside the conv's output, which backward reads
        use_pool(monkeypatch, block_pools, workers)
        for width in (THRESHOLD, THRESHOLD + 17, 3 * kernels.RANGE_COLUMNS + 5):
            gen = np.random.default_rng(width)
            params = self.block(width, gen)
            g = gen.normal(size=(128, width)).astype(np.float32)
            for dilation, left in geometries():
                expected, r, a, inv = eval_block_reference(*params, dilation, left)
                out, tensors = self.run(*params, dilation, left, grad=True)
                assert out.data.tobytes() == expected.tobytes(), (width, dilation, left)
                F.sum(F.mul(out, g)).backward()
                want = eval_block_gradients_reference(
                    g, params[0], params[1], params[5], params[6], dilation,
                    left, r, a, inv)
                for t, w in zip(tensors, want, strict=True):
                    assert t.grad.tobytes() == w.tobytes(), (width, dilation, left)


@pytest.fixture(scope="module")
def full_student():
    return pipeline.build_student(pipeline.default_config(),
                                  len(PhonemeVocabulary()),
                                  np.random.default_rng(11))


def renders(model):
    """A 16-item render whose decoder row is split in three at 3 workers,
    and one item whose decoder row is split in two."""
    gen = np.random.default_rng(3)
    lengths = np.linspace(14, 98, 16).astype(int)
    ids = [gen.integers(1, 100, size=n) for n in lengths]
    durations = [gen.integers(1, 8, size=n) for n in lengths]
    mels, _ = synthesize_batch(model, ids, durations)
    one, _ = synthesize(model, ids[-1], np.full(98, 12))
    return mels + [one]


class TestRenderSameForAnyWorkerCount:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_the_default_pool(self, full_student, one_blas_thread,
                                      block_pools, monkeypatch, workers):
        default = renders(full_student)
        use_pool(monkeypatch, block_pools, workers)
        for expected, got in zip(default, renders(full_student), strict=True):
            assert expected.tobytes() == got.tobytes()

    @pytest.mark.parametrize("blas", [2, None], ids=["two", "absent"])
    def test_no_job_unless_blas_runs_one_thread(self, full_student,
                                                monkeypatch, blas):
        class Refusing:
            def submit(self, *args):
                raise AssertionError("a conv range was handed to the pool")

        monkeypatch.setattr(pool, "worker_pool", lambda: (Refusing(), 2))
        monkeypatch.setattr(kernels, "_blas_threads", lambda: blas)
        renders(full_student)
        # the stub does refuse a split render
        monkeypatch.setattr(kernels, "_blas_threads", lambda: 1)
        with pytest.raises(AssertionError, match="handed to the pool"):
            renders(full_student)


def test_render_calls_program_code_on_the_main_thread_only(
        full_student, one_blas_thread, block_pools, monkeypatch):
    # the perfbench tracer keeps one span stack: a span target entered from a
    # pool thread would corrupt a traced run. Only numpy runs in the jobs.
    use_pool(monkeypatch, block_pools, 3)
    off_main = []

    def watched(name, fn):
        def call(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return call

    targets = [(F, name, fn) for name, fn in vars(F).items()
               if inspect.isfunction(fn) and fn.__module__ == F.__name__]
    targets += [(StudentModel, name, fn) for name, fn in vars(StudentModel).items()
                if inspect.isfunction(fn)]
    targets += [(kernels, "conv1d_forward", kernels.conv1d_forward)]
    for owner, name, fn in targets:
        monkeypatch.setattr(owner, name, watched(name, fn))
    ran_on = set()
    sum_taps = kernels._sum_taps

    def spy(*part):
        ran_on.add(threading.current_thread() is threading.main_thread())
        return sum_taps(*part)

    monkeypatch.setattr(kernels, "_sum_taps", spy)
    renders(full_student)
    assert ran_on == {True, False}  # the convs did split
    assert off_main == []


def test_more_ranges_than_cores_under_frequent_switches(one_blas_thread,
                                                         monkeypatch):
    # five ranges on four pool threads, the interpreter switching threads
    # every 10 us: a range written twice or lost would change the bits
    threads = ThreadPoolExecutor(4)
    monkeypatch.setattr(pool, "worker_pool", lambda: (threads, 5))
    gen = np.random.default_rng(7)
    weight = gen.normal(scale=0.1, size=(128, 128, 3)).astype(np.float32)
    bias = np.zeros(128, np.float32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for width in (5 * kernels.RANGE_COLUMNS, 6406):
            x = gen.normal(size=(1, 128, width)).astype(np.float32)
            expected = conv_reference(x, weight, 4, 4)
            expected += bias[:, None]
            expected = expected.tobytes()
            assert len(kernels._column_ranges(width, 128, 128, np.float32)) == 5
            for _ in range(10):
                got = kernels.conv1d_forward(x, weight, bias, 4, left=4)
                assert got.tobytes() == expected
    finally:
        sys.setswitchinterval(interval)
        threads.shutdown()


class TestBlasThreads:
    def test_answers_one_when_pinned(self):
        if kernels._blas_threads() is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        code = ("from melsynth.nn_core import kernels; "
                "print(kernels._blas_threads())")
        src = Path(kernels.__file__).resolve().parents[2]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "1"


def test_import_starts_no_thread():
    code = ("import sys, threading, melsynth, melsynth.pipeline, melsynth.cli; "
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    src = Path(kernels.__file__).resolve().parents[2]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          text=True, check=True)
    assert done.stdout.split() == ["False", "1"]


def check_error_leaves_after_every_range_ends(monkeypatch, block_pools,
                                              workers, failing, stage):
    use_pool(monkeypatch, block_pools, workers)
    # the calling thread's range fails, or the first range a pool thread
    # computes, in its tap sum or in the epilogue that follows it in the
    # same job; with 1 worker the calling thread computes the whole row
    on_pool = failing == "pool" and workers != 1
    lock, running, started = threading.Lock(), [], threading.Event()
    failed, entered = [], []

    def spied(fn, may_fail):
        def spy(*part):
            token = object()
            with lock:
                running.append(token)
                entered.append(token)
                fails = may_fail and not failed and on_pool == (
                    threading.current_thread() is not threading.main_thread())
                if fails:
                    failed.append(token)
            try:
                if fails:
                    # fail while another range is being computed, where
                    # there are threads to compute one
                    started.wait(timeout=0.5)
                    raise RuntimeError("range failed")
                started.set()
                time.sleep(0.1)
                return fn(*part)
            finally:
                with lock:
                    running.remove(token)
        return spy

    monkeypatch.setattr(kernels, "_sum_taps",
                        spied(kernels._sum_taps, stage == "taps"))
    epilogue = spied(lambda view, a, b: None, stage == "epilogue")
    x = np.ones((1, 128, 6406), np.float32)
    weight = np.ones((128, 128, 3), np.float32)
    with pytest.raises(RuntimeError, match="range failed"):
        kernels.conv1d_forward(x, weight, np.zeros(128, np.float32), 1, left=1,
                               epilogue=epilogue)
    assert running == []
    calls = len(entered)
    time.sleep(0.3)  # no part of a job starts after the error has left
    assert len(entered) == calls


@pytest.mark.parametrize("failing", ["caller", "pool"])
@pytest.mark.parametrize("workers", [1, 3, None], ids=["1", "3", "default"])
def test_error_in_a_range_leaves_after_every_range_ends(
        one_blas_thread, block_pools, monkeypatch, workers, failing):
    check_error_leaves_after_every_range_ends(monkeypatch, block_pools,
                                              workers, failing, "taps")


@pytest.mark.parametrize("failing", ["caller", "pool"])
@pytest.mark.parametrize("workers", [1, 3, None], ids=["1", "3", "default"])
def test_error_in_an_epilogue_leaves_after_every_range_ends(
        one_blas_thread, block_pools, monkeypatch, workers, failing):
    check_error_leaves_after_every_range_ends(monkeypatch, block_pools,
                                              workers, failing, "epilogue")
