"""k-GEMM conv kernels and the fused plain residual block against the code
they replace: the im2col kernels and the conv -> ReLU -> batch norm ->
residual add -> mask composition, both kept here as references."""

import copy
from pathlib import Path

import numpy as np
import pytest

from conftest import gradcheck, peek_config
from melsynth import pipeline, student
from melsynth.audio_frontend import PhonemeVocabulary
from melsynth.nn_core import PlainResidualBlock, RowLayout, Tensor, kernels, no_grad
from melsynth.nn_core import functional as F
from melsynth.student import PlainStack, StudentModel

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# references: the im2col kernels and the unfused block
# ---------------------------------------------------------------------------

def im2col_forward(xpad, weight, bias, dilation, out_time):
    batch, cin, _ = xpad.shape
    cout, _, ksize = weight.shape
    cols = np.empty((cin, ksize, batch, out_time), dtype=xpad.dtype)
    for k in range(ksize):
        off = k * dilation
        cols[:, k] = xpad[:, :, off:off + out_time].transpose(1, 0, 2)
    out = weight.reshape(cout, cin * ksize) @ cols.reshape(cin * ksize, batch * out_time)
    out += bias[:, None]
    return np.ascontiguousarray(out.reshape(cout, batch, out_time).transpose(1, 0, 2))


def im2col_grad_input(gout, weight, dilation, padded_time):
    batch, cout, out_time = gout.shape
    _, cin, ksize = weight.shape
    gcols = np.matmul(weight.reshape(cout, cin * ksize).T, gout)
    gcols = gcols.reshape(batch, cin, ksize, out_time)
    gxpad = np.zeros((batch, cin, padded_time), dtype=gout.dtype)
    for k in range(ksize):
        off = k * dilation
        gxpad[:, :, off:off + out_time] += gcols[:, :, k, :]
    return gxpad


def im2col_grad_weight(gout, xpad, dilation, ksize):
    batch, cin, _ = xpad.shape
    cout, out_time = gout.shape[1], gout.shape[2]
    cols = np.empty((batch, cin, ksize, out_time), dtype=xpad.dtype)
    for k in range(ksize):
        off = k * dilation
        cols[:, :, k, :] = xpad[:, :, off:off + out_time]
    gw = np.matmul(gout, cols.reshape(batch, cin * ksize, out_time).transpose(0, 2, 1))
    return gw.sum(axis=0).reshape(cout, cin, ksize)


def im2col_conv(x, conv):
    """Length-preserving conv of a (batch, channels, time) array, np.pad + im2col."""
    ksize = conv.weight.data.shape[2]
    span = (ksize - 1) * conv.dilation
    left = span if conv.causal else span // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (left, span - left)))
    return im2col_forward(xpad, conv.weight.data, conv.bias.data, conv.dilation, x.shape[2])


def unfused_stack(blocks, x, mask, conv=None):
    """The replaced PlainStack: F.add(x, norm(F.relu(conv(x)))), then the mask.

    conv=None runs the im2col reference conv (no gradient); otherwise
    conv(block, x) must return a Tensor.
    """
    for block in blocks:
        z = Tensor(im2col_conv(x.data, block.conv)) if conv is None else conv(block, x)
        x = F.add(x, block.norm(F.relu(z)))
        if mask is not None:
            x = F.mul(x, mask)
    return x


def batch_with_lengths(rng, channels, lengths, dtype=np.float32):
    """Masked (batch, channels, max(lengths)) input, zero past each length."""
    t_max = max(lengths)
    mask = np.zeros((len(lengths), 1, t_max), dtype=dtype)
    for i, n in enumerate(lengths):
        mask[i, 0, :n] = 1.0
    x = rng.normal(size=(len(lengths), channels, t_max)).astype(dtype) * mask
    return x, mask


def randomize_norms(blocks, rng):
    for block in blocks:
        c = block.norm.scale.data.shape[0]
        block.norm.scale.data[...] = rng.uniform(0.5, 1.5, c)
        block.norm.shift.data[...] = rng.normal(0.0, 0.3, c)
        block.norm.running_mean[...] = rng.uniform(0.0, 0.5, c)
        block.norm.running_var[...] = rng.uniform(0.2, 1.0, c)


def to64(module):
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
    return module


def peak_error(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def check_kernels_against_im2col(rng, time, ksize, dilation, left):
    """The kernels on an unpadded input against im2col on the np.pad'ded one."""
    span = (ksize - 1) * dilation
    x = rng.normal(size=(2, 5, time)).astype(np.float32)
    xpad = np.pad(x, ((0, 0), (0, 0), (left, span - left)))
    w = rng.normal(size=(4, 5, ksize)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)
    g = rng.normal(size=(2, 4, time)).astype(np.float32)
    pairs = [
        (kernels.conv1d_forward(x, w, b, dilation, left=left),
         im2col_forward(xpad, w, b, dilation, time)),
        (kernels.conv1d_grad_input(g, w, dilation, left=left),
         im2col_grad_input(g, w, dilation, xpad.shape[2])[:, :, left:left + time]),
        (kernels.conv1d_grad_weight(g, x, dilation, ksize, left=left),
         im2col_grad_weight(g, xpad, dilation, ksize)),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestKernels:
    @pytest.mark.parametrize("ksize,dilation", [(3, 1), (3, 2), (2, 3), (1, 1)])
    def test_match_im2col(self, rng, ksize, dilation):
        span = (ksize - 1) * dilation
        check_kernels_against_im2col(rng, 13, ksize, dilation, span // 2)

    @pytest.mark.parametrize("time", [1, 2, 4])
    @pytest.mark.parametrize("ksize", [2, 3, 4])
    @pytest.mark.parametrize("causal", [False, True])
    def test_input_shorter_than_reach(self, rng, time, ksize, causal):
        # dilation 5 puts some taps wholly past the input's ends
        span = (ksize - 1) * 5
        check_kernels_against_im2col(rng, time, ksize, 5, span if causal else span // 2)

    @pytest.mark.parametrize("causal", [False, True])
    def test_functional_conv_matches_im2col(self, rng, causal):
        from melsynth.nn_core import Conv1d
        conv = Conv1d(4, 6, 3, dilation=2, causal=causal, rng=rng)
        x = rng.normal(size=(3, 4, 9)).astype(np.float32)
        np.testing.assert_allclose(conv(Tensor(x)).data, im2col_conv(x, conv),
                                   rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# fused block against the composition
# ---------------------------------------------------------------------------

LENGTHS = (11, 4, 8)


class TestFusedParity:
    @pytest.mark.parametrize("training", [True, False])
    def test_stack_matches_unfused(self, rng, training):
        stack = PlainStack(6, 3, (1, 2, 4), rng)
        randomize_norms(stack.blocks, rng)
        stack.train(training)
        reference = copy.deepcopy(stack)
        x, mask = batch_with_lengths(rng, 6, LENGTHS)
        with no_grad():
            got = stack(Tensor(x), Tensor(mask)).data
            want = unfused_stack(reference.blocks, Tensor(x), Tensor(mask)).data
        assert peak_error(got, want) < 1e-5
        assert not np.any(got * (1 - mask))
        for block, ref in zip(stack.blocks, reference.blocks):
            for (_, got), (_, want) in zip(block.norm.named_buffers(),
                                           ref.norm.named_buffers()):
                np.testing.assert_allclose(got, want, atol=1e-5)

    @pytest.mark.parametrize("training", [True, False])
    def test_single_block_matches_unfused(self, rng, training):
        block = PlainResidualBlock(5, kernel_size=3, dilation=2, rng=rng)
        randomize_norms([block], rng)
        block.train(training)
        reference = copy.deepcopy(block)
        x = rng.normal(size=(2, 5, 7)).astype(np.float32)
        with no_grad():
            got = block(Tensor(x)).data
            want = unfused_stack([reference], Tensor(x), None).data
        assert peak_error(got, want) < 1e-5

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients_match_unfused(self, rng, training):
        stack = to64(PlainStack(3, 3, (1, 2), rng))
        randomize_norms(stack.blocks, rng)
        stack.train(training)
        reference = copy.deepcopy(stack)
        x, mask = batch_with_lengths(rng, 3, LENGTHS, np.float64)
        weights = rng.normal(size=x.shape)

        def grads(model, run):
            xt = Tensor(x, requires_grad=True)
            F.sum(F.mul(run(model, xt), weights)).backward()
            return [xt.grad] + [p.grad for p in model.parameters()]

        got = grads(stack, lambda m, xt: m(xt, mask))
        want = grads(reference, lambda m, xt: unfused_stack(
            m.blocks, xt, mask, conv=lambda block, h: block.conv(h)))
        # eval mode packs items to their lengths: frames past a length count
        # as zeros and get no gradient. Its running statistics are float32
        # buffers, which the unfused norm turns into a float32 1/sd.
        got[0] = got[0] * mask
        want[0] = want[0] * mask
        tol = 1e-9 if training else 1e-5
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=tol, atol=tol * 1e-1)

    def test_train_needs_two_frames(self, rng):
        block = PlainResidualBlock(2, kernel_size=3, dilation=1, rng=rng)
        with pytest.raises(ValueError, match="batch\\*time >= 2"):
            block(Tensor(np.ones((1, 2, 1), np.float32)))


class TestFusedGradcheck:
    @pytest.mark.parametrize("training", [True, False])
    def test_block_with_mask(self, rng, training):
        stack = to64(PlainStack(2, 3, (2,), rng))
        block = stack.blocks[0]
        randomize_norms([block], rng)
        stack.train(training)
        x, mask = batch_with_lengths(rng, 2, (5, 3), np.float64)
        # keep finite differences off the relu kink
        for seed in range(200):
            cand = np.random.default_rng(seed).normal(size=x.shape) * mask
            if np.min(np.abs(block.conv(Tensor(cand)).data)) > 0.05:
                break
        xt = Tensor(cand, requires_grad=True)
        weights = rng.normal(size=x.shape)

        def loss():
            # running statistics are updated by every train-mode call; hold
            # them fixed so each finite-difference evaluation is the same map
            saved = [buf.copy() for _, buf in block.norm.named_buffers()]
            out = F.mean(F.mul(stack(xt, mask), weights))
            for (_, buf), before in zip(block.norm.named_buffers(), saved):
                buf[...] = before
            return out

        gradcheck(loss, [xt] + block.parameters())

    @pytest.mark.parametrize("causal", [False, True])
    def test_plain_residual_op(self, rng, causal):
        # a row laid out by hand: guard 2, item of 4, guard 2, item of 3, guard 2
        keep = np.array([0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0.5, 0, 0], dtype=np.float64)
        frames = (keep > 0).astype(np.float64)
        x = Tensor(rng.normal(size=(2, 13)) * keep, requires_grad=True)
        w = Tensor(rng.normal(scale=0.5, size=(2, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(scale=0.1, size=2), requires_grad=True)
        scale = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        shift = Tensor(rng.normal(size=2), requires_grad=True)
        for running in (None, (np.array([0.2, 0.1]), np.array([0.5, 0.8]))):
            def loss():
                out, _, _ = F.plain_residual(x, w, b, scale, shift, keep, dilation=2,
                                             causal=causal, frames=frames,
                                             running=running)
                return F.mean(F.mul(out, out))

            gradcheck(loss, [x, w, b, scale, shift])


# ---------------------------------------------------------------------------
# packed layout
# ---------------------------------------------------------------------------

class TestPackedLayout:
    def test_eval_packs_true_lengths_train_keeps_padding(self, rng):
        x, mask = batch_with_lengths(rng, 2, LENGTHS)
        packed = RowLayout(Tensor(x), mask, guard=4, packed=True)
        assert packed.lengths == list(LENGTHS)
        assert packed.width == sum(LENGTHS) + 4 * (len(LENGTHS) - 1)
        padded = RowLayout(Tensor(x), mask, guard=4, packed=False)
        assert padded.width == 3 * max(LENGTHS) + 4 * 2
        assert padded.item.sum() == 3 * max(LENGTHS)
        assert padded.keep.sum() == sum(LENGTHS)
        row = packed.pack(Tensor(x))
        np.testing.assert_array_equal(packed.unpack(row).data, x)

    def test_one_item_row_is_the_item(self, rng):
        x, mask = batch_with_lengths(rng, 2, (9,))
        layout = RowLayout(Tensor(x), mask, guard=4, packed=True)
        assert layout.width == 9
        assert np.all(layout.item == 1.0)
        np.testing.assert_array_equal(layout.pack(Tensor(x)).data, x[0])

    def test_mask_with_hole_rejected(self, rng):
        x, mask = batch_with_lengths(rng, 2, LENGTHS)
        mask[1, 0, 2] = 0.0  # a zero before the item's last one
        with pytest.raises(ValueError, match="item 1 has a zero"):
            RowLayout(Tensor(x), mask, guard=4, packed=True)
        with pytest.raises(ValueError, match="item 1 has a zero"):
            RowLayout(Tensor(x), mask, guard=4, packed=False)

    def test_guards_stay_zero(self, rng):
        block = PlainResidualBlock(3, kernel_size=3, dilation=2, rng=rng)
        block.eval()
        randomize_norms([block], rng)
        x, mask = batch_with_lengths(rng, 3, LENGTHS)
        layout = RowLayout(Tensor(x), mask, block.conv.reach(), packed=True)
        row = block.run(layout.pack(Tensor(x)), layout).data
        assert np.all(row[:, layout.item == 0] == 0)

    def test_packed_decoder_matches_padded(self, rng):
        model = StudentModel(vocab_size=20, mel_bins=6, channels=8, enc_blocks=2,
                             dec_blocks=6, duration_blocks=1, rng=rng)
        randomize_norms(model.decoder.blocks, rng)
        model.eval()
        x, mask = batch_with_lengths(rng, 8, (30, 9, 17))
        with no_grad():
            got = model.decode(Tensor(x), mask).data
            h = unfused_stack(model.decoder.blocks, Tensor(x), Tensor(mask))
            want = model.out_proj(h).data
        for i, n in enumerate((30, 9, 17)):
            assert peak_error(got[i, :, :n], want[i, :, :n]) < 1e-5


# ---------------------------------------------------------------------------
# checkpoints written before the fusion
# ---------------------------------------------------------------------------

class TestUnfusedCheckpoint:
    def test_loads_and_synthesizes_the_same(self):
        # unfused_student.ckpt and its outputs were written by the im2col /
        # unfused-block implementation: a small seeded student with random
        # norm affines and running statistics from three train-mode passes
        path = DATA / "unfused_student.ckpt"
        expected = np.load(DATA / "unfused_student_outputs.npz")
        cfg, kind, _ = peek_config(path)
        model = pipeline.build_student(cfg, len(PhonemeVocabulary()))
        meta = pipeline.load_checkpoint(path, model, cfg, kind)
        model.eval()
        assert meta["stats"] == (-6.0, 2.0)
        for item in ("a", "b"):
            mel, used = student.synthesize(model, expected[f"ids_{item}"],
                                           expected[f"dur_{item}"])
            np.testing.assert_array_equal(used, expected[f"dur_{item}"])
            assert peak_error(mel, expected[f"mel_{item}"]) < 1e-5
        mels, _ = student.synthesize_batch(
            model, [expected["ids_a"], expected["ids_b"]],
            [expected["dur_a"], expected["dur_b"]])
        assert peak_error(mels[1], expected["mel_b"]) < 1e-5
        with no_grad():
            log_dur = model.predict_log_durations(
                model.encode(expected["ids_a"].reshape(1, -1))).data[0, 0]
        np.testing.assert_allclose(log_dur, expected["logdur_a"], atol=1e-5)
