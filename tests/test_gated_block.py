"""The fused gated residual op and the teacher's telescoped stacks against
the code they replace: the conv -> narrow -> tanh/sigmoid -> mul -> proj ->
residual add composition with a keep multiply and a skip sum per block, kept
here as the reference."""

import numpy as np
import pytest

from conftest import gradcheck, mean, narrow, tanh
from melsynth import pipeline
from melsynth.audio_frontend import Utterance
from melsynth.nn_core import Adam, RowLayout, Tensor
from melsynth.nn_core import functional as F
from melsynth.teacher import (
    GatedStack,
    build_inputs,
    pad_teacher_batch,
    teacher_dilations,
    teacher_training_step,
)

LENGTHS = (11, 4, 7)


# ---------------------------------------------------------------------------
# reference: the unfused stack
# ---------------------------------------------------------------------------

def reshape(x, shape):
    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(x.data.shape))

    return Tensor.from_op(x.data.reshape(shape), (x,), backward)


def unfused_block(block, h):
    z = block.conv(h)
    half = block.proj.weight.shape[1]
    gated = F.mul(tanh(narrow(z, -2, 0, half)),
                  F.sigmoid(narrow(z, -2, half, half)))
    skip = block.proj(gated)
    return F.add(h, skip), skip


def unfused_stack(stack, x, mask):
    layout = RowLayout(x, mask, max(b.conv.reach() for b in stack.blocks))
    h = reshape(layout.pack(x), (1, x.shape[1], layout.width))  # a batch of one
    skips = None
    for block in stack.blocks:
        h, skip = unfused_block(block, h)
        h = F.mul(h, layout.keep)
        skips = skip if skips is None else F.add(skips, skip)
    return layout.unpack(reshape(skips, skips.shape[1:]))


def peak_error(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# the op
# ---------------------------------------------------------------------------

class TestGatedResidualOp:
    @pytest.mark.parametrize("causal", [False, True])
    def test_gradcheck_two_item_row(self, rng, causal):
        # a row laid out by hand: item of 5, guard 2, item of 4
        keep = np.array([1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1], dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 11)) * keep, requires_grad=True)
        w = Tensor(rng.normal(scale=0.7, size=(6, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(scale=0.1, size=6), requires_grad=True)
        pw = Tensor(rng.normal(size=(2, 3, 1)), requires_grad=True)
        pb = Tensor(rng.normal(scale=0.1, size=2), requires_grad=True)
        target = rng.normal(size=(2, 11))

        def loss():
            out = F.gated_residual(x, w, b, pw, pb, keep, dilation=2, causal=causal)
            err = F.sub(out, target)
            return mean(F.mul(err, err))

        gradcheck(loss, [x, w, b, pw, pb])

    def test_guards_stay_zero(self, rng):
        stack = GatedStack(3, 4, 3, (1, 3), True, rng)
        x = rng.normal(size=(3, 3, max(LENGTHS))).astype(np.float32)
        mask = F.length_mask(LENGTHS, x.shape[2])
        layout = RowLayout(Tensor(x), mask, 6)
        row = stack.blocks[1].run(stack.blocks[0].run(layout.pack(Tensor(x)), layout),
                                  layout).data
        assert np.all(row[:, layout.keep == 0] == 0)


# ---------------------------------------------------------------------------
# the stack against the unfused composition
# ---------------------------------------------------------------------------

class TestStackParity:
    @pytest.mark.parametrize("causal", [False, True])
    def test_outputs_and_gradients(self, rng, causal):
        stack = GatedStack(6, 8, 3, teacher_dilations(10), causal, rng)
        x = rng.normal(size=(3, 6, max(LENGTHS))).astype(np.float32)
        mask = F.length_mask(LENGTHS, x.shape[2])
        weights = rng.normal(size=x.shape).astype(np.float32)
        results = []
        for run in (stack, lambda xt, m: unfused_stack(stack, xt, m)):
            xt = Tensor(x, requires_grad=True)
            for p in stack.parameters():
                p.grad = None
            out = run(xt, mask)
            F.sum(F.mul(out, weights)).backward()
            results.append([out.data, xt.grad] + [p.grad for p in stack.parameters()])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32
            assert peak_error(got, want) < 1e-5


class TestTeacherStep:
    def test_toy_step_tape_nodes(self, tmp_path, rng, monkeypatch):
        cfg = pipeline.load_config(pipeline.write_toy_config(tmp_path))
        model = pipeline.build_teacher(cfg, vocab_size=40, rng=rng)
        utts = [Utterance(f"u{i}", rng.integers(1, 40, size=n), None,
                          mel=rng.random((cfg.audio.mel_bins, t)).astype(np.float32))
                for i, (n, t) in enumerate([(9, 30), (6, 21)])]
        batch = pad_teacher_batch(utts)
        inputs = build_inputs(batch, model=model, rng=rng, augment=cfg.augment)
        opt = Adam(model.parameters(), lr=1e-3)
        calls = []
        from_op = Tensor.from_op

        def counting(data, parents, backward_fn):
            calls.append(1)
            return from_op(data, parents, backward_fn)

        monkeypatch.setattr(Tensor, "from_op", staticmethod(counting))
        teacher_training_step(model, opt, batch, inputs)
        assert 0 < len(calls) <= 61
