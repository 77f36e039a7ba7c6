"""Shared test helpers."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest


def gradcheck(build_loss, params, h=1e-3, rtol=1e-3, atol=1e-6):
    """Compare recorded gradients against central finite differences.

    `build_loss` must re-run the forward pass (float64 graph) on each call;
    `params` are the float64 leaf tensors to check.
    """
    for p in params:
        assert p.data.dtype == np.float64, "gradcheck needs float64 parameters"
        p.grad = None
    build_loss().backward()
    recorded = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p, rec in zip(params, recorded):
        flat = p.data.reshape(-1)
        rflat = rec.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = build_loss().data.item()
            flat[i] = orig - h
            lo = build_loss().data.item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * h)
            err = abs(fd - rflat[i])
            tol = atol + rtol * max(abs(fd), abs(rflat[i]))
            assert err <= tol, (
                f"gradient mismatch at flat index {i}: fd={fd:.6g} recorded={rflat[i]:.6g}"
            )
    for p in params:
        p.grad = None


# Differentiable ops and layers the tests compose references from, as they
# were in nn_core before the program replaced them with fused ops.

def tanh(x):
    from melsynth.nn_core import Tensor

    out = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out * out))

    return Tensor.from_op(out, (x,), backward)


def narrow(x, axis, start, length):
    """Contiguous slice along one axis, differentiable (scatter on backward)."""
    from melsynth.nn_core import Tensor

    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = x.data[idx]

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[idx] = g
            x.accumulate_grad(full)

    return Tensor.from_op(out, (x,), backward)


def sqrt(x):
    from melsynth.nn_core import Tensor

    out = np.sqrt(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * 0.5 / out)

    return Tensor.from_op(out, (x,), backward)


def div(a, b):
    from melsynth.nn_core import Tensor, as_tensor
    from melsynth.nn_core.functional import _unbroadcast

    a, b = (as_tensor(a, like=b if isinstance(b, Tensor) else None),
            as_tensor(b, like=a if isinstance(a, Tensor) else None))
    out = a.data / b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor.from_op(out, (a, b), backward)


def mean(x, axis=None, keepdims=False):
    from melsynth.nn_core import functional as F

    axes = range(x.data.ndim) if axis is None else np.atleast_1d(axis)
    n = int(np.prod([x.data.shape[a] for a in axes]))
    return F.mul(F.sum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def gather_time(x, indices):
    """Re-index the time axis: out[b, :, t] = x[b, :, indices[b, t]];
    gradients scatter-add back, so repeated frames all contribute to their
    source column. The program's expansion gathered through it before it
    became one op with the positional term."""
    from melsynth.nn_core import Tensor

    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[2]):
        raise IndexError("gather_time index outside input time range")
    batch_ix = np.arange(x.data.shape[0])[:, None]
    xt = x.data.transpose(0, 2, 1)
    out = xt[batch_ix, idx].transpose(0, 2, 1)

    def backward(g):
        if x.requires_grad:
            gxt = np.zeros_like(xt)
            np.add.at(gxt, (batch_ix, idx), g.transpose(0, 2, 1))
            x.accumulate_grad(gxt.transpose(0, 2, 1))

    return Tensor.from_op(out, (x,), backward)


def _per_channel(t):
    """View a (channels,) parameter as (1, channels, 1) for broadcasting."""
    from melsynth.nn_core import Tensor

    def backward(g):
        if t.requires_grad:
            t.accumulate_grad(g.sum(axis=(0, 2)))

    return Tensor.from_op(t.data[None, :, None], (t,), backward)


def batch_norm(norm, x, mask=None):
    """Temporal batch norm of (batch, channels, time) `x` with the parameters
    and running statistics of BatchNormTemporal `norm`, op by op on the tape.
    Train mode takes its statistics over the frames where the (batch, 1,
    time) `mask` is 1 (every frame when it is None) and also updates the
    running statistics."""
    from melsynth.nn_core import functional as F

    if norm.training:
        w = np.ones((x.shape[0], 1, x.shape[2])) if mask is None else mask
        n = float(np.sum(w))
        if n < 2:
            raise ValueError("batch norm needs batch*time >= 2 in train mode")

        def frame_mean(t):
            return F.mul(F.sum(F.mul(t, w), axis=(0, 2), keepdims=True), 1.0 / n)

        m = frame_mean(x)
        centered = F.sub(x, m)
        var = frame_mean(F.mul(centered, centered))
        inv = div(1.0, sqrt(F.add(var, norm.eps)))
        normed = F.mul(centered, inv)
        norm.update_running(m.data, var.data, n)
    else:
        mu = norm.running_mean[None, :, None]
        sd = np.sqrt(norm.running_var[None, :, None] + norm.eps)
        normed = F.mul(F.sub(x, mu), 1.0 / sd)
    return F.add(F.mul(normed, _per_channel(norm.scale)), _per_channel(norm.shift))


def run_block(block, x):
    """A residual block on a (batch, channels, time) batch: pack it into one
    guard-banded row, run the block's fused op, unpack."""
    from melsynth.nn_core import RowLayout

    layout = RowLayout(x, None, block.conv.reach())
    return layout.unpack(block.run(layout.pack(x), layout))


def filter1d_valid(x, kernel, axis):
    """Valid-mode correlation with a fixed 1D kernel along `axis` (no parameters)."""
    from melsynth.nn_core import Tensor

    kernel = np.asarray(kernel, dtype=x.data.dtype)
    ksize = kernel.shape[0]
    win = np.lib.stride_tricks.sliding_window_view(x.data, ksize, axis=axis)
    out = win @ kernel  # window axis is last after sliding_window_view

    def backward(g):
        if not x.requires_grad:
            return
        pad = [(0, 0)] * g.ndim
        pad[axis] = (ksize - 1, ksize - 1)
        gpad = np.pad(g, pad)
        gwin = np.lib.stride_tricks.sliding_window_view(gpad, ksize, axis=axis)
        x.accumulate_grad(gwin @ kernel[::-1])

    return Tensor.from_op(out, (x,), backward)


def peek_config(path):
    """(embedded config, kind, architecture hash) of a checkpoint."""
    from melsynth.pipeline import load_tensors, parse_config

    arrays, stored = load_tensors(path)
    config_text, kind = (arrays[f"__meta__/{key}"].astype(np.uint8).tobytes().decode()
                         for key in ("config_text", "kind"))
    return parse_config(config_text, source=str(path)), kind, stored


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def block_pools():
    """`nn_core.pool.worker_pool` results for 1 worker (the calling thread
    alone) and for 3 (the calling thread and two pool threads), whatever
    this host has."""
    threads = ThreadPoolExecutor(2)
    yield {1: (None, 1), 3: (threads, 3)}
    threads.shutdown()


def conv_reference(x, weight, dilation, left):
    """The tap products of a conv summed over their windows, without bias,
    as one GEMM per tap over the whole row on the calling thread: the conv
    kernel before it split wide rows by output columns."""
    from melsynth.nn_core.kernels import _window

    cout, _, ksize = weight.shape
    time = x.shape[2]
    out = np.empty((x.shape[0], cout, time), dtype=np.result_type(x, weight))
    taps = weight.transpose(2, 0, 1).copy()
    first = min(ksize - 1, (left + dilation // 2) // dilation)
    tmp = None
    for j in [first] + [j for j in range(ksize) if j != first]:
        shift = j * dilation - left
        lo, hi = _window(shift, time)
        if j != first:
            if hi == lo:
                continue
            if tmp is None:
                tmp = np.empty_like(out)
        dst = out if j == first else tmp
        if lo:
            dst[:, :, :lo] = 0
        if hi < time:
            dst[:, :, hi:] = 0
        np.matmul(taps[j], x[:, :, lo + shift:hi + shift], out=dst[:, :, lo:hi])
        if dst is not out:
            out += tmp
    return out


def augment_item_reference(mel, model, rng, params, phoneme_ids,
                           feedback_passes, position_rate):
    """Teacher augmentation of one unit-interval spectrogram (bins, T), item
    by item, as it ran before augmentation went batch-wide: noise, then k
    unmasked one-item feedback forwards, then frame replacement."""
    from melsynth.nn_core import Tensor, no_grad
    from melsynth.teacher import shift_frames

    x = np.asarray(mel, dtype=np.float32).copy()
    t = x.shape[1]
    if params.noise_std > 0:
        x = np.clip(x + rng.normal(0.0, params.noise_std, x.shape), 0.0, 1.0)
        x = x.astype(np.float32)
    if feedback_passes > 0:
        ids = np.asarray(phoneme_ids, dtype=np.int64)[None]
        with model.evaluating(), no_grad():
            for _ in range(feedback_passes):
                pred, _ = model(ids, Tensor(shift_frames(x)[None]), [position_rate])
                x = pred.data[0].astype(np.float32)
    if params.replace_prob > 0:
        snapshot = x.copy()
        chosen = rng.random(t) < params.replace_prob
        sources = rng.integers(0, t, size=t)
        x[:, chosen] = snapshot[:, sources[chosen]]
    return x


def prefix_predictions(model, phoneme_ids, mel, position_rate):
    """Frame t of a teacher forward over the first t + 1 shifted frames, for
    every t, stacked to (bins, T): frame-by-frame generation under teacher
    forcing, each prefix recomputing all of its attention columns."""
    from melsynth.nn_core import Tensor, no_grad
    from melsynth.teacher import shift_frames

    ids, inputs = np.asarray(phoneme_ids)[None], shift_frames(mel)[None]
    columns = []
    with no_grad():
        for t in range(inputs.shape[2]):
            pred, _ = model(ids, Tensor(inputs[:, :, :t + 1]), [position_rate])
            columns.append(pred.data[0, :, t])
    return np.stack(columns, axis=1)


def window_walk_reference(logits):
    """The location-masked attended-index walk over (N, T) logits as it ran
    before it read a slice: each column after the first is copied with
    every entry outside [prev, prev + FORWARD_REACH] set to NEG_INF, and the
    copy's argmax is the next index."""
    from melsynth.teacher import FORWARD_REACH, NEG_INF

    path = np.empty(logits.shape[1], dtype=np.int64)
    prev = None
    for i in range(logits.shape[1]):
        col = logits[:, i]
        if prev is not None:
            masked = np.full(col.shape[0], NEG_INF)
            window = slice(prev, prev + FORWARD_REACH + 1)
            masked[window] = col[window]
            col = masked
        prev = int(np.argmax(col))
        path[i] = prev
    return path
