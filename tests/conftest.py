"""Shared test helpers."""

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
            hi = build_loss().item()
            flat[i] = orig - h
            lo = build_loss().item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * h)
            err = abs(fd - rflat[i])
            tol = atol + rtol * max(abs(fd), abs(rflat[i]))
            assert err <= tol, (
                f"gradient mismatch at flat index {i}: fd={fd:.6g} recorded={rflat[i]:.6g}"
            )
    for p in params:
        p.grad = None


# Differentiable ops the tests compose references from, as they were in
# nn_core.functional before the program replaced them with fused ops.

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
