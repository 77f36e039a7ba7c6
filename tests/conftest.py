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
