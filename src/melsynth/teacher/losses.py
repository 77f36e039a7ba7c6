"""Alignment-shaping penalty and masked spectrogram error."""

from __future__ import annotations

import numpy as np

from ..nn_core import Tensor
from ..nn_core import functional as F


def guided_attention_weights(n_phonemes, n_frames, g, dtype=np.float64):
    """Penalty matrix W (N, T): 0 where n/N = t/T, approaching 1 away from it.

    Indices are 1-based, so the bottom-right cell is always on the diagonal
    ratio and costs nothing.
    """
    if g <= 0:
        raise ValueError("guided attention width g must be positive")
    n = np.arange(1, n_phonemes + 1, dtype=np.float64)[:, None] / n_phonemes
    t = np.arange(1, n_frames + 1, dtype=np.float64)[None, :] / n_frames
    return (1.0 - np.exp(-((n - t) ** 2) / (2.0 * g * g))).astype(dtype)


def batch_guided_attention_loss(attention, phoneme_lengths, frame_lengths, g):
    """Per-item guided loss on the unpadded region, averaged over the batch.

    Folds each item's 1/(N_i T_i B) normalization into one weight tensor so a
    single multiply-sum works on the padded (B, N, T) attention.
    """
    batch, n_max, t_max = attention.data.shape
    weights = np.zeros((batch, n_max, t_max), dtype=attention.data.dtype)
    for i, (n_i, t_i) in enumerate(zip(phoneme_lengths, frame_lengths)):
        w = guided_attention_weights(n_i, t_i, g, dtype=np.float64)
        weights[i, :n_i, :t_i] = w / (n_i * t_i * batch)
    return F.sum(F.mul(attention, weights))


def masked_mae(pred, target, frame_mask):
    """Mean absolute error over real frames only.

    frame_mask: (batch, 1, T) with ones at real frames. All mel bins of a
    real frame count; padded frames contribute nothing.
    """
    bins = pred.data.shape[1]
    diff = F.abs_(F.sub(pred, target))
    total = F.sum(F.mul(diff, frame_mask))
    mask_data = frame_mask.data if isinstance(frame_mask, Tensor) else frame_mask
    denom = float(np.sum(mask_data)) * bins
    return F.mul(total, 1.0 / denom)


def diagonality_score(attention, n_phonemes, n_frames):
    """Mean |n/N - t/T| at the per-frame argmax (1-based), lower is better."""
    a = attention.data if isinstance(attention, Tensor) else np.asarray(attention)
    a = a[:n_phonemes, :n_frames]
    picks = np.argmax(a, axis=0) + 1.0
    frames = np.arange(1, n_frames + 1, dtype=np.float64)
    return float(np.mean(np.abs(picks / n_phonemes - frames / n_frames)))
