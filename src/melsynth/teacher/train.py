"""Aligner training: batching, masked losses, one optimizer step at a time."""

from __future__ import annotations

import numpy as np

from ..audio_frontend import normalize_unit, wav_to_mel
from ..nn_core import Tensor
from ..nn_core import functional as F
from .augment import augment_batch
from .losses import batch_guided_attention_loss, diagonality_score, masked_mae
from .model import shift_frames


def prepare_utterance(utt, audio_config):
    """Attach the unit-interval mel target once per utterance."""
    if utt.mel is None:
        utt.mel = normalize_unit(wav_to_mel(utt.waveform, audio_config))
    return utt


def pad_teacher_batch(items):
    """Pad utterances to common N and T; build masks and position rates.

    Returns dict of numpy arrays: ids (B,N), targets (B,bins,T),
    phoneme_mask (B,1,N), frame_mask (B,1,T), rates (B,), n_lengths, t_lengths.
    """
    ids = F.pad_right([u.phoneme_ids for u in items], np.int64)
    targets = F.pad_right([u.mel for u in items], np.float32)
    n_lengths = np.array([u.n_phonemes for u in items], dtype=np.int64)
    t_lengths = np.array([u.mel.shape[1] for u in items], dtype=np.int64)
    return {
        "ids": ids, "targets": targets,
        "phoneme_mask": F.length_mask(n_lengths, ids.shape[1]),
        "frame_mask": F.length_mask(t_lengths, targets.shape[2]),
        "rates": n_lengths / t_lengths,
        "n_lengths": n_lengths, "t_lengths": t_lengths,
    }


def build_inputs(batch, model=None, rng=None, augment=None):
    """Shifted (optionally degraded) model inputs for a padded batch."""
    targets = batch["targets"]
    if augment is None or rng is None:
        return shift_frames(targets)
    k = int(rng.integers(0, augment.max_feedback_passes + 1))  # one draw per batch
    return shift_frames(augment_batch(batch, model, rng, augment,
                                      feedback_passes=k))


def teacher_losses(model, batch, inputs, g):
    """Forward pass on `inputs`; returns the masked MAE and guided attention
    loss Tensors and the attention Tensor (batch, N, T)."""
    pred, attention = model(
        batch["ids"], Tensor(inputs), batch["rates"],
        phoneme_mask=batch["phoneme_mask"], frame_mask=batch["frame_mask"],
    )
    mae = masked_mae(pred, batch["targets"], batch["frame_mask"])
    guided = batch_guided_attention_loss(
        attention, batch["n_lengths"], batch["t_lengths"], g)
    return mae, guided, attention


def teacher_training_step(model, optimizer, batch, inputs, g=0.2):
    """One clipped Adam step on masked MAE + guided attention.

    Returns (mae, guided, attention, grad_norm), the last being the global
    gradient norm before clipping.
    """
    mae, guided, attention = teacher_losses(model, batch, inputs, g)
    loss = F.add(mae, guided)
    loss.check_finite("teacher loss")
    optimizer.zero_grad()
    loss.backward()
    grad_norm = optimizer.step()
    return float(mae.data), float(guided.data), attention.data, grad_norm


def batch_diagonality(attention, n_lengths, t_lengths):
    scores = [
        diagonality_score(attention[i], int(n), int(t))
        for i, (n, t) in enumerate(zip(n_lengths, t_lengths))
    ]
    return float(np.mean(scores))


def iterate_minibatches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]
