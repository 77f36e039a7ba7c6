"""Student batching, the three-part training loss, and inference."""

from __future__ import annotations

import numpy as np

from ..nn_core import Tensor, no_grad
from ..nn_core import functional as F
from ..teacher.losses import masked_mae
from .expand import expand_encodings
from .model import round_durations
from .ssim import ssim_index

HUBER_DELTA = 1.0


def pad_student_batch(items):
    """Pad (phoneme_ids, durations, mel) triples into dense batch arrays.

    mel is the standardized target with exactly sum(durations) frames.
    """
    if not items:
        raise ValueError("empty batch")
    for ids, dur, mel in items:
        t = int(np.sum(dur))
        if len(dur) != len(ids):
            raise ValueError("durations and phoneme ids differ in length")
        if mel.shape[1] != t:
            raise ValueError(
                f"target has {mel.shape[1]} frames but durations sum to {t}")
    ids, durs, mels = zip(*items)
    n_lengths = np.array([len(d) for d in durs], dtype=np.int64)
    t_lengths = np.array([mel.shape[1] for mel in mels], dtype=np.int64)
    targets = F.pad_right(mels, np.float32)
    log_durs = [np.log1p(np.asarray(d, dtype=np.float64)) for d in durs]
    return {
        "ids": F.pad_right(ids, np.int64),
        "durations": F.pad_right(durs, np.int64),
        "log_durations": F.pad_right(log_durs, np.float32)[:, None],
        "phoneme_mask": F.length_mask(n_lengths, n_lengths.max()),
        "targets": targets,
        "frame_mask": F.length_mask(t_lengths, targets.shape[2]),
        "n_lengths": n_lengths,
        "t_lengths": t_lengths,
    }


def masked_huber(pred, target, mask):
    """Huber loss (HUBER_DELTA) averaged over masked cells."""
    err = F.huber(F.sub(pred, target), HUBER_DELTA)
    mask = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    return F.sum(F.mul(err, mask / float(np.sum(mask))))


def student_losses(model, batch):
    """Forward pass with teacher durations; returns the three loss Tensors."""
    phoneme_mask = Tensor(batch["phoneme_mask"])
    frame_mask = Tensor(batch["frame_mask"])
    targets = Tensor(batch["targets"])

    encodings = model.encode(batch["ids"], phoneme_mask)
    log_dur_pred = model.predict_log_durations(encodings, phoneme_mask)
    duration_loss = masked_huber(
        log_dur_pred, Tensor(batch["log_durations"]), phoneme_mask)

    expanded, exp_mask, _ = expand_encodings(encodings, batch["durations"])
    if exp_mask.shape != frame_mask.shape or not np.array_equal(
            exp_mask, batch["frame_mask"]):
        raise ValueError("expanded frame mask disagrees with target mask")
    pred = model.decode(expanded, frame_mask)

    mae = masked_mae(pred, targets, frame_mask)
    ssim_loss = F.sub(1.0, ssim_index(pred, targets, batch["t_lengths"]))
    return mae, ssim_loss, duration_loss


def student_training_step(model, batch, opt):
    """One update on a padded batch.

    Returns (mae, ssim_loss, duration_loss, grad_norm), the last being the
    global gradient norm before clipping.
    """
    mae, ssim_loss, duration_loss = student_losses(model, batch)
    total = F.add(F.add(mae, ssim_loss), duration_loss)
    total.check_finite("student loss")
    opt.zero_grad()
    total.backward()
    grad_norm = opt.step()
    return (float(mae.data), float(ssim_loss.data), float(duration_loss.data),
            grad_norm)


def _round_predicted(log_dur):
    durations = round_durations(log_dur)
    if durations.sum() == 0:
        # degenerate prediction: give the highest-scoring phoneme one frame
        durations[int(np.argmax(log_dur))] = 1
    return durations


def synthesize_batch(model, id_seqs, durations=None):
    """Spectrograms for utterances of any lengths in one parallel pass.

    id_seqs is a sequence of 1-d phoneme id arrays; durations, when given, a
    matching sequence of per-phoneme frame counts (predicted otherwise).
    Returns (mels, durations), two lists: mels[i] is (bins, sum(durations[i]))
    in the standardized domain. Each item comes out as it would alone.
    """
    seqs = [np.asarray(ids, dtype=np.int64).reshape(-1) for ids in id_seqs]
    if not seqs:
        raise ValueError("empty batch")
    if any(ids.size == 0 for ids in seqs):
        raise ValueError("empty phoneme sequence")
    if durations is not None and len(durations) != len(seqs):
        raise ValueError(f"{len(durations)} duration sequences for "
                         f"{len(seqs)} utterances")
    ids = F.pad_right(seqs, np.int64)
    phoneme_mask = F.length_mask([item.size for item in seqs], ids.shape[1])
    with model.evaluating(), no_grad():
        encodings = model.encode(ids, phoneme_mask)
        if durations is None:
            log_dur = model.predict_log_durations(encodings, phoneme_mask).data
            durations = [_round_predicted(log_dur[i, 0, :item.size])
                         for i, item in enumerate(seqs)]
        durations = [np.asarray(d, dtype=np.int64).reshape(-1) for d in durations]
        for i, (item, d) in enumerate(zip(seqs, durations)):
            if d.size != item.size:
                raise ValueError(f"item {i}: {d.size} durations for "
                                 f"{item.size} phonemes")
        expanded, frame_mask, lengths = expand_encodings(
            encodings, F.pad_right(durations, np.int64))
        pred = model.decode(expanded, frame_mask).data
    mels = [pred[i, :, :int(t)].copy() for i, t in enumerate(lengths)]
    return mels, durations


def synthesize(model, phoneme_ids, durations=None):
    """Spectrogram for one utterance: a one-item :func:`synthesize_batch`.

    Returns (mel, durations) where mel is (bins, sum(durations)) in the
    standardized domain. Durations are predicted unless supplied.
    """
    mels, used = synthesize_batch(
        model, [phoneme_ids], None if durations is None else [durations])
    return mels[0], used[0]
