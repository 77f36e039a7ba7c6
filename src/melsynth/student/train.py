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
    n_lengths = [len(ids) for ids, _, _ in items]
    t_lengths = [int(np.sum(d)) for _, d, _ in items]
    for (ids, dur, mel), t in zip(items, t_lengths):
        if len(dur) != len(ids):
            raise ValueError("durations and phoneme ids differ in length")
        if mel.shape[1] != t:
            raise ValueError(
                f"target has {mel.shape[1]} frames but durations sum to {t}")
    batch = len(items)
    n_max = max(n_lengths)
    t_max = max(t_lengths)
    bins = items[0][2].shape[0]

    ids = np.zeros((batch, n_max), dtype=np.int64)
    durations = np.zeros((batch, n_max), dtype=np.int64)
    log_durations = np.zeros((batch, 1, n_max), dtype=np.float32)
    phoneme_mask = np.zeros((batch, 1, n_max), dtype=np.float32)
    targets = np.zeros((batch, bins, t_max), dtype=np.float32)
    frame_mask = np.zeros((batch, 1, t_max), dtype=np.float32)
    for i, (pid, dur, mel) in enumerate(items):
        n, t = n_lengths[i], t_lengths[i]
        ids[i, :n] = pid
        durations[i, :n] = dur
        log_durations[i, 0, :n] = np.log1p(np.asarray(dur, dtype=np.float64))
        phoneme_mask[i, 0, :n] = 1.0
        targets[i, :, :t] = mel
        frame_mask[i, 0, :t] = 1.0
    return {
        "ids": ids,
        "durations": durations,
        "log_durations": log_durations,
        "phoneme_mask": phoneme_mask,
        "targets": targets,
        "frame_mask": frame_mask,
        "n_lengths": n_lengths,
        "t_lengths": t_lengths,
    }


def masked_huber(pred, target, mask):
    """Huber loss (HUBER_DELTA) averaged over masked cells."""
    err = F.huber(F.sub(pred, target), HUBER_DELTA)
    total = F.sum(F.mul(err, mask))
    count = np.sum(mask.data if isinstance(mask, Tensor) else mask)
    return F.mul(total, 1.0 / float(count))


def batch_ssim(pred, targets, t_lengths):
    """Mean SSIM over items, each evaluated on its unpadded frame range."""
    scores = []
    for i, t in enumerate(t_lengths):
        item = F.narrow(F.narrow(pred, 0, i, 1), 2, 0, t)
        ref = F.narrow(F.narrow(targets, 0, i, 1), 2, 0, t)
        scores.append(ssim_index(item, ref))
    total = scores[0]
    for s in scores[1:]:
        total = F.add(total, s)
    return F.mul(total, 1.0 / len(scores))


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
    ssim_loss = F.sub(1.0, batch_ssim(pred, targets, batch["t_lengths"]))
    return mae, ssim_loss, duration_loss


def student_training_step(model, batch, opt):
    """One update on a padded batch; returns (mae, ssim_loss, duration_loss)."""
    mae, ssim_loss, duration_loss = student_losses(model, batch)
    total = F.add(F.add(mae, ssim_loss), duration_loss)
    total.check_finite("student loss")
    opt.zero_grad()
    total.backward()
    opt.step()
    return float(mae.data), float(ssim_loss.data), float(duration_loss.data)


def predict_durations(model, phoneme_ids):
    """Rounded per-phoneme frame counts for a single utterance (no grads)."""
    ids = np.asarray(phoneme_ids, dtype=np.int64).reshape(1, -1)
    with no_grad():
        return _round_predicted(model.predict_log_durations(model.encode(ids)).data[0, 0])


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
    n_max = max(ids.size for ids in seqs)
    ids = np.zeros((len(seqs), n_max), dtype=np.int64)
    phoneme_mask = np.zeros((len(seqs), 1, n_max), dtype=np.float32)
    for i, item in enumerate(seqs):
        ids[i, :item.size] = item
        phoneme_mask[i, 0, :item.size] = 1.0
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            encodings = model.encode(ids, phoneme_mask)
            if durations is None:
                log_dur = model.predict_log_durations(encodings, phoneme_mask).data
                durations = [_round_predicted(log_dur[i, 0, :item.size])
                             for i, item in enumerate(seqs)]
            durations = [np.asarray(d, dtype=np.int64).reshape(-1) for d in durations]
            padded = np.zeros((len(seqs), n_max), dtype=np.int64)
            for i, (item, d) in enumerate(zip(seqs, durations)):
                if d.size != item.size:
                    raise ValueError(f"item {i}: {d.size} durations for "
                                     f"{item.size} phonemes")
                padded[i, :d.size] = d
            expanded, frame_mask, lengths = expand_encodings(encodings, padded)
            pred = model.decode(expanded, frame_mask).data
    finally:
        if was_training:
            model.train()
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
