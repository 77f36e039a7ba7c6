"""Duration extraction and sequential (frame-by-frame) generation.

Location masking: while walking frames left to right, a frame may only
attend inside [p, p+FORWARD_REACH] where p is the previously attended
phoneme index. The window never reaches backwards, which forces the
attended-index sequence to be non-decreasing by construction.
"""

from __future__ import annotations

import numpy as np

from ..audio_frontend import Utterance
from ..nn_core import Tensor, no_grad
from ..nn_core import functional as F
from .model import NEG_INF, shift_frames
from .train import pad_teacher_batch

FORWARD_REACH = 3
STOP_PATIENCE = 10
SILENCE_PATIENCE = 20
SILENCE_FLOOR = 0.02


class AlignmentError(RuntimeError):
    """Extracted durations do not partition the spectrogram's frames."""


def _forward_window(col, prev):
    """`col` with every entry outside [prev, prev+FORWARD_REACH] at NEG_INF."""
    masked = np.full(col.shape[0], NEG_INF)
    window = slice(prev, prev + FORWARD_REACH + 1)
    masked[window] = col[window]
    return masked


def masked_attention_path(logits):
    """Greedy attended-index walk over (N, T) logits with location masking.

    The first frame is unrestricted. Returns int64 indices of length T.
    """
    t = logits.shape[1]
    path = np.empty(t, dtype=np.int64)
    prev = None
    for i in range(t):
        col = logits[:, i]
        if prev is not None:
            col = _forward_window(col, prev)
        prev = int(np.argmax(col))
        path[i] = prev
    return path


def durations_from_path(path, n_phonemes):
    """Count frames attending to each phoneme; skipped phonemes get 0."""
    return np.bincount(np.asarray(path, dtype=np.int64), minlength=n_phonemes)


def batch_logits(model, batch):
    """Teacher-forced attention logits (B, N, T) of a padded teacher batch;
    item i's are the [:n_i, :t_i] corner."""
    with no_grad():
        keys, _, _ = model.encode_phonemes(batch["ids"], batch["phoneme_mask"])
        queries, _ = model.encode_frames(Tensor(shift_frames(batch["targets"])),
                                         batch["rates"], batch["frame_mask"])
        return model.attention_logits(keys, queries).data


def _single(phoneme_ids, target_mel):
    return Utterance("unnamed", np.asarray(phoneme_ids, dtype=np.int64), None,
                     mel=np.asarray(target_mel))


def extract_batch_durations(model, utts):
    """Teacher-forced alignment with location masking for prepared
    utterances, in one batch; each item's durations sum to its frames."""
    for u in utts:
        if u.n_phonemes == 0 or u.mel.shape[1] == 0:
            raise ValueError(f"utterance {u.id!r}: empty phoneme or frame sequence")
    batch = pad_teacher_batch(utts)
    logits = batch_logits(model, batch)
    table = []
    for u, item in zip(utts, logits):
        n, t = u.n_phonemes, u.mel.shape[1]
        durations = durations_from_path(masked_attention_path(item[:n, :t]), n)
        if durations.sum() != t:
            raise AlignmentError(
                f"utterance {u.id!r}: durations sum to {int(durations.sum())} "
                f"frames but the target mel has {t}")
        table.append(durations)
    return table


def extract_durations(model, phoneme_ids, target_mel):
    """Durations of one utterance: a batch of one."""
    return extract_batch_durations(model, [_single(phoneme_ids, target_mel)])[0]


def sequential_generate(model, phoneme_ids, max_frames, position_rate,
                        teacher_frames=None, location_mask=True):
    """Generate frames one at a time.

    With `teacher_frames` given, conditioning uses ground truth (used by the
    parallel/sequential equivalence check); otherwise each prediction is fed
    back, and generation stops early after STOP_PATIENCE frames on the last
    phoneme or SILENCE_PATIENCE frames with mean level below SILENCE_FLOOR.
    Returns (mel (bins, T), attention (N, T), reached_max: bool).
    """
    ids = np.asarray(phoneme_ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("empty phoneme sequence")
    n = ids.shape[0]
    frames = np.zeros((model.mel_bins, max_frames + 1), dtype=np.float32)
    if teacher_frames is not None:
        limit = min(max_frames, teacher_frames.shape[1])
        frames[:, 1:limit + 1] = teacher_frames[:, :limit]
    outputs = []
    columns = []
    history = np.zeros((n, max_frames), dtype=np.float64)  # logit columns as used
    prev = None
    final_run = 0
    quiet_run = 0
    reached_max = True
    with no_grad():
        keys, values, _ = model.encode_phonemes(ids[None])
        for t in range(max_frames):
            window = Tensor(frames[None, :, :t + 1])
            queries, frame_enc = model.encode_frames(window, [position_rate])
            logits = model.attention_logits(keys, queries).data[0]
            col = logits[:, t]
            if location_mask and prev is not None:
                col = _forward_window(col, prev)
            history[:, t] = col
            attention = F.softmax(Tensor(history[None, :, :t + 1]), axis=1)
            pred = model.decode(values, attention, frame_enc)
            frame = pred.data[0, :, t]
            outputs.append(frame)
            columns.append(attention.data[0, :, t])
            prev = int(np.argmax(col))
            if teacher_frames is None:
                frames[:, t + 1] = frame
                final_run = final_run + 1 if prev == n - 1 else 0
                mean_level = float(np.mean(frame))
                quiet_run = quiet_run + 1 if mean_level < SILENCE_FLOOR else 0
                if final_run >= STOP_PATIENCE or quiet_run >= SILENCE_PATIENCE:
                    reached_max = False
                    break
    mel = np.stack(outputs, axis=1)
    attention = np.stack(columns, axis=1)
    return mel, attention, reached_max
