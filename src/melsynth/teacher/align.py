"""Duration extraction and sequential (frame-by-frame) generation.

Location masking: while walking frames left to right, a frame may only
attend inside [p, p+FORWARD_REACH] where p is the previously attended
phoneme index. The window never reaches backwards, which forces the
attended-index sequence to be non-decreasing by construction.
"""

from __future__ import annotations

import numpy as np

from ..nn_core import Tensor, no_grad
from ..nn_core import functional as F
from .model import NEG_INF, shift_frames

FORWARD_REACH = 3


class AlignmentError(RuntimeError):
    """Extracted durations do not partition the spectrogram's frames."""


def masked_attention_path(logits, forward_reach=FORWARD_REACH):
    """Greedy attended-index walk over (N, T) logits with location masking.

    The first frame is unrestricted. Returns int64 indices of length T.
    """
    n, t = logits.shape
    path = np.empty(t, dtype=np.int64)
    prev = None
    for i in range(t):
        col = logits[:, i]
        if prev is not None:
            masked = np.full(n, NEG_INF)
            hi = min(n, prev + forward_reach + 1)
            masked[prev:hi] = col[prev:hi]
            col = masked
        prev = int(np.argmax(col))
        path[i] = prev
    return path


def durations_from_path(path, n_phonemes):
    """Count frames attending to each phoneme; skipped phonemes get 0."""
    return np.bincount(np.asarray(path, dtype=np.int64), minlength=n_phonemes)


def durations_from_attention(attention, location_mask=True, forward_reach=FORWARD_REACH):
    """(N, T) attention scores -> durations summing exactly to T.

    Works on weights or logits alike: per-column argmax is scale-free and the
    location mask only compares entries within a column.
    """
    a = np.asarray(attention)
    n, _ = a.shape
    if location_mask:
        path = masked_attention_path(a, forward_reach)
    else:
        path = np.argmax(a, axis=0)
    return durations_from_path(path, n)


def teacher_forced_logits(model, phoneme_ids, target_mel, position_rate=None):
    """Run the aligner on ground-truth input and return raw logits (N, T)."""
    n = len(phoneme_ids)
    t = target_mel.shape[1]
    if n == 0 or t == 0:
        raise ValueError("empty phoneme or frame sequence")
    rate = position_rate if position_rate is not None else n / t
    with no_grad():
        ids = np.asarray(phoneme_ids, dtype=np.int64)[None]
        frames = Tensor(shift_frames(target_mel)[None].astype(np.float32))
        keys, _, _ = model.encode_phonemes(ids)
        queries, _ = model.encode_frames(frames, [rate])
        logits = model.attention_logits(keys, queries)
    return logits.data[0]


def extract_durations(model, phoneme_ids, target_mel, position_rate=None,
                      forward_reach=FORWARD_REACH):
    """Teacher-forced alignment with location masking; durations sum to T."""
    logits = teacher_forced_logits(model, phoneme_ids, target_mel, position_rate)
    path = masked_attention_path(logits, forward_reach)
    durations = durations_from_path(path, len(phoneme_ids))
    if durations.sum() != target_mel.shape[1]:
        raise AlignmentError(
            f"durations sum to {int(durations.sum())} frames but the target "
            f"mel has {target_mel.shape[1]}")
    return durations


def sequential_generate(model, phoneme_ids, max_frames, position_rate,
                        teacher_frames=None, location_mask=True,
                        forward_reach=FORWARD_REACH, silence_floor=0.02,
                        stop_patience=10, silence_patience=20):
    """Generate frames one at a time.

    With `teacher_frames` given, conditioning uses ground truth (used by the
    parallel/sequential equivalence check); otherwise each prediction is fed
    back. Returns (mel (bins, T), attention (N, T), reached_max: bool).
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
            col = logits[:, t].copy()
            if location_mask and prev is not None:
                masked = np.full(n, NEG_INF)
                hi = min(n, prev + forward_reach + 1)
                masked[prev:hi] = col[prev:hi]
                col = masked
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
                quiet_run = quiet_run + 1 if mean_level < silence_floor else 0
                if final_run >= stop_patience or quiet_run >= silence_patience:
                    reached_max = False
                    break
    mel = np.stack(outputs, axis=1)
    attention = np.stack(columns, axis=1)
    return mel, attention, reached_max
