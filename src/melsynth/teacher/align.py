"""Duration extraction: teacher-forced attention walked with location masking.

Location masking: while walking frames left to right, a frame may only
attend inside [p, p+FORWARD_REACH] where p is the previously attended
phoneme index. The window never reaches backwards, which forces the
attended-index sequence to be non-decreasing by construction.
"""

from __future__ import annotations

import numpy as np

from ..audio_frontend import Utterance
from ..nn_core import Tensor, no_grad
from .model import shift_frames
from .train import pad_teacher_batch

FORWARD_REACH = 3


class AlignmentError(RuntimeError):
    """Extracted durations do not partition the spectrogram's frames."""


def masked_attention_path(logits):
    """Greedy attended-index walk over (N, T) logits with location masking.

    The first frame is unrestricted. Returns int64 indices of length T.
    """
    t = logits.shape[1]
    path = np.empty(t, dtype=np.int64)
    prev, reach = 0, logits.shape[0]  # the first frame reads the whole column
    for i in range(t):
        prev += int(np.argmax(logits[prev:prev + reach, i]))
        path[i] = prev
        reach = FORWARD_REACH + 1
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

