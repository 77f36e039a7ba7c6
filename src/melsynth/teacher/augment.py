"""Input-side robustness degradations for aligner training.

Order is fixed: Gaussian noise, then feedback passes (re-feeding the model's
own no-gradient output, approximating sequential generation), then random
frame replacement from the same utterance. Targets stay untouched; only the
shifted input is degraded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn_core import Tensor, no_grad
from .model import shift_frames


@dataclass
class AugmentParams:
    noise_std: float = 0.02
    max_feedback_passes: int = 3
    replace_prob: float = 0.05


def augment_batch(batch, model, rng, params, feedback_passes):
    """Degrade the unit-interval targets of a padded teacher batch.

    batch: as built by pad_teacher_batch; feedback_passes: k, drawn once per
    batch from {0..max_feedback_passes} by the caller. Per item, in batch
    order, the generator draws the noise, then the replacement choice, then
    the replacement sources; none of these depend on the spectrogram, so
    they are drawn before the k masked batch forwards and the replacements
    applied after them. Returns (B, bins, T) float32, zero past each item's
    length.
    """
    x = batch["targets"].astype(np.float32)
    replacements = []
    for i, t in enumerate(batch["t_lengths"]):
        if params.noise_std > 0:
            noise = rng.normal(0.0, params.noise_std, (x.shape[1], t))
            x[i, :, :t] = np.clip(x[i, :, :t] + noise, 0.0, 1.0)
        if params.replace_prob > 0:
            chosen = rng.random(t) < params.replace_prob
            sources = rng.integers(0, t, size=t)
            replacements.append((i, np.flatnonzero(chosen), sources[chosen]))
    if feedback_passes > 0:
        with no_grad():
            for _ in range(feedback_passes):
                pred, _ = model(batch["ids"], Tensor(shift_frames(x)),
                                batch["rates"],
                                phoneme_mask=batch["phoneme_mask"],
                                frame_mask=batch["frame_mask"])
                x = pred.data * batch["frame_mask"]
    for i, columns, sources in replacements:
        item = x[i]
        item[:, columns] = item[:, sources]
    return x
