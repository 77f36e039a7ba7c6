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


def augment_spectrogram(mel, model, rng, params, phoneme_ids, feedback_passes,
                        position_rate):
    """Degrade one unit-interval spectrogram (bins, T).

    feedback_passes: k, drawn once per batch from {0..max_feedback_passes}
    by the caller; position_rate: the item's N/T.
    """
    x = np.asarray(mel, dtype=np.float32).copy()
    bins, t = x.shape
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
