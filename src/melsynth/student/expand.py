"""Duration-driven expansion of phoneme encodings to frame rate.

Each phoneme's encoding vector is repeated for its duration; a sinusoidal
positional term is added whose position restarts at 0 on the first frame of
every phoneme, marking intra-phoneme progress.
"""

from __future__ import annotations

import numpy as np

from ..nn_core import functional as F


def expansion_indices(durations):
    """Frame -> phoneme index map; length = sum(durations)."""
    durations = np.asarray(durations, dtype=np.int64)
    if np.any(durations < 0):
        raise ValueError("negative duration")
    if durations.sum() < 1:
        raise ValueError("all durations zero; nothing to expand")
    return np.repeat(np.arange(durations.shape[0]), durations)


def reset_positions(durations):
    """Per-frame position that restarts at 0 at each phoneme boundary."""
    durations = np.asarray(durations, dtype=np.int64)
    total = int(durations.sum())
    starts = np.repeat(np.cumsum(durations) - durations, durations)
    return np.arange(total, dtype=np.int64) - starts


def expand_encodings(encodings, durations):
    """Expand (batch, channels, N) by per-item durations (batch, N).

    Items may expand to different lengths; the result is zero padded on the
    right. One tape op (:func:`~melsynth.nn_core.functional.expand_time`)
    gathers each item's frames and adds their positional term. Returns
    (expanded (batch, channels, T_max), frame_mask (batch, 1, T_max),
    lengths (batch,)).
    """
    durations = np.atleast_2d(np.asarray(durations, dtype=np.int64))
    batch, channels, _ = encodings.shape
    if durations.shape[0] != batch:
        raise ValueError(f"{durations.shape[0]} duration rows for {batch} items")
    lengths = durations.sum(axis=1)
    if np.any(lengths < 1):
        raise ValueError("all durations zero; nothing to expand")
    indices = [expansion_indices(d) for d in durations]
    positions = [reset_positions(d) for d in durations]
    # positions restart at every phoneme, so one table over 0..max covers all
    table = F.sinusoid_table(np.arange(durations.max()), channels)
    out = F.expand_time(encodings, indices, positions, table)
    return out, F.length_mask(lengths, out.shape[2]), lengths
