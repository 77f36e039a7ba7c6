"""Output checks; each returns a list of problems, empty when the output is good.

An operation with any problem counts as failed.
"""

from __future__ import annotations

import numpy as np

from melsynth.audio_frontend import DatasetError, load_wav

PCM_STEP = 1.0 / 32767.0
PEAK_LIMIT = 0.95 + PCM_STEP  # griffin_lim's limit plus one 16-bit rounding step
SILENCE_PEAK = 1e-3  # about -60 dBFS
PARITY_RTOL = 1e-5


def check_wav(path, frames, hop, sample_rate):
    """The WAV on disk: readable, finite, audible, peak-limited, hop*(T-1) long.

    Non-finite samples do not survive the 16-bit cast as NaN (they become 0),
    so a non-finite waveform shows up here as silence.
    """
    try:
        wave = load_wav(path, sample_rate)
    except (DatasetError, OSError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    expected = hop * (frames - 1)
    if wave.size != expected:
        problems.append(f"{path}: {wave.size} samples, expected {expected}")
    if not np.all(np.isfinite(wave)):
        problems.append(f"{path}: non-finite samples")
        return problems
    peak = float(np.max(np.abs(wave))) if wave.size else 0.0
    if peak < SILENCE_PEAK:
        problems.append(f"{path}: silent (peak {peak:.3g})")
    if peak > PEAK_LIMIT:
        problems.append(f"{path}: peak {peak:.6f} above 0.95")
    return problems


def check_spectrogram_batch(output, lengths):
    """Finite everywhere; frames past each item's length exactly zero."""
    problems = []
    if not np.all(np.isfinite(output)):
        problems.append("non-finite values in the batch output")
    for i, length in enumerate(lengths):
        if np.any(output[i, :, int(length):] != 0):
            problems.append(f"item {i}: padded frames are not zero")
    return problems


def check_parity(batched, single, label, rtol=PARITY_RTOL):
    """A batched item against its batch-1 render, relative to its peak."""
    if batched.shape != single.shape:
        return [f"{label}: batched shape {batched.shape} vs batch-1 "
                f"{single.shape}"]
    scale = max(float(np.max(np.abs(single))), 1e-30)
    error = float(np.max(np.abs(batched - single))) / scale
    if not error <= rtol:
        return [f"{label}: batched differs from batch-1 by {error:.3g} "
                f"relative (limit {rtol:g})"]
    return []


def check_training(teacher, trained, teacher_steps, student_steps):
    """Every logged loss finite; the planned number of steps ran."""
    problems = []
    for label, result, steps, keys in (
            ("teacher", teacher, teacher_steps, ("mae", "guided")),
            ("student", trained, student_steps,
             ("mae", "ssim_loss", "duration"))):
        history = result["history"]
        if len(history) != steps:
            problems.append(f"{label}: {len(history)} steps logged, "
                            f"expected {steps}")
        for row in history:
            bad = [k for k in keys if not np.isfinite(row[k])]
            if bad:
                problems.append(f"{label} step {row['step']}: non-finite {bad}")
    for label, scores in (("teacher final eval", teacher["final_eval"]),
                          ("student train eval", trained["train_eval"])):
        if not np.isfinite(scores["mae"]):
            problems.append(f"{label}: non-finite MAE")
    return problems
