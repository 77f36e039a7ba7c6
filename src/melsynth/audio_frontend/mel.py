"""STFT, mel filterbank, and the two spectrogram normalization regimes."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# natural-log dynamic range of the clamped magnitudes; fixed so that
# unit-interval scaling is corpus independent
LOG_FLOOR = 1e-5
MIN_DB = float(np.log(LOG_FLOOR))
MAX_DB = 2.0


@dataclass(frozen=True)
class AudioConfig:
    sample_rate: int = 22050
    n_fft: int = 1024
    win_length: int = 1024
    hop_length: int = 256
    n_mels: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0


def hann_window(length):
    """Periodic Hann (sums to length/2 at any hop dividing the length)."""
    n = np.arange(length)
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)).astype(np.float64)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(config=AudioConfig()):
    """(n_mels, n_fft//2+1) triangular filters, peak 1, HTK mel spacing.

    Built once per config; the cached array is shared, so it is read-only.
    """
    n_bins = config.n_fft // 2 + 1
    fft_freqs = np.linspace(0.0, config.sample_rate / 2.0, n_bins)
    edges = mel_to_hz(np.linspace(hz_to_mel(config.fmin), hz_to_mel(config.fmax),
                                  config.n_mels + 2))
    fb = np.zeros((config.n_mels, n_bins))
    for m in range(config.n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    fb.setflags(write=False)
    return fb


def analysis_window(config):
    """The Hann window with the 2/sum(window) magnitude scaling folded in,
    times n_fft, which `stft_frames`' forward-normalised rfft divides out."""
    window = hann_window(config.win_length)
    return window * (2.0 * config.n_fft / window.sum())


def reflect_edges(padded, pad):
    """Fill the first and last `pad` samples of `padded` in place, so that
    it equals np.pad(padded[pad:-pad], pad, mode="reflect").

    A pad longer than the signal reflects again off the far end, as np.pad
    does: the padded signal is periodic with period 2 * (signal size - 1).
    """
    n = padded.size - 2 * pad
    x = padded[pad:pad + n]
    period = max(2 * (n - 1), 1)
    for edge, start in ((padded[:pad], -pad), (padded[pad + n:], n)):
        idx = np.arange(start, start + pad) % period
        np.take(x, np.where(idx < n, idx, period - idx), out=edge)


def analysis_frames(padded, config):
    """The frames of a centered STFT, a (frames, win) view of `padded`: the
    signal with its n_fft // 2 reflected samples on each side
    (`reflect_edges`)."""
    return sliding_window_view(padded, config.win_length)[::config.hop_length]


def stft_frames(segments, window, frames, out=None):
    """Windowed rfft of `segments` (rows of `analysis_frames`), frame-major:
    (frames, bins) into `out`.

    `window` is `analysis_window(config)`; `frames` ((len(segments), n_fft))
    is a work buffer, so a caller that analyses a signal a block of frames
    at a time, or many signals of one length, allocates nothing per call.
    The rfft runs in the dtype of `frames`. With the default norm, numpy
    passes its scale as the int 1 and a float32 rfft falls back to the
    float64 loop through a cast buffer; norm="forward" passes 1/n_fft in
    the input's precision. At a power-of-two n_fft the 1/n_fft scale and
    the window's n_fft factor are exact, so float64 spectra keep their bits.
    """
    width = segments.shape[1]
    np.multiply(segments, window, out=frames[:, :width])
    frames[:, width:] = 0.0
    return np.fft.rfft(frames, axis=1, norm="forward", out=out)


def stft_magnitude(waveform, config=AudioConfig()):
    """Centered STFT (bins, frames); magnitudes scaled by 2/sum(window).

    The scaling puts a full-scale sine near log-magnitude 0, so the fixed
    MIN_DB/MAX_DB range covers speech without corpus-dependent statistics.
    """
    x = np.asarray(waveform, dtype=np.float64)
    if x.size < config.win_length:
        raise ValueError(
            f"waveform of {x.size} samples is shorter than one window ({config.win_length})"
        )
    pad = config.n_fft // 2
    padded = np.empty(x.size + 2 * pad)
    padded[pad:pad + x.size] = x
    reflect_edges(padded, pad)
    segments = analysis_frames(padded, config)
    spec = stft_frames(segments, analysis_window(config),
                       np.empty((len(segments), config.n_fft))).T
    return np.abs(spec)


def wav_to_mel(waveform, config=AudioConfig()):
    """Log-mel spectrogram (n_mels, T), natural log, floor-clamped (raw_log)."""
    mag = stft_magnitude(waveform, config)
    mel = mel_filterbank(config) @ mag
    return np.log(np.maximum(mel, LOG_FLOOR)).astype(np.float32)


def frame_count(n_samples, config=AudioConfig()):
    """T for a centered STFT of n_samples: windows of win_length samples,
    hop apart, over the signal with n_fft // 2 samples reflected on each side."""
    padded = n_samples + 2 * (config.n_fft // 2)
    return 1 + (padded - config.win_length) // config.hop_length


def normalize_unit(mel):
    """raw_log -> [0, 1] with the fixed corpus-independent range."""
    out = (np.asarray(mel, dtype=np.float32) - MIN_DB) / (MAX_DB - MIN_DB)
    return np.clip(out, 0.0, 1.0)


def normalize_standard(mel, mean, std):
    """raw_log -> zero-mean/unit-variance given corpus scalar stats."""
    if std == 0:
        raise ValueError("corpus std is zero; cannot standardize")
    return ((np.asarray(mel, dtype=np.float32) - mean) / std).astype(np.float32)


def denormalize_standard(mel, mean, std):
    return (np.asarray(mel, dtype=np.float32) * std + mean).astype(np.float32)


def corpus_stats(mels):
    """Global scalar mean/std over every cell of every raw_log spectrogram."""
    total = 0.0
    total_sq = 0.0
    count = 0
    for mel in mels:
        m = np.asarray(mel, dtype=np.float64)
        total += m.sum()
        total_sq += (m * m).sum()
        count += m.size
    if count == 0:
        raise ValueError("no spectrograms given")
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return float(mean), float(np.sqrt(var))
