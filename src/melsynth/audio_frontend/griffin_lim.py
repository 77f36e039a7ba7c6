"""Waveform recovery: mel -> linear magnitude -> Griffin-Lim phase estimation."""

from __future__ import annotations

import functools

import numpy as np

from ..nn_core import NonFiniteError
from .mel import AudioConfig, hann_window, mel_filterbank, stft_magnitude


@functools.lru_cache(maxsize=8)
def _filterbank_pinv(config):
    pinv = np.linalg.pinv(mel_filterbank(config))
    pinv.setflags(write=False)
    return pinv


def mel_to_linear_magnitude(log_mel, config=AudioConfig()):
    """raw_log mel -> non-negative linear-frequency magnitude (bins, T)."""
    mel_mag = np.exp(np.asarray(log_mel, dtype=np.float64))
    return np.clip(_filterbank_pinv(config) @ mel_mag, 0.0, None)


def istft(spec, config=AudioConfig()):
    """Least-squares inverse of the centered STFT (window-squared overlap-add).

    `spec` carries the same 2/sum(window) scaling `stft_magnitude` applies;
    returns the de-padded waveform of length hop * (T - 1).

    The overlap-add works on blocks of hop samples: a frame spans r =
    ceil(win/hop) blocks (zero-padded to r * hop), so it is r strided adds of
    every frame at once. Chunks are added last-first, which sums each output
    sample over frames in increasing order, as a frame-by-frame loop would.
    """
    hop, width = config.hop_length, config.win_length
    win = hann_window(width)
    spec = np.asarray(spec)
    n_frames = spec.shape[1]
    r = -(-width // hop)
    frames = np.fft.irfft(spec.T, n=config.n_fft, axis=1)[:, :width]
    frames *= win * (win.sum() / 2.0)
    wsq = win * win
    if r * hop != width:
        frames = np.pad(frames, ((0, 0), (0, r * hop - width)))
        wsq = np.pad(wsq, (0, r * hop - width))
    chunks = frames.reshape(n_frames, r, hop)
    wsq = wsq.reshape(r, hop)
    y = np.zeros((n_frames + r - 1, hop))
    norm = np.zeros((n_frames + r - 1, hop))
    for j in reversed(range(r)):
        y[j:j + n_frames] += chunks[:, j]
        norm[j:j + n_frames] += wsq[j]
    y /= np.maximum(norm, 1e-10)
    length = hop * (n_frames - 1) + width
    pad = config.n_fft // 2
    return y.reshape(-1)[pad:length - pad]


def spectral_convergence(magnitude, waveform, config=AudioConfig()):
    """Relative Frobenius mismatch between |STFT(waveform)| and a target magnitude."""
    re = stft_magnitude(waveform, config)
    return float(np.linalg.norm(re - magnitude) / np.linalg.norm(magnitude))


def griffin_lim(log_mel, iterations=60, config=AudioConfig()):
    """Invert a raw_log mel spectrogram to a waveform, peak limited to <= 1.

    Classic fixed-point iteration: keep the target magnitude, re-estimate
    phase from the previous reconstruction. Zero initial phase keeps the
    output deterministic. Raises NonFiniteError when the mel's magnitude is
    not finite (e.g. exp overflow on a mel far above the log range).
    """
    if iterations < 1:
        raise ValueError("griffin_lim needs at least one iteration")
    # the pseudo-inverse output carries the same scaling stft_magnitude applies
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = mel_to_linear_magnitude(log_mel, config)
    if not np.isfinite(magnitude).all():
        raise NonFiniteError(
            f"non-finite linear magnitude from mel of shape {np.shape(log_mel)}")
    y = istft(magnitude.astype(np.complex128), config)
    if y.size < config.win_length:  # too short to re-analyze; keep zero phase
        iterations = 1
    for _ in range(iterations - 1):
        rebuilt = stft_magnitude(y, config, return_complex=True)
        rebuilt *= magnitude / np.maximum(np.abs(rebuilt), 1e-12)
        y = istft(rebuilt, config)
    peak = np.max(np.abs(y)) if y.size else 0.0
    if peak > 0.95:
        y = y * (0.95 / peak)
    return y.astype(np.float32)
