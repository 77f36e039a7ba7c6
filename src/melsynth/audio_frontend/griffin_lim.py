"""Waveform recovery: mel -> linear magnitude -> Griffin-Lim phase estimation."""

from __future__ import annotations

import functools

import numpy as np

from ..nn_core import NonFiniteError, pool
from .mel import (AudioConfig, analysis_frames, analysis_window, hann_window,
                  mel_filterbank, reflect_edges, stft_frames, stft_magnitude)

# Fast Griffin-Lim from the phase-gradient initial phase at 20 iterations
# matches the spectral convergence of 60 classic iterations on tts-b1 mels
# (griffin_lim_curve.json, smallest_meeting).
FGLA_MOMENTUM = 0.99
GRIFFIN_LIM_ITERATIONS = 20
# A Hann window of L samples is treated as a Gaussian of time-frequency
# ratio HANN_GAMMA * L**2 (Prusa, Balazs & Sondergaard, TASLP 2017).
HANN_GAMMA = 0.25645
# The initial phase reads log-magnitudes at most this far (natural log) below
# the target's peak: the pseudo-inverse clips bins to 0, and the gradients
# of log 0 or of tiny values would throw the phase estimate off.
PHASE_LOG_RANGE = 4.0
# Frames per block of a synthesis pass. A Griffin-Lim iteration carries a
# block from analysis to overlap-add while its rows stay in cache: the
# float32 frames work buffer, the complex64 projection and previous
# projection and the float32 target take BLOCK_FRAMES * (4 n_fft + 20 bins)
# bytes, 0.9 MB at n_fft 1024.
BLOCK_FRAMES = 64


@functools.lru_cache(maxsize=8)
def _filterbank_pinv(config):
    pinv = np.linalg.pinv(mel_filterbank(config))
    pinv.setflags(write=False)
    return pinv


def mel_to_linear_magnitude(log_mel, config=AudioConfig()):
    """raw_log mel -> non-negative linear-frequency magnitude (bins, T)."""
    mel_mag = np.exp(np.asarray(log_mel, dtype=np.float64))
    return np.clip(_filterbank_pinv(config) @ mel_mag, 0.0, None)


def _overlap_add(frames, config, out):
    """Add `frames` (n_frames, >= win), placed every hop samples, into `out`.

    `out` is (n_frames + r - 1, hop): the signal in blocks of hop samples,
    from the first frame's start. A frame spans r = ceil(win/hop) blocks,
    so the sum is r strided adds of every frame at once; the last block of a
    frame is partial when hop does not divide win. Chunks are added
    last-first, which sums each output sample over frames in increasing
    order, as a frame-by-frame loop would, also when a signal's frames are
    added a block of frames at a time, in order.
    """
    hop, width = config.hop_length, config.win_length
    n_frames = frames.shape[0]
    for start in reversed(range(0, width, hop)):
        j, stop = start // hop, min(start + hop, width)
        out[j:j + n_frames, :stop - start] += frames[:, start:stop]
    return out


class _Synthesis:
    """Least-squares inverse of the centered STFT for one frame count, in
    float32.

    The window-squared norm (summed in float64), its 1e-10 clip, the
    synthesis window and a ring of (BLOCK_FRAMES, n_fft) block buffers are
    built once. A signal buffer (`signal_buffer`) holds the signal in
    blocks of hop samples with n_fft // 2 samples of padding on each side:
    `padded` views it in the layout `analysis_frames` reads, so re-analysis
    needs no copy.
    """

    def __init__(self, config, n_frames):
        hop, width = config.hop_length, config.win_length
        win = hann_window(width)
        self.config, self.n_frames = config, n_frames
        self.span = -(-width // hop)  # blocks of hop samples a frame spans
        self.shape = (n_frames - 1 + self.span, hop)
        # undoes the 2/sum(window) scaling stft_magnitude applies
        self.window = (win * (win.sum() / 2.0)).astype(np.float32)
        norm = _overlap_add(np.broadcast_to(win * win, (n_frames, width)),
                            config, np.zeros(self.shape))
        self.norm = np.maximum(norm, 1e-10, out=norm).astype(np.float32)
        self.starts = range(0, n_frames, BLOCK_FRAMES)
        workers = pool.worker_pool()[1]
        # a block's frames stay in their slot until they are added, so one
        # slot more than there are workers keeps every worker busy; alone,
        # the calling thread reuses one slot while it is in cache
        slots = min(workers + 1, len(self.starts)) if workers > 1 else 1
        self.ring = np.empty((slots, min(n_frames, BLOCK_FRAMES),
                              config.n_fft), np.float32)

    def signal_buffer(self):
        return np.empty(self.shape, np.float32)

    def padded(self, blocks):
        config = self.config
        length = config.hop_length * (self.n_frames - 1) + config.win_length
        return blocks.reshape(-1)[:length]

    def synthesize(self, spectra, blocks):
        """Synthesise every frame into `blocks`, a block of frames at a time;
        returns the signal without its padding, a view of `blocks`.

        `spectra(rows, frames)` gives the frame-major spectrum of the frames
        in slice `rows`; `frames` is that block's rows of its ring slot,
        free for it to use until it returns. Making a block (`spectra`,
        `irfft`, synthesis window) is one job of `pool.run_in_order`, up to
        one ring ahead; the calling thread zeroes, adds and normalises each
        block in frame order. `spectra` may read shared arrays and write
        its own rows only.
        """
        config, span, n_frames = self.config, self.span, self.n_frames

        def frames_of(i):
            first = self.starts[i]
            stop = min(first + BLOCK_FRAMES, n_frames)
            frames = self.ring[i % len(self.ring)][:stop - first]
            np.fft.irfft(spectra(slice(first, stop), frames), n=config.n_fft,
                         axis=1, out=frames)
            frames[:, :config.win_length] *= self.window
            return frames

        def add(i, frames):
            first = self.starts[i]
            stop = first + frames.shape[0]
            # zero what no earlier frame reached, add, and normalise what
            # no later frame reaches: frame `stop` starts at block `stop`
            blocks[first + span - 1:stop + span - 1] = 0.0
            _overlap_add(frames, config, blocks[first:stop + span - 1])
            done = slice(first, stop if stop < n_frames else None)
            np.divide(blocks[done], self.norm[done], out=blocks[done])

        blocks[:span - 1] = 0.0
        pool.run_in_order(frames_of, add, len(self.starts), len(self.ring))
        padded, pad = self.padded(blocks), config.n_fft // 2
        return padded[pad:padded.size - pad]


def istft(spec, config=AudioConfig()):
    """Least-squares inverse of the centered STFT (window-squared overlap-add).

    `spec` (bins, frames) carries the same 2/sum(window) scaling
    `stft_magnitude` applies; returns the de-padded float32 waveform of
    length hop * (frames - 1), synthesised from `spec` in complex64.
    """
    spec, bins = np.asarray(spec, np.complex64), config.n_fft // 2 + 1
    if spec.ndim != 2 or spec.shape[0] != bins or spec.shape[1] == 0:
        raise ValueError(f"istft needs a spectrum of n_fft // 2 + 1 = {bins} "
                         f"rows and at least one frame, got shape "
                         f"{spec.shape}")
    spec = spec.T
    synthesis = _Synthesis(config, spec.shape[0])
    return synthesis.synthesize(lambda rows, frames: spec[rows],
                                synthesis.signal_buffer())


def spectral_convergence(magnitude, waveform, config=AudioConfig()):
    """Relative Frobenius mismatch between |STFT(waveform)| and a target magnitude."""
    re = stft_magnitude(waveform, config)
    return float(np.linalg.norm(re - magnitude) / np.linalg.norm(magnitude))


def griffin_lim(log_mel, iterations=GRIFFIN_LIM_ITERATIONS, config=AudioConfig(),
                momentum=FGLA_MOMENTUM):
    """Invert a raw_log mel spectrogram to a float32 waveform, peak limited
    to 0.95.

    Fixed-point iteration: keep the target magnitude, re-estimate phase from
    the previous reconstruction. With `momentum` alpha > 0 this is the fast
    Griffin-Lim algorithm (Perraudin, Balazs & Sondergaard, 2013): each
    projection c_n is extrapolated to t_n = c_n + alpha * (c_n - c_{n-1})
    before the next inverse STFT, from the second projection on; alpha = 0 is
    the classic algorithm (kept for tests that pin its output). The first
    estimate takes its phase from the target magnitude alone, by
    phase-gradient integration over frames (`_initial_spectrum`); it is a
    function of the mel, so the output stays deterministic.
    Raises NonFiniteError when the mel's magnitude is not finite (e.g. exp
    overflow on a mel far above the log range).
    """
    if iterations < 1:
        raise ValueError("griffin_lim needs at least one iteration")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"griffin_lim momentum {momentum} is outside [0, 1)")
    shape = np.shape(log_mel)
    if len(shape) != 2 or shape[0] != config.n_mels:
        raise ValueError(f"griffin_lim needs a mel of n_mels = {config.n_mels} "
                         f"rows, got shape {shape}")
    if shape[1] == 0:
        raise ValueError(f"griffin_lim got a mel of shape {shape}, with no "
                         f"frames (n_mels = {config.n_mels})")
    # the pseudo-inverse output carries the same scaling stft_magnitude applies
    with np.errstate(over="ignore", invalid="ignore"):
        target = np.ascontiguousarray(mel_to_linear_magnitude(log_mel, config).T,
                                      dtype=np.float32)
    if not np.isfinite(target).all():
        raise NonFiniteError(
            f"non-finite linear magnitude from mel of shape {shape}")
    y = _iterate(target, iterations, config, momentum)
    peak = np.max(np.abs(y)) if y.size else 0.0
    # one float32 copy out of the signal buffer; the float32 scale leaves
    # the peak within a float32 rounding of 0.95
    return y * (0.95 / peak if peak > 0.95 else 1.0)


def _initial_spectrum(target, config, spec, scratch):
    """The target magnitude with a phase-gradient initial phase, into `spec`.

    Time-direction phase-gradient integration (Prusa, Balazs & Sondergaard,
    TASLP 2017): with hop a, n_fft M and bin m, the phase advances per hop by
    2 pi a m / M + (a M / gamma) d(log s)/dm, for gamma = HANN_GAMMA * win**2
    and a centred difference over bins (one-sided at the edges); the
    advances are summed over frames by the trapezoid rule, from 0 at frame
    0. The estimate is exact for a Gaussian window and a stationary
    sinusoid. `target` (float32) and `spec` (complex64) are frame-major
    (frames, bins); `scratch` is a complex64 (frames, bins) work buffer.
    The phase is summed in float64: viewed as float64, each complex64 buffer
    is a (frames, bins) array, so scratch holds log s, then the phase, while
    spec holds half of each advance.
    """
    hop, n_fft, bins = config.hop_length, config.n_fft, target.shape[1]
    logs, half = scratch.view(np.float64), spec.view(np.float64)
    peak = target.max(initial=0.0)
    # an all-zero target floors at 1, a flat log-magnitude
    np.maximum(target, peak * np.exp(-PHASE_LOG_RANGE) or 1.0, out=logs)
    np.log(logs, out=logs)
    np.subtract(logs[:, 2:], logs[:, :-2], out=half[:, 1:-1])
    np.subtract(logs[:, 1], logs[:, 0], out=half[:, 0])
    np.subtract(logs[:, -1], logs[:, -2], out=half[:, -1])
    scale = np.full(bins, hop * n_fft / (2.0 * HANN_GAMMA * config.win_length ** 2))
    scale[1:-1] *= 0.5  # a centred difference spans two bins
    half *= scale
    # the bin's own advance, reduced mod 2 pi in integers
    half += (np.pi / n_fft) * (hop * np.arange(bins) % n_fft)
    # trapezoid rule: phase_n = sum over k < n of half_k + half_{k+1}
    phase = logs
    phase[0] = 0.0
    np.add(half[:-1], half[1:], out=phase[1:])
    np.cumsum(phase, axis=0, out=phase)
    # float32 sin and cos are vectorised, and an initial estimate needs no
    # more precision; the advances in spec are spent
    np.cos(phase, out=spec.real, dtype=np.float32)
    np.sin(phase, out=spec.imag, dtype=np.float32)
    spec *= target
    return spec


def _iterate(target, iterations, config, momentum):
    """The phase iterations on a frame-major target magnitude -> signal.

    Each iteration is one synthesis pass: a block of frames is analysed from
    the previous iteration's signal, projected onto the target magnitude,
    extrapolated and added into the next signal while its rows sit in
    cache. Every buffer is allocated once and freed on return: the
    projection and the previous projection are two complex64 (frames, bins)
    buffers swapped each iteration, never copied (the second also holds the
    initial log-magnitude and phase), and two signal buffers likewise.
    """
    bins = target.shape[1]
    synthesis = _Synthesis(config, target.shape[0])
    spec = np.empty(target.shape, np.complex64)
    prev = np.empty_like(spec)
    _initial_spectrum(target, config, spec, prev)
    signals = [synthesis.signal_buffer() for _ in range(2)]
    segments = [analysis_frames(synthesis.padded(b), config) for b in signals]
    y = synthesis.synthesize(lambda rows, frames: spec[rows], signals[0])
    if y.size < config.win_length:  # too short to re-analyze: the initial estimate
        return y
    window = analysis_window(config).astype(np.float32)
    for n in range(iterations - 1):
        spec, prev = prev, spec  # prev keeps the last projection
        current = n % 2
        reflect_edges(synthesis.padded(signals[current]), config.n_fft // 2)

        def project(rows, frames):
            block = spec[rows]
            stft_frames(segments[current][rows], window, frames, out=block)
            ratio = frames[:, :bins]
            np.abs(block, out=ratio)
            np.maximum(ratio, 1e-12, out=ratio)
            np.divide(target[rows], ratio, out=ratio)
            block *= ratio
            if not (momentum and n):
                return block
            extrapolated = prev[rows]
            np.subtract(block, extrapolated, out=extrapolated)
            extrapolated *= momentum
            extrapolated += block
            return extrapolated

        y = synthesis.synthesize(project, signals[1 - current])
    return y
