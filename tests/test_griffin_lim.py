"""Griffin-Lim inversion: framing arithmetic, FFT-peak recovery, monotonicity."""

import importlib
import importlib.util
import json
import re
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from melsynth.audio_frontend import (
    AudioConfig,
    griffin_lim,
    hann_window,
    istft,
    mel_to_linear_magnitude,
    spectral_convergence,
    stft_magnitude,
    wav_to_mel,
)
from melsynth.audio_frontend.griffin_lim import (BLOCK_FRAMES, FGLA_MOMENTUM,
                                                 GRIFFIN_LIM_ITERATIONS,
                                                 _initial_spectrum)
from melsynth.audio_frontend.mel import (analysis_frames, analysis_window,
                                         reflect_edges, stft_frames)
from melsynth.nn_core import NonFiniteError, pool

# the module, which the package's `griffin_lim` function shadows
GL = importlib.import_module("melsynth.audio_frontend.griffin_lim")
ROOT = Path(__file__).resolve().parents[1]
_checks = importlib.util.spec_from_file_location(
    "perfbench_checks", ROOT / "perfbench" / "checks.py")
CHECKS = importlib.util.module_from_spec(_checks)
_checks.loader.exec_module(CHECKS)
CFG = AudioConfig()
HOP300 = AudioConfig(hop_length=300)  # hop 300 does not divide the window
# a 400-sample window in a 1024-point FFT: the 512-sample reflect pad can be
# longer than the signal, and np.pad then reflects it off both ends
WIN400 = AudioConfig(win_length=400)
PARITY_CONFIGS = [CFG, HOP300, WIN400]
PARITY_IDS = ["hop256", "hop300", "win400"]


# Frame-by-frame reference implementations in float64: the float32
# vectorised code must match them within a tolerance (assert_near_reference).
# Their iterations start where griffin_lim's do, from the production initial
# estimate.

def initial_spectrum(magnitude, config):
    """(bins, frames) magnitude -> it times the phase-gradient initial phase,
    complex64, as griffin_lim starts from it."""
    target = np.ascontiguousarray(magnitude.T, dtype=np.float32)
    spec, scratch = (np.empty(target.shape, np.complex64) for _ in range(2))
    return _initial_spectrum(target, config, spec, scratch).T


def reference_stft(waveform, config, return_complex=False):
    x = np.pad(np.asarray(waveform, dtype=np.float64), config.n_fft // 2,
               mode="reflect")
    window = hann_window(config.win_length)
    n_frames = 1 + (x.size - config.win_length) // config.hop_length
    idx = (np.arange(config.win_length)[None, :]
           + config.hop_length * np.arange(n_frames)[:, None])
    spec = np.fft.rfft(x[idx] * window, n=config.n_fft, axis=1).T
    scale = 2.0 / window.sum()
    return spec * scale if return_complex else np.abs(spec) * scale


def reference_istft(spec, config):
    win = hann_window(config.win_length)
    spec = np.asarray(spec, np.complex128) / (2.0 / win.sum())
    n_frames = spec.shape[1]
    frames = np.fft.irfft(spec.T, n=config.n_fft, axis=1)[:, :config.win_length]
    frames *= win
    length = config.hop_length * (n_frames - 1) + config.win_length
    y = np.zeros(length)
    norm = np.zeros(length)
    for i in range(n_frames):
        o = i * config.hop_length
        y[o:o + config.win_length] += frames[i]
        norm[o:o + config.win_length] += win * win
    y /= np.maximum(norm, 1e-10)
    pad = config.n_fft // 2
    return y[pad:length - pad]


def reference_projection(y, magnitude, config):
    """The STFT of `y` with its magnitude replaced by `magnitude`."""
    rebuilt = reference_stft(y, config, return_complex=True)
    return magnitude * (rebuilt / np.maximum(np.abs(rebuilt), 1e-12))


def peak_limited(y):
    peak = np.max(np.abs(y)) if y.size else 0.0
    return (y * (0.95 / peak) if peak > 0.95 else y).astype(np.float32)


def reference_griffin_lim(log_mel, iterations, config, momentum=0.0):
    magnitude = mel_to_linear_magnitude(log_mel, config)
    y = reference_istft(initial_spectrum(magnitude, config), config)
    if y.size < config.win_length:
        iterations = 1
    prev = None
    for _ in range(iterations - 1):
        projected = reference_projection(y, magnitude, config)
        extrapolated = (projected if prev is None
                        else projected + momentum * (projected - prev))
        prev = projected
        y = reference_istft(extrapolated, config)
    return peak_limited(y)


def assert_near_reference(y, mel, iterations, config, momentum):
    """griffin_lim's float32 output against the float64 frame loop.

    One synthesis (the initial estimate, or istft) puts every sample within
    5e-5 of the reference's peak: float32 FFTs and overlap-add round at
    about 2e-7 of it. Iterations feed every rounding back through the
    phase, and the phase of the chord's noise bins is ill-conditioned: the
    float64 loop itself, with its signal perturbed by a random half float32
    step (3e-8 relative) each iteration, drifts 0.9-1.3% RMS in 20 fast
    iterations at hop 256 (six seeds). So after several iterations the
    waveforms may drift apart by up to 2.5% RMS, twice that (measured: at
    most 1.9%), while the spectral convergence, what the iterations
    minimise, stays within 1e-4 of the reference's (measured: at most
    5e-5).
    """
    reference = reference_griffin_lim(mel, iterations, config, momentum)
    assert y.dtype == np.float32 and y.shape == reference.shape
    if iterations == 1:
        assert_within_peak(y, reference)
        return
    ref = reference.astype(np.float64)
    rms = np.sqrt(np.mean((y - ref) ** 2) / np.mean(ref ** 2))
    assert rms <= 2.5e-2
    target = mel_to_linear_magnitude(mel, config)
    converged = spectral_convergence(target, ref, config)
    assert (abs(spectral_convergence(target, y, config) - converged)
            <= 1e-4 * converged)


def assert_within_peak(got, expected, share=5e-5):
    """Every sample of a float32 synthesis within `share` of the float64
    reference's peak."""
    assert got.shape == expected.shape
    error = np.abs(got - np.asarray(expected, np.float64)).max(initial=0.0)
    assert error <= share * np.abs(expected).max(initial=0.0)


# The vectorised Griffin-Lim that allocated per iteration, in griffin_lim's
# dtypes: at momentum 0 the buffer-reusing loop must reproduce it bit for bit.

def allocating_stft(y, config):
    x = np.pad(y, config.n_fft // 2, mode="reflect")
    window = hann_window(config.win_length)
    window = (window * (2.0 * config.n_fft / window.sum())).astype(np.float32)
    frames = (sliding_window_view(x, config.win_length)[::config.hop_length]
              * window)
    return np.fft.rfft(frames, n=config.n_fft, axis=1, norm="forward").T


def allocating_istft(spec, config):
    hop, width = config.hop_length, config.win_length
    win = hann_window(width)
    n_frames = spec.shape[1]
    r = -(-width // hop)
    frames = np.fft.irfft(spec.T, n=config.n_fft, axis=1)[:, :width]
    frames *= (win * (win.sum() / 2.0)).astype(np.float32)
    wsq = win * win
    if r * hop != width:
        frames = np.pad(frames, ((0, 0), (0, r * hop - width)))
        wsq = np.pad(wsq, (0, r * hop - width))
    chunks = frames.reshape(n_frames, r, hop)
    wsq = wsq.reshape(r, hop)
    y = np.zeros((n_frames + r - 1, hop), np.float32)
    norm = np.zeros((n_frames + r - 1, hop))
    for j in reversed(range(r)):
        y[j:j + n_frames] += chunks[:, j]
        norm[j:j + n_frames] += wsq[j]
    y /= np.maximum(norm, 1e-10).astype(np.float32)
    pad = config.n_fft // 2
    return y.reshape(-1)[pad:hop * (n_frames - 1) + width - pad]


def allocating_griffin_lim(log_mel, iterations, config):
    magnitude = mel_to_linear_magnitude(log_mel, config).astype(np.float32)
    y = allocating_istft(initial_spectrum(magnitude, config), config)
    if y.size < config.win_length:
        iterations = 1
    for _ in range(iterations - 1):
        rebuilt = allocating_stft(y, config)
        rebuilt *= magnitude / np.maximum(np.abs(rebuilt), 1e-12)
        y = allocating_istft(rebuilt, config)
    peak = np.max(np.abs(y)) if y.size else 0.0
    if peak > 0.95:
        y = y * (0.95 / peak)
    return y.astype(np.float32)


# Griffin-Lim with every step a whole-array pass over all frames, as before
# the iterations were streamed through blocks of frames, in griffin_lim's
# dtypes: the streamed loop must reproduce it bit for bit, with and without
# momentum.

def whole_array_overlap_add(frames, config, out):
    hop, width = config.hop_length, config.win_length
    out.fill(0.0)
    for start in reversed(range(0, width, hop)):
        j, stop = start // hop, min(start + hop, width)
        out[j:j + frames.shape[0], :stop - start] += frames[:, start:stop]
    return out


def whole_array_griffin_lim(log_mel, iterations, config, momentum):
    hop, width, n_fft = config.hop_length, config.win_length, config.n_fft
    target = np.ascontiguousarray(mel_to_linear_magnitude(log_mel, config).T,
                                  dtype=np.float32)
    n_frames, bins = target.shape
    win = hann_window(width)
    synthesis_window = (win * (win.sum() / 2.0)).astype(np.float32)
    analysis = analysis_window(config).astype(np.float32)
    shape = (n_frames - 1 + -(-width // hop), hop)
    norm = whole_array_overlap_add(np.broadcast_to(win * win, (n_frames, width)),
                                   config, np.empty(shape))
    norm = np.maximum(norm, 1e-10).astype(np.float32)
    blocks = np.empty(shape, np.float32)
    pad, length = n_fft // 2, hop * (n_frames - 1) + width
    padded = blocks.reshape(-1)[:length]
    frames = np.empty((n_frames, n_fft), np.float32)
    ratio = frames[:, :bins]

    def synthesize(spec):
        np.fft.irfft(spec, n=n_fft, axis=1, out=frames)
        frames[:, :width] *= synthesis_window
        whole_array_overlap_add(frames, config, blocks)
        np.divide(blocks, norm, out=blocks)
        return padded[pad:length - pad]

    spec, prev = (np.empty(target.shape, np.complex64) for _ in range(2))
    _initial_spectrum(target, config, spec, prev)
    y = synthesize(spec)
    if y.size < width:
        iterations = 1
    for n in range(iterations - 1):
        spec, prev = prev, spec
        reflect_edges(padded, pad)
        np.multiply(sliding_window_view(padded, width)[::hop], analysis,
                    out=frames[:, :width])
        frames[:, width:] = 0.0
        np.fft.rfft(frames, axis=1, norm="forward", out=spec)
        np.abs(spec, out=ratio)
        np.maximum(ratio, 1e-12, out=ratio)
        np.divide(target, ratio, out=ratio)
        spec *= ratio
        if momentum and n:
            np.subtract(spec, prev, out=prev)
            prev *= momentum
            prev += spec
            y = synthesize(prev)
        else:
            y = synthesize(spec)
    peak = np.max(np.abs(y)) if y.size else 0.0
    if peak > 0.95:
        y = y * (0.95 / peak)
    return y.astype(np.float32)


def speech_like_mel(n_frames, config, seed):
    """A raw_log mel the shape and range of a tts-b1 request's: smooth
    formant-like bands over a floor, a few hundred frames."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_frames)
    bins = np.arange(config.n_mels)[:, None]
    mel = np.full((config.n_mels, n_frames), -9.0)
    for _ in range(4):
        centre = rng.uniform(5, 60) + 6 * np.sin(t / rng.uniform(8, 30))
        mel = np.maximum(mel, rng.uniform(-3, 0) - ((bins - centre) / 4) ** 2)
    return (mel + rng.normal(scale=0.3, size=mel.shape)).astype(np.float32)


def chord(seconds, rate=22050):
    t = np.arange(int(seconds * rate)) / rate
    noise = np.random.default_rng(5).normal(scale=0.02, size=t.size)
    return (0.4 * np.sin(2 * np.pi * 440 * t) + 0.1 * np.sin(2 * np.pi * 1310 * t)
            + noise).astype(np.float32)


def sine(freq, seconds, rate=22050, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


def harmonic(seconds, rate=22050):
    """Eleven harmonics of 150 Hz with a slow vibrato."""
    t = np.arange(int(seconds * rate)) / rate
    return sum(0.3 / k * np.sin(2 * np.pi * 150 * k * t
                                 + 0.1 * k * np.sin(2 * np.pi * 3 * t))
               for k in range(1, 12))


class TestInitialPhase:
    """The phase-gradient start, on exact STFT magnitudes."""

    @pytest.mark.parametrize("config", [CFG, HOP300], ids=["hop256", "hop300"])
    @pytest.mark.parametrize("bin_position", [20.4, 46.3, 109.6])
    def test_sinusoid_phase_advance(self, config, bin_position):
        # between bins, the peak bin's own advance 2 pi hop m / n_fft is off
        # by about 0.7 rad; the log-magnitude gradient term must make it up
        freq = bin_position * config.sample_rate / config.n_fft
        x = sine(freq, 1.0, rate=config.sample_rate)
        spec = initial_spectrum(stft_magnitude(x, config), config)
        peak = int(round(bin_position))
        advance = np.angle(spec[peak, 6:-5] / spec[peak, 5:-6])
        expected = 2 * np.pi * config.hop_length * freq / config.sample_rate
        error = np.angle(np.exp(1j * (advance - expected)))
        assert np.abs(error).max() < 0.05

    def test_one_iteration_beats_zero_phase(self):
        magnitude = stft_magnitude(harmonic(2.0), CFG)
        start = spectral_convergence(
            magnitude, istft(initial_spectrum(magnitude, CFG), CFG), CFG)
        zero = spectral_convergence(
            magnitude, istft(magnitude.astype(np.complex128), CFG), CFG)
        assert start < 0.5 * zero

    def test_zero_bins_and_frames_give_finite_phase(self):
        magnitude = stft_magnitude(chord(0.5), CFG)
        magnitude[:, 3:7] = 0.0
        magnitude[200:, :] = 0.0
        for target in (magnitude, np.zeros_like(magnitude)):
            with np.errstate(all="raise"):
                spec = initial_spectrum(target, CFG)
            assert np.isfinite(spec).all()
            np.testing.assert_allclose(np.abs(spec), target, rtol=1e-6, atol=0)


class TestIstft:
    def test_stft_istft_roundtrip(self):
        x = sine(440, 0.5)
        spec = reference_stft(x, CFG, return_complex=True)
        y = istft(spec, CFG)
        n = CFG.hop_length * (spec.shape[1] - 1)
        assert y.shape[0] == n
        np.testing.assert_allclose(y, x[:n].astype(np.float64), atol=1e-6)

    def test_output_length_formula(self):
        x = sine(300, 0.73)
        spec = reference_stft(x, CFG, return_complex=True)
        assert istft(spec, CFG).shape[0] == CFG.hop_length * (spec.shape[1] - 1)

    @pytest.mark.parametrize("shape", [(100, 3), (513, 0), (513,), (513, 3, 1)])
    def test_spectrum_of_wrong_shape_named(self, shape):
        with pytest.raises(ValueError) as excinfo:
            istft(np.zeros(shape, np.complex128), CFG)
        excinfo.match(re.escape(str(shape)))
        excinfo.match("n_fft // 2 \\+ 1 = 513")


class TestParityWithFrameLoop:
    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_stft(self, config):
        x = chord(0.7)
        np.testing.assert_allclose(stft_magnitude(x, config),
                                   reference_stft(x, config), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_istft(self, config):
        spec = reference_stft(chord(0.7), config, return_complex=True)
        # a random phase gives frames that do not overlap consistently
        rng = np.random.default_rng(3)
        scrambled = np.abs(spec) * np.exp(2j * np.pi * rng.random(spec.shape))
        for s in (spec, scrambled, spec[:, :1], spec[:, :3]):
            y = istft(s, config)
            assert y.dtype == np.float32
            assert_within_peak(y, reference_istft(s, config))

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_griffin_lim_one_iteration(self, config):
        mel = wav_to_mel(chord(0.8), config)
        assert_near_reference(griffin_lim(mel, 1, config), mel, 1, config,
                              FGLA_MOMENTUM)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_griffin_lim(self, config):
        # 60 classic iterations, the baseline of tools/griffin_lim_curve.py
        mel = wav_to_mel(chord(0.8), config)
        y = griffin_lim(mel, 60, config, momentum=0.0)
        assert_near_reference(y, mel, 60, config, 0.0)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_griffin_lim_iteration_from_its_own_state(self, config):
        # the drift is the phase's conditioning, not an error that grows:
        # from the float32 loop's own signal after 19 or 59 classic
        # iterations (a scale leaves the projection's phase as it is), its
        # next iteration is within 1e-6 of the peak of the float64 frame
        # loop's (measured: at most 2.4e-7)
        mel = wav_to_mel(chord(0.8), config)
        magnitude = mel_to_linear_magnitude(mel, config)
        for iterations in (19, 59):
            state = griffin_lim(mel, iterations, config, momentum=0.0)
            expected = reference_istft(
                reference_projection(state, magnitude, config), config)
            assert_within_peak(
                griffin_lim(mel, iterations + 1, config, momentum=0.0),
                peak_limited(expected), share=1e-6)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_fast_griffin_lim(self, config):
        mel = wav_to_mel(chord(0.8), config)
        y = griffin_lim(mel, GRIFFIN_LIM_ITERATIONS, config,
                        momentum=FGLA_MOMENTUM)
        assert_near_reference(y, mel, GRIFFIN_LIM_ITERATIONS, config,
                              FGLA_MOMENTUM)

    @pytest.mark.parametrize("momentum", [0.0, FGLA_MOMENTUM])
    def test_griffin_lim_pad_longer_than_signal(self, momentum):
        # 5 frames de-pad to 256 * 4 + 400 - 1024 = 400 samples: one window,
        # shorter than the 512-sample reflect pad
        mel = wav_to_mel(chord(0.2), WIN400)[:, :5]
        y = griffin_lim(mel, GRIFFIN_LIM_ITERATIONS, WIN400, momentum=momentum)
        assert WIN400.win_length <= y.size <= WIN400.n_fft // 2
        assert_near_reference(y, mel, GRIFFIN_LIM_ITERATIONS, WIN400, momentum)

    @pytest.mark.parametrize("config", [CFG, HOP300], ids=["hop256", "hop300"])
    def test_griffin_lim_shorter_than_one_window(self, config):
        # too short to re-analyse: every iteration count gives the initial
        # estimate
        mel = wav_to_mel(chord(0.2), config)[:, :3]
        y = griffin_lim(mel, 60, config, momentum=0.0)
        assert 0 < y.size < config.win_length
        assert_near_reference(y, mel, 1, config, 0.0)

    def test_float32_rfft_stays_in_single_precision(self):
        # with an int scale, numpy runs a float32 rfft in float64 through a
        # 1 MiB cast buffer per block of 64 frames, 3-4 times slower; the
        # window product's ufunc buffers take 65 KiB
        block = chord(0.8)[:BLOCK_FRAMES * CFG.hop_length + CFG.n_fft]
        segments = analysis_frames(block, CFG)[:BLOCK_FRAMES]
        window = analysis_window(CFG).astype(np.float32)
        frames = np.empty((BLOCK_FRAMES, CFG.n_fft), np.float32)
        out = np.empty((BLOCK_FRAMES, CFG.n_fft // 2 + 1), np.complex64)
        tracemalloc.start()
        try:
            spec = stft_frames(segments, window, frames, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.dtype == np.complex64
        assert peak < frames.nbytes // 2


class TestBitIdenticalAtZeroMomentum:
    @pytest.mark.parametrize("config", [CFG, HOP300], ids=["hop256", "hop300"])
    def test_matches_allocating_loop(self, config):
        mel = speech_like_mel(330, config, seed=2)
        for iterations in (1, 2, 7, 30):
            assert np.array_equal(
                griffin_lim(mel, iterations, config, momentum=0.0),
                allocating_griffin_lim(mel, iterations, config))


class TestBitIdenticalToWholeArrayPasses:
    # one block, a partial block, block edges, and 5 frames: under WIN400,
    # a 400-sample signal shorter than its 512-sample reflect pad
    FRAME_COUNTS = [1, 5, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1,
                    2 * BLOCK_FRAMES + 3]

    @pytest.mark.parametrize("momentum", [FGLA_MOMENTUM, 0.0])
    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=PARITY_IDS)
    def test_matches_whole_array_loop(self, config, momentum):
        for n_frames in self.FRAME_COUNTS:
            mel = speech_like_mel(n_frames, config, seed=n_frames)
            assert np.array_equal(
                griffin_lim(mel, 6, config, momentum=momentum),
                whole_array_griffin_lim(mel, 6, config, momentum)), n_frames


class TestSameForAnyWorkerCount:
    FRAME_COUNTS = [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1,
                    2 * BLOCK_FRAMES + 3, 686]

    def outputs(self):
        outputs = []
        for n_frames in self.FRAME_COUNTS:
            mel = speech_like_mel(n_frames, CFG, seed=n_frames)
            for momentum in (0.0, FGLA_MOMENTUM):
                outputs.append(griffin_lim(mel, 4, CFG, momentum=momentum))
            rng = np.random.default_rng(n_frames)
            spec = rng.normal(size=(2, CFG.n_fft // 2 + 1, n_frames))
            outputs.append(istft(spec[0] + 1j * spec[1], CFG))
        return outputs

    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_the_default_pool(self, block_pools, monkeypatch, workers):
        default = self.outputs()
        monkeypatch.setattr(pool, "worker_pool", lambda: block_pools[workers])
        for expected, got in zip(default, self.outputs(), strict=True):
            assert np.array_equal(expected, got)

    @pytest.mark.parametrize("workers", [1, 3, None], ids=["1", "3", "default"])
    def test_error_in_a_block_leaves_after_every_block_ends(
            self, block_pools, monkeypatch, workers):
        if workers:
            monkeypatch.setattr(pool, "worker_pool", lambda: block_pools[workers])
        n_frames = 8 * BLOCK_FRAMES
        synthesis = GL._Synthesis(CFG, n_frames)
        spec = np.zeros((n_frames, CFG.n_fft // 2 + 1), np.complex64)
        lock, running, started = threading.Lock(), [], threading.Event()

        def spectra(rows, frames):
            with lock:
                running.append(rows.start)
            try:
                if rows.start == BLOCK_FRAMES:
                    # fail while a later block is being made, where there
                    # are threads to make one
                    started.wait(timeout=0.5)
                    raise RuntimeError("block 1 failed")
                if rows.start > BLOCK_FRAMES:
                    started.set()
                    time.sleep(0.1)
                return spec[rows]
            finally:
                with lock:
                    running.remove(rows.start)

        with pytest.raises(RuntimeError, match="block 1 failed"):
            synthesis.synthesize(spectra, synthesis.signal_buffer())
        assert running == []


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), pad=st.integers(0, 100))
def test_reflect_edges_matches_np_pad(n, pad):
    x = np.random.default_rng(n).normal(size=n)
    padded = np.full(n + 2 * pad, np.nan)
    padded[pad:pad + n] = x
    reflect_edges(padded, pad)
    assert np.array_equal(padded, np.pad(x, pad, mode="reflect"))


class TestMelInversion:
    def test_pseudo_inverse_recovers_scaled_magnitude(self):
        x = sine(440, 0.4)
        target = stft_magnitude(x, CFG)
        approx = mel_to_linear_magnitude(wav_to_mel(x, CFG), CFG)
        assert approx.shape == target.shape
        # mel compresses 513 bins to 80; demand gross agreement only
        err = np.linalg.norm(approx - target) / np.linalg.norm(target)
        assert err < 0.5

    def test_non_negative(self):
        mag = mel_to_linear_magnitude(wav_to_mel(sine(1200, 0.3), CFG), CFG)
        assert mag.min() >= 0.0


class TestGriffinLim:
    def test_pure_tone_dominant_frequency(self):
        mel = wav_to_mel(sine(440, 1.0), CFG)
        y = griffin_lim(mel, iterations=60, config=CFG)
        spectrum = np.abs(np.fft.rfft(y.astype(np.float64)))
        freqs = np.fft.rfftfreq(y.shape[0], d=1.0 / CFG.sample_rate)
        dominant = freqs[int(np.argmax(spectrum))]
        bin_width = CFG.sample_rate / CFG.n_fft
        assert abs(dominant - 440.0) <= bin_width

    def test_output_length(self):
        mel = wav_to_mel(sine(440, 0.61), CFG)
        y = griffin_lim(mel, iterations=2, config=CFG)
        assert y.shape[0] == CFG.hop_length * (mel.shape[1] - 1)

    def test_peak_bounded(self):
        mel = wav_to_mel(sine(440, 0.3, amp=0.95), CFG)
        y = griffin_lim(mel, iterations=5, config=CFG)
        assert np.max(np.abs(y)) <= CHECKS.PEAK_LIMIT

    def test_spectral_convergence_non_increasing(self):
        mel = wav_to_mel(sine(440, 0.5), CFG)
        target = mel_to_linear_magnitude(mel, CFG)
        errors = []
        for iters in (1, 5, 15, 40):
            y = griffin_lim(mel, iterations=iters, config=CFG, momentum=0.0)
            errors.append(spectral_convergence(target, y, CFG))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-6

    def test_fast_spectral_convergence_non_increasing(self):
        mel = wav_to_mel(sine(440, 0.5), CFG)
        target = mel_to_linear_magnitude(mel, CFG)
        errors = []
        for iters in (1, 2, 3, 5, 8, 13, 21):
            y = griffin_lim(mel, iterations=iters, config=CFG)  # FGLA default
            errors.append(spectral_convergence(target, y, CFG))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-6

    def test_non_finite_magnitude_rejected(self):
        mel = wav_to_mel(sine(440, 0.3), CFG)
        mel[5, 7] = 1e5  # exp overflows to inf
        with pytest.raises(NonFiniteError, match=r"\(80, %d\)" % mel.shape[1]):
            griffin_lim(mel, iterations=3, config=CFG)

    @pytest.mark.parametrize("shape", [(80, 0), (79, 12), (80,)])
    def test_mel_of_wrong_shape_named(self, shape):
        with pytest.raises(ValueError) as excinfo:
            griffin_lim(np.zeros(shape, dtype=np.float32), 3, CFG)
        excinfo.match(re.escape(str(shape)))
        excinfo.match("n_mels = 80")

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            griffin_lim(np.zeros((80, 10), dtype=np.float32), iterations=0)

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, float("nan")])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            griffin_lim(np.zeros((80, 10), dtype=np.float32), 3,
                        momentum=momentum)

    def test_peak_memory_within_its_buffers(self):
        mel = speech_like_mel(686, CFG, seed=1)
        griffin_lim(mel, 2, CFG)  # builds the cached filterbank inverse
        n_frames, bins = mel.shape[1], CFG.n_fft // 2 + 1
        blocks = n_frames - 1 + -(-CFG.win_length // CFG.hop_length)
        _, workers = pool.worker_pool()
        slots = workers + 1 if workers > 1 else 1
        # the float32 target, the complex64 projection and previous
        # projection, the float32 signal buffers, norm and ring of blocks'
        # frames: one slot more than there are workers, one slot on one CPU
        real = np.dtype(np.float32).itemsize
        complex_ = np.dtype(np.complex64).itemsize
        buffers = (real * n_frames * bins + complex_ * 2 * n_frames * bins
                   + real * (3 * blocks * CFG.hop_length
                             + slots * BLOCK_FRAMES * CFG.n_fft))
        tracemalloc.start()
        try:
            griffin_lim(mel, 20, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one more real (frames, bins) temporary would add 15%
        assert peak <= 1.1 * buffers

    def test_default_iterations_follow_the_committed_curve(self):
        curve = json.loads((ROOT / "griffin_lim_curve.json").read_text())
        assert curve["smallest_meeting"][str(FGLA_MOMENTUM)] == GRIFFIN_LIM_ITERATIONS

    def test_deterministic(self):
        mel = wav_to_mel(sine(600, 0.3), CFG)
        a = griffin_lim(mel, iterations=3, config=CFG)
        b = griffin_lim(mel, iterations=3, config=CFG)
        np.testing.assert_array_equal(a, b)
