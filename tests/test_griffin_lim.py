"""Griffin-Lim inversion: framing arithmetic, FFT-peak recovery, monotonicity."""

import numpy as np
import pytest

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
from melsynth.nn_core import NonFiniteError

CFG = AudioConfig()
# hop 300 does not divide the 1024-sample window
PARITY_CONFIGS = [CFG, AudioConfig(hop_length=300)]


# Frame-by-frame reference implementations: the vectorised code must match.

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
    spec = np.asarray(spec) / (2.0 / win.sum())
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


def reference_griffin_lim(log_mel, iterations, config):
    magnitude = mel_to_linear_magnitude(log_mel, config)
    y = reference_istft(magnitude.astype(np.complex128), config)
    if y.size < config.win_length:
        iterations = 1
    for _ in range(iterations - 1):
        rebuilt = reference_stft(y, config, return_complex=True)
        phase = rebuilt / np.maximum(np.abs(rebuilt), 1e-12)
        y = reference_istft(magnitude * phase, config)
    peak = np.max(np.abs(y)) if y.size else 0.0
    if peak > 0.95:
        y = y * (0.95 / peak)
    return y.astype(np.float32)


def chord(seconds, rate=22050):
    t = np.arange(int(seconds * rate)) / rate
    noise = np.random.default_rng(5).normal(scale=0.02, size=t.size)
    return (0.4 * np.sin(2 * np.pi * 440 * t) + 0.1 * np.sin(2 * np.pi * 1310 * t)
            + noise).astype(np.float32)


def sine(freq, seconds, rate=22050, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestIstft:
    def test_stft_istft_roundtrip(self):
        x = sine(440, 0.5)
        spec = stft_magnitude(x, CFG, return_complex=True)
        y = istft(spec, CFG)
        n = CFG.hop_length * (spec.shape[1] - 1)
        assert y.shape[0] == n
        np.testing.assert_allclose(y, x[:n].astype(np.float64), atol=1e-6)

    def test_output_length_formula(self):
        x = sine(300, 0.73)
        spec = stft_magnitude(x, CFG, return_complex=True)
        assert istft(spec, CFG).shape[0] == CFG.hop_length * (spec.shape[1] - 1)


class TestParityWithFrameLoop:
    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=["hop256", "hop300"])
    def test_stft(self, config):
        x = chord(0.7)
        for as_complex in (False, True):
            np.testing.assert_allclose(
                stft_magnitude(x, config, return_complex=as_complex),
                reference_stft(x, config, return_complex=as_complex),
                rtol=0, atol=1e-9)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=["hop256", "hop300"])
    def test_istft(self, config):
        spec = reference_stft(chord(0.7), config, return_complex=True)
        # a random phase gives frames that do not overlap consistently
        rng = np.random.default_rng(3)
        scrambled = np.abs(spec) * np.exp(2j * np.pi * rng.random(spec.shape))
        for s in (spec, scrambled, spec[:, :1], spec[:, :3]):
            np.testing.assert_allclose(istft(s, config),
                                       reference_istft(s, config),
                                       rtol=0, atol=1e-9)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=["hop256", "hop300"])
    def test_griffin_lim(self, config):
        mel = wav_to_mel(chord(0.8), config)
        np.testing.assert_allclose(griffin_lim(mel, 60, config),
                                   reference_griffin_lim(mel, 60, config),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("config", PARITY_CONFIGS, ids=["hop256", "hop300"])
    def test_griffin_lim_shorter_than_one_window(self, config):
        mel = wav_to_mel(chord(0.2), config)[:, :3]
        y = griffin_lim(mel, 60, config)
        assert 0 < y.size < config.win_length
        np.testing.assert_allclose(y, reference_griffin_lim(mel, 60, config),
                                   rtol=0, atol=1e-6)


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
        assert np.max(np.abs(y)) <= 1.0

    def test_spectral_convergence_non_increasing(self):
        mel = wav_to_mel(sine(440, 0.5), CFG)
        target = mel_to_linear_magnitude(mel, CFG)
        errors = []
        for iters in (1, 5, 15, 40):
            y = griffin_lim(mel, iterations=iters, config=CFG)
            errors.append(spectral_convergence(target, y, CFG))
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-6

    def test_non_finite_magnitude_rejected(self):
        mel = wav_to_mel(sine(440, 0.3), CFG)
        mel[5, 7] = 1e5  # exp overflows to inf
        with pytest.raises(NonFiniteError, match=r"\(80, %d\)" % mel.shape[1]):
            griffin_lim(mel, iterations=3, config=CFG)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            griffin_lim(np.zeros((80, 10), dtype=np.float32), iterations=0)

    def test_deterministic(self):
        mel = wav_to_mel(sine(600, 0.3), CFG)
        a = griffin_lim(mel, iterations=3, config=CFG)
        b = griffin_lim(mel, iterations=3, config=CFG)
        np.testing.assert_array_equal(a, b)
