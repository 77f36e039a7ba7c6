"""Mel extraction, normalization regimes, vocabulary, corpus loading."""

import os
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from melsynth.audio_frontend import (
    LEXICON,
    MAX_DB,
    MIN_DB,
    AudioConfig,
    DatasetError,
    PhonemeVocabulary,
    corpus_stats,
    denormalize_standard,
    frame_count,
    hann_window,
    load_dataset,
    load_wav,
    mel_filterbank,
    normalize_standard,
    normalize_unit,
    read_durations,
    save_wav,
    stft_magnitude,
    tokenize_text,
    wav_to_mel,
    write_durations,
)
from melsynth.audio_frontend import vocab as vocab_module
from melsynth.audio_frontend.mel import hz_to_mel, mel_to_hz
from melsynth.nn_core import PlainResidualBlock
from melsynth.pipeline import (
    default_config,
    load_tensors,
    save_checkpoint,
    save_tensors,
    write_pgm,
)

CFG = AudioConfig()


def sine(freq, seconds, rate=22050, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestWavToMel:
    def test_frame_count_for_9p72_seconds(self):
        n = int(9.72 * CFG.sample_rate)
        mel = wav_to_mel(sine(440, 9.72))
        assert mel.shape == (80, 838)
        assert frame_count(n) == 838

    def test_frame_count_with_window_shorter_than_fft(self):
        config = AudioConfig(win_length=800)
        n = CFG.sample_rate
        assert wav_to_mel(sine(440, 1.0), config).shape == (80, 88)
        assert frame_count(n, config) == 88

    def test_silence_clamps_to_floor(self):
        mel = wav_to_mel(np.zeros(4096, dtype=np.float32))
        np.testing.assert_array_equal(mel, np.float32(MIN_DB))

    def test_pure_tone_peaks_in_analytic_bin(self):
        mel = wav_to_mel(sine(440, 1.0))
        energy = mel.mean(axis=1)
        edges = mel_to_hz(np.linspace(hz_to_mel(CFG.fmin), hz_to_mel(CFG.fmax),
                                      CFG.n_mels + 2))
        centers = edges[1:-1]
        expected = int(np.argmin(np.abs(centers - 440.0)))
        assert abs(int(np.argmax(energy)) - expected) <= 1

    def test_deterministic(self):
        x = sine(200, 0.5)
        a = wav_to_mel(x)
        b = wav_to_mel(x)
        np.testing.assert_array_equal(a, b)

    def test_too_short_waveform_rejected(self):
        with pytest.raises(ValueError, match="shorter than one window"):
            wav_to_mel(np.zeros(100, dtype=np.float32))

    def test_full_scale_sine_stays_below_max_db(self):
        mel = wav_to_mel(sine(1000, 0.5, amp=0.99))
        assert mel.max() <= MAX_DB

    def test_filterbank_shape_and_coverage(self):
        fb = mel_filterbank(CFG)
        assert fb.shape == (80, 513)
        assert fb.max() <= 1.0 + 1e-9
        # every filter has support
        assert np.all(fb.sum(axis=1) > 0)

    def test_filterbank_built_once_and_read_only(self):
        fb = mel_filterbank(CFG)
        assert mel_filterbank(CFG) is fb
        with pytest.raises(ValueError, match="read-only"):
            fb[0, 0] = 2.0

    @pytest.mark.parametrize("config", [
        CFG, AudioConfig(n_fft=512, win_length=512, hop_length=128),
        AudioConfig(win_length=400, hop_length=300)],
        ids=["n_fft1024", "n_fft512", "win400"])
    def test_spectra_keep_their_bits_at_a_power_of_two_n_fft(self, config):
        # the analysis window carries a factor n_fft that the rfft's
        # forward norm divides out; both are exact at a power-of-two n_fft,
        # so the spectra equal those of the plain 2/sum(window) scaling
        x = np.random.default_rng(0).normal(scale=0.3, size=22050)
        padded = np.pad(x, config.n_fft // 2, mode="reflect")
        window = hann_window(config.win_length)
        segments = sliding_window_view(padded, config.win_length)
        plain = np.fft.rfft(segments[::config.hop_length]
                            * (window * (2.0 / window.sum())),
                            n=config.n_fft, axis=1)
        assert np.array_equal(stft_magnitude(x, config), np.abs(plain).T)


class TestNormalization:
    def test_unit_interval_endpoints(self):
        assert normalize_unit(np.array([MIN_DB])) == pytest.approx(0.0)
        assert normalize_unit(np.array([MAX_DB])) == pytest.approx(1.0)

    def test_unit_interval_bounds_always_hold(self):
        mel = wav_to_mel(sine(440, 0.3))
        u = normalize_unit(mel)
        assert u.min() >= 0.0 and u.max() <= 1.0

    def test_unit_roundtrip(self):
        vals = np.linspace(MIN_DB, MAX_DB, 50, dtype=np.float32)
        back = normalize_unit(vals) * (MAX_DB - MIN_DB) + MIN_DB
        np.testing.assert_allclose(back, vals, atol=1e-5)

    def test_standardize_two_point_corpus(self):
        mels = [np.full((2, 3), -2.0), np.full((2, 3), 2.0)]
        mean, std = corpus_stats(mels)
        assert mean == pytest.approx(0.0)
        assert std == pytest.approx(2.0)
        np.testing.assert_allclose(normalize_standard(mels[0], mean, std), -1.0)
        np.testing.assert_allclose(normalize_standard(mels[1], mean, std), 1.0)

    def test_standard_roundtrip(self):
        mel = wav_to_mel(sine(300, 0.4))
        mean, std = corpus_stats([mel])
        back = denormalize_standard(normalize_standard(mel, mean, std), mean, std)
        np.testing.assert_allclose(back, mel, atol=1e-5)

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError, match="std"):
            normalize_standard(np.zeros((2, 2)), 0.0, 0.0)


SYMBOLS = ([vocab_module.PAD] + vocab_module.PUNCTUATION + [vocab_module.WORD_BOUNDARY]
           + vocab_module.ARPABET + vocab_module.STRESSED + vocab_module.LETTERS)


class TestVocabulary:
    def test_pad_is_zero_and_ids_dense(self):
        vocab = PhonemeVocabulary()
        assert vocab.id("<pad>") == 0
        assert sorted(vocab.encode(SYMBOLS)) == list(range(len(vocab)))

    def test_symbols_are_unique(self):
        assert len(set(SYMBOLS)) == len(SYMBOLS) == len(PhonemeVocabulary())

    def test_unknown_symbol_raises(self):
        with pytest.raises(KeyError):
            PhonemeVocabulary().id("XX")

    def test_tokenize_known_words(self):
        vocab = PhonemeVocabulary()
        out = tokenize_text("the cat.", {"the": ["DH", "AH"], "cat": ["K", "AE", "T"]}, vocab)
        assert out == ["DH", "AH", " ", "K", "AE", "T", "."]

    def test_tokenize_unknown_word_spells_letters(self):
        vocab = PhonemeVocabulary()
        out = tokenize_text("zyx", {}, vocab)
        assert out == ["z", "y", "x"]

    def test_tokenize_punctuation_passthrough(self):
        vocab = PhonemeVocabulary()
        out = tokenize_text("go, now!", LEXICON, vocab)
        assert "," in out and "!" in out

    def test_stressed_vowels_accepted(self):
        vocab = PhonemeVocabulary()
        assert "AA1" in vocab and "IY0" in vocab


def make_toy_corpus(root, rows, rate=22050, seconds=0.25):
    (root / "wavs").mkdir(parents=True)
    lines = []
    rng = np.random.default_rng(0)
    for utt_id, text in rows:
        wav = rng.uniform(-0.1, 0.1, int(rate * seconds)).astype(np.float32)
        save_wav(root / "wavs" / f"{utt_id}.wav", wav, rate)
        lines.append(f"{utt_id}|{text}|{text}")
    (root / "metadata.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestDataset:
    def test_loads_in_order_with_holdout(self, tmp_path):
        make_toy_corpus(tmp_path, [("u1", "the sun"), ("u2", "a dog"), ("u3", "my boat")])
        train, eval_ = load_dataset(tmp_path, holdout=1)
        assert [u.id for u in train] == ["u1", "u2"]
        assert [u.id for u in eval_] == ["u3"]
        assert all(u.n_phonemes >= 1 for u in train + eval_)

    def test_missing_wav_names_utterance(self, tmp_path):
        make_toy_corpus(tmp_path, [("u1", "the sun")])
        (tmp_path / "metadata.csv").write_text("u1|the sun|the sun\nu2|a dog|a dog\n")
        with pytest.raises(DatasetError, match="u2"):
            load_dataset(tmp_path, holdout=0)

    def test_malformed_metadata_line(self, tmp_path):
        make_toy_corpus(tmp_path, [("u1", "the sun")])
        (tmp_path / "metadata.csv").write_text("garbage-without-pipe\n")
        with pytest.raises(DatasetError, match="metadata.csv:1"):
            load_dataset(tmp_path, holdout=0)

    def test_phoneme_sidecar_wins_over_text(self, tmp_path):
        make_toy_corpus(tmp_path, [("u1", "the sun")])
        (tmp_path / "phonemes.csv").write_text("u1|HH AH L OW\n")
        train, _ = load_dataset(tmp_path, holdout=0)
        vocab = PhonemeVocabulary()
        assert train[0].phoneme_ids.tolist() == vocab.encode(["HH", "AH", "L", "OW"])

    @pytest.mark.parametrize("name", ["metadata.csv", "phonemes.csv"])
    def test_undecodable_text_file_named(self, tmp_path, name):
        make_toy_corpus(tmp_path, [("u1", "the sun")])
        (tmp_path / name).write_bytes(b"u1|the s\xffun\n")
        with pytest.raises(DatasetError, match=f"{name}: not UTF-8"):
            load_dataset(tmp_path, holdout=0)

    def test_wav_roundtrip(self, tmp_path):
        x = sine(440, 0.1, amp=0.8)
        save_wav(tmp_path / "x.wav", x)
        y = load_wav(tmp_path / "x.wav")
        assert y.shape == x.shape
        assert np.max(np.abs(x - y)) < 1.0 / 32000

    def test_failed_wav_write_leaves_nothing_behind(self, tmp_path, monkeypatch):
        kept = tmp_path / "kept.wav"
        save_wav(kept, sine(440, 0.1))
        before = kept.read_bytes()

        write = wave.Wave_write.writeframes

        def disk_full(self, data):
            write(self, data[:100])
            raise OSError("no space left on device")

        monkeypatch.setattr(wave.Wave_write, "writeframes", disk_full)
        for path in (tmp_path / "new.wav", kept):
            with pytest.raises(OSError, match="no space"):
                save_wav(path, sine(440, 0.1))
        assert [p.name for p in tmp_path.iterdir()] == ["kept.wav"]
        assert kept.read_bytes() == before

    def test_wrong_rate_rejected(self, tmp_path):
        save_wav(tmp_path / "x.wav", np.zeros(100), sample_rate=16000)
        with pytest.raises(DatasetError, match="sample rate"):
            load_wav(tmp_path / "x.wav", expected_rate=22050)


class TestDurationsSidecar:
    def test_roundtrip(self, tmp_path):
        table = {"u1": np.array([3, 0, 5]), "u2": np.array([1])}
        write_durations(tmp_path / "dur.txt", table)
        back = read_durations(tmp_path / "dur.txt")
        assert set(back) == {"u1", "u2"}
        np.testing.assert_array_equal(back["u1"], [3, 0, 5])
        np.testing.assert_array_equal(back["u2"], [1])

    def test_negative_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_durations(tmp_path / "d.txt", {"u": np.array([-1])})

    def test_negative_rejected_on_read(self, tmp_path):
        (tmp_path / "d.txt").write_text("u|3 -2\n")
        with pytest.raises(DatasetError):
            read_durations(tmp_path / "d.txt")

    @pytest.mark.parametrize("token", ["x", "2.5", "99999999999999999999"])
    def test_non_integer_token_names_file_and_line(self, tmp_path, token):
        (tmp_path / "d.txt").write_text(f"u1|3 2\nu2|3 {token}\n")
        with pytest.raises(DatasetError, match="d.txt:2"):
            read_durations(tmp_path / "d.txt")


@pytest.mark.parametrize("write", [
    lambda path, n: save_wav(path, sine(440, 0.01 * n)),
    lambda path, n: write_durations(path, {"u": np.arange(n)}),
    lambda path, n: save_checkpoint(path, PlainResidualBlock(2, 3, 1),
                                    default_config(), "student", epoch=n),
    lambda path, n: write_pgm(path, np.arange(n * n).reshape(n, n)),
], ids=["save_wav", "write_durations", "save_checkpoint", "write_pgm"])
def test_failed_rename_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "kept"
    write(path, 3)
    before = path.read_bytes()

    def rename_fails(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", rename_fails)
    with pytest.raises(OSError, match="rename failed"):
        write(path, 5)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


def test_save_tensors_fsyncs_before_rename(tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def record(name, fn):
        def recorder(*args):
            calls.append(name)
            return fn(*args)
        return recorder

    monkeypatch.setattr(os, "fsync", record("fsync", fsync))
    monkeypatch.setattr(os, "replace", record("replace", replace))
    save_tensors(tmp_path / "w.bin", {"w": np.ones(3)}, arch_hash=7)
    assert calls == ["fsync", "replace"]
    assert load_tensors(tmp_path / "w.bin")[0]["w"].tolist() == [1.0] * 3


# an utterance id as load_dataset reads it from a metadata.csv line
UTTERANCE_IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).map(
    lambda text: text.split("|")[0].strip()).filter(lambda i: len(i.splitlines()) <= 1)


def read_durations_of(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "durations.csv"
        path.write_bytes(raw)
        return read_durations(path)


class TestDurationsSidecarProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(UTTERANCE_IDS, st.lists(st.integers(0, 2**63 - 1), max_size=8)))
    def test_round_trip(self, table):
        table = {k: np.array(v, dtype=np.int64) for k, v in table.items()}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "durations.csv"
            write_durations(path, table)
            back = read_durations(path)
        assert back.keys() == table.keys()
        for key, counts in table.items():
            np.testing.assert_array_equal(back[key], counts)
            assert back[key].dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_any_bytes_give_a_table_or_dataset_error(self, raw):
        try:
            table = read_durations_of(raw)
        except DatasetError:
            return
        assert all(isinstance(v, np.ndarray) and np.all(v >= 0) for v in table.values())

    def test_undecodable_file_named(self):
        with pytest.raises(DatasetError, match="durations.csv: not UTF-8"):
            read_durations_of(b"u1|3 \xff 2\n")
