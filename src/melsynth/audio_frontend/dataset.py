"""LJSpeech-layout corpus loading, WAV IO, and the durations sidecar format."""

from __future__ import annotations

import contextlib
import os
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lexicon import LEXICON
from .vocab import PhonemeVocabulary, tokenize_text


class DatasetError(Exception):
    """Corpus problem: missing file, malformed metadata, bad audio format."""


@dataclass
class Utterance:
    id: str
    phoneme_ids: np.ndarray
    waveform: np.ndarray
    mel: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_phonemes(self):
        return len(self.phoneme_ids)


def load_wav(path, expected_rate=22050):
    """Read 16-bit PCM mono WAV into float32 in [-1, 1]."""
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise DatasetError(f"{path.name}: expected 16-bit PCM")
            if wf.getnchannels() != 1:
                raise DatasetError(f"{path.name}: expected mono audio")
            if expected_rate is not None and wf.getframerate() != expected_rate:
                raise DatasetError(
                    f"{path.name}: sample rate {wf.getframerate()} != {expected_rate}"
                )
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DatasetError(f"{path.name}: not a readable WAV file ({exc})") from exc
    data = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32767.0
    return data


@contextlib.contextmanager
def replacing(path):
    """A temp path in `path`'s directory to write to, renamed over `path`
    when the block ends; on any error it is removed and `path` keeps its
    old contents. No fsync here: checkpoints fsync inside the block."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_wav(path, waveform, sample_rate=22050):
    """Write float waveform in [-1, 1] as 16-bit PCM mono, atomically."""
    clipped = np.clip(np.asarray(waveform, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with replacing(path) as tmp, wave.open(str(tmp), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(pcm.tobytes())


def _read_lines(path):
    """The lines of a UTF-8 text file; DatasetError naming it if it is not one."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_phoneme_sidecar(path):
    table = {}
    for lineno, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        if "|" not in line:
            raise DatasetError(f"{Path(path).name}:{lineno}: expected 'id|symbols'")
        utt_id, symbols = line.split("|", 1)
        table[utt_id.strip()] = symbols.split()
    return table


def load_dataset(root, holdout=100, vocab=None, sample_rate=22050):
    """Load an LJSpeech-layout corpus; last `holdout` rows become the eval set.

    Pre-phonemized symbols come from phonemes.csv when present; otherwise
    transcripts are tokenized via the bundled lexicon (unknown words spelled
    letter-by-letter, punctuation passed through).
    """
    root = Path(root)
    vocab = vocab or PhonemeVocabulary()
    metadata = root / "metadata.csv"
    if not metadata.exists():
        raise DatasetError(f"no metadata.csv under {root}")
    phoneme_table = {}
    sidecar = root / "phonemes.csv"
    if sidecar.exists():
        phoneme_table = _read_phoneme_sidecar(sidecar)

    utterances = []
    for lineno, line in enumerate(_read_lines(metadata), 1):
        if not line.strip():
            continue
        parts = line.split("|")
        if len(parts) < 2:
            raise DatasetError(f"metadata.csv:{lineno}: expected 'id|text[|normalized]'")
        utt_id = parts[0].strip()
        text = parts[-1]  # normalized column when present, else raw
        wav_path = root / "wavs" / f"{utt_id}.wav"
        if not wav_path.exists():
            raise DatasetError(f"missing audio for utterance {utt_id!r}: {wav_path}")
        waveform = load_wav(wav_path, expected_rate=sample_rate)
        if utt_id in phoneme_table:
            symbols = phoneme_table[utt_id]
        else:
            symbols = tokenize_text(text, LEXICON, vocab)
        if not symbols:
            raise DatasetError(f"utterance {utt_id!r} produced no phonemes")
        try:
            ids = np.asarray(vocab.encode(symbols), dtype=np.int64)
        except KeyError as exc:
            raise DatasetError(f"utterance {utt_id!r}: {exc}") from exc
        utterances.append(Utterance(id=utt_id, phoneme_ids=ids, waveform=waveform))

    if holdout >= len(utterances):
        raise DatasetError(
            f"holdout {holdout} leaves no training data ({len(utterances)} utterances)"
        )
    if holdout > 0:
        return utterances[:-holdout], utterances[-holdout:]
    return utterances, []


def write_durations(path, durations):
    """Sidecar: one 'id|d1 d2 ... dN' line per utterance, written atomically."""
    lines = []
    for utt_id, d in durations.items():
        d = np.asarray(d)
        if np.any(d < 0):
            raise ValueError(f"negative duration for {utt_id!r}")
        lines.append(f"{utt_id}|{' '.join(str(int(v)) for v in d)}")
    with replacing(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_durations(path):
    table = {}
    for lineno, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        if "|" not in line:
            raise DatasetError(f"{Path(path).name}:{lineno}: expected 'id|durations'")
        utt_id, rest = line.split("|", 1)
        try:
            values = np.asarray([int(v) for v in rest.split()], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DatasetError(f"{Path(path).name}:{lineno}: {exc}") from exc
        if np.any(values < 0):
            raise DatasetError(f"{Path(path).name}:{lineno}: negative duration")
        table[utt_id.strip()] = values
    return table
