"""Corpus ingestion, phoneme tokenization, mel extraction, Griffin-Lim."""

from .vocab import PAD, WORD_BOUNDARY, PhonemeVocabulary, tokenize_text
from .lexicon import LEXICON
from .mel import (
    MAX_DB,
    MIN_DB,
    AudioConfig,
    corpus_stats,
    denormalize_standard,
    frame_count,
    hann_window,
    mel_filterbank,
    normalize_standard,
    normalize_unit,
    stft_magnitude,
    wav_to_mel,
)
from .griffin_lim import griffin_lim, istft, mel_to_linear_magnitude, spectral_convergence
from .dataset import (
    DatasetError,
    Utterance,
    load_dataset,
    load_wav,
    read_durations,
    replacing,
    save_wav,
    write_durations,
)
