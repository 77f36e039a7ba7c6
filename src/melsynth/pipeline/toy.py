"""Synthetic miniature corpus so the whole pipeline runs in minutes.

Each pseudo-phoneme maps to a fixed spectral recipe (partial pairs, hum,
noise burst, silence), so alignments are learnable from a handful of short
utterances. The audio is labeled synthetic tones, not speech.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..audio_frontend import save_wav

# symbol -> (kind, params); frequencies in Hz. "." renders as a pause and
# doubles as the only symbol the space-separated sidecar can use for silence.
TOY_PHONES = {
    "AA": ("tone", (220.0, 660.0)),
    "IY": ("tone", (330.0, 2640.0)),
    "UW": ("tone", (260.0, 520.0)),
    "EH": ("tone", (440.0, 1760.0)),
    "OW": ("tone", (180.0, 900.0)),
    "M": ("tone", (150.0, 300.0)),
    "S": ("hiss", ()),
    "T": ("burst", ()),
    ".": ("pause", ()),
}


def _envelope(n, sr, fade=0.010):
    env = np.ones(n)
    k = min(int(fade * sr), n // 2)
    if k > 0:
        ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, k))
        env[:k] = ramp
        env[-k:] = ramp[::-1]
    return env


def render_phone(symbol, seconds, sr, rng):
    n = max(int(round(seconds * sr)), 1)
    kind, params = TOY_PHONES[symbol]
    if kind == "pause":
        return np.zeros(n)
    t = np.arange(n) / sr
    if kind == "tone":
        f1, f2 = params
        wave = 0.6 * np.sin(2 * np.pi * f1 * t) + 0.4 * np.sin(2 * np.pi * f2 * t)
    elif kind == "hiss":
        white = rng.normal(size=n + 1)
        wave = np.diff(white)  # first difference tilts energy to high bins
        wave /= max(np.abs(wave).max(), 1e-9)
    else:  # burst: sharp noisy attack with exponential decay
        wave = rng.normal(size=n) * np.exp(-t / 0.015)
        wave /= max(np.abs(wave).max(), 1e-9)
    amp = 0.3 * float(rng.uniform(0.85, 1.15))
    return amp * wave * _envelope(n, sr)


def random_utterance(rng, sr, max_seconds):
    # enough phones with similar lengths that the true alignment path stays
    # near the strict diagonal (an ideal path deviates by about 1/(2N));
    # utterances start and end on steady tones because silence-like segments
    # (pause, burst tail) leave the alignment under-determined there
    n_phones = int(rng.integers(7, 11))
    tones = [p for p, (kind, _) in TOY_PHONES.items() if kind == "tone"]
    noisy = ["S", "T"]
    symbols = []
    prev = None
    for i in range(n_phones):
        pool = tones if i in (0, n_phones - 1) else tones + noisy
        prev = str(rng.choice([p for p in pool if p != prev]))
        symbols.append(prev)

    seconds = []
    for s in symbols:
        if s == ".":
            seconds.append(float(rng.uniform(0.08, 0.13)))
        elif s == "T":
            seconds.append(float(rng.uniform(0.07, 0.11)))
        else:
            seconds.append(float(rng.uniform(0.11, 0.17)))
    total = float(np.sum(seconds))
    budget = max_seconds - 0.05  # leave room for the closing silence
    if total > budget:
        seconds = [d * budget / total for d in seconds]
    wave = np.concatenate(
        [render_phone(s, d, sr, rng) for s, d in zip(symbols, seconds)]
        + [np.zeros(int(0.03 * sr))])
    return symbols, wave.astype(np.float32)


def make_toy_corpus(out_dir, count=10, seed=0, sample_rate=22050,
                    max_seconds=2.0):
    """Write wavs/, metadata.csv and phonemes.csv; returns the directory."""
    out = Path(out_dir)
    (out / "wavs").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    meta_rows = []
    phone_rows = []
    for i in range(count):
        utt_id = f"toy{i:03d}"
        symbols, wave = random_utterance(rng, sample_rate, max_seconds)
        save_wav(out / "wavs" / f"{utt_id}.wav", wave, sample_rate)
        meta_rows.append(f"{utt_id}|{' '.join(symbols)}")
        phone_rows.append(f"{utt_id}|{' '.join(symbols)}")
    (out / "metadata.csv").write_text("\n".join(meta_rows) + "\n",
                                      encoding="utf-8")
    (out / "phonemes.csv").write_text("\n".join(phone_rows) + "\n",
                                      encoding="utf-8")
    return out


TOY_CONFIG_TEMPLATE = """\
# reduced architecture sized for the synthetic corpus
[data]
root = {root}
holdout = 2

[teacher]
residual_channels = 24
gate_channels = 48
encoder_blocks = 6
decoder_blocks = 8
embedding_dim = 32
attention_dim = 32
epochs = 80

[student]
channels = 64
encoder_blocks = 10
decoder_blocks = 12
epochs = 500

[training]
batch_size = 2
warmup_epochs = 10
checkpoint_every = 50
plateau_patience = 20
"""


def write_toy_config(out_dir, corpus_root=None):
    out = Path(out_dir)
    root = Path(corpus_root) if corpus_root is not None else out
    path = out / "toy.cfg"
    path.write_text(TOY_CONFIG_TEMPLATE.format(root=root), encoding="utf-8")
    return path
