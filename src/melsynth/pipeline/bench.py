"""Inference timing: spectrogram synthesis and phase reconstruction per batch.

Methodology: one fixed sentence is replicated across the batch with durations
pinned so every row is the same ~9.72 s long; a warmup run is excluded, the
reported numbers average `repeats` timed runs, and each repeat times every
batch size once, in turn. The real-time factor is
total_seconds / (batch_size * audio_seconds).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..audio_frontend import denormalize_standard, frame_count, griffin_lim
from ..student import synthesize_batch
from .config import audio_config
from .trainers import phonemize

BENCH_TEXT = ("the quick brown fox jumps over the lazy dog while the calm "
              "river turns under the old stone bridge")
TARGET_SECONDS = 9.72

# published single-core reference timings for the same workload shape
# (seconds; batch, spectrogram, audio, total) - printed for context only
REFERENCE_ROWS = (
    (1, 0.105, 1.702, 1.808),
    (16, 1.219, 27.685, 28.904),
)


@dataclass
class BenchRow:
    batch: int
    sgram: float
    audio: float
    total: float
    rtf: float


def spread_durations(total_frames, n_phonemes):
    """Integers summing exactly to total_frames, as even as possible."""
    base = total_frames // n_phonemes
    rem = total_frames - base * n_phonemes
    d = np.full(n_phonemes, base, dtype=np.int64)
    d[:rem] += 1
    return d


def bench_inputs(cfg):
    acfg = audio_config(cfg)
    _, ids = phonemize(text=BENCH_TEXT)
    frames = frame_count(int(TARGET_SECONDS * acfg.sample_rate), acfg)
    durations = spread_durations(frames, len(ids))
    audio_seconds = frames * acfg.hop_length / acfg.sample_rate
    return ids, durations, audio_seconds


def run_benchmark(model, cfg, stats, batch_sizes=(1, 2, 4, 8, 16), repeats=10,
                  vocode=True, reduce="mean"):
    """Timing rows per batch size.

    reduce="mean" reports average throughput; "min" reports the best run,
    a noise-robust estimate of what the machine can do.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if reduce not in ("mean", "min"):
        raise ValueError("reduce must be 'mean' or 'min'")
    fold = np.mean if reduce == "mean" else np.min
    acfg = audio_config(cfg)
    ids, durations, audio_seconds = bench_inputs(cfg)
    mean, std = stats
    times = [([], []) for _ in batch_sizes]  # (sgram, audio) per batch size
    # each repeat times every batch size once, so a drift in host speed
    # lands on all sizes alike
    for run in range(repeats + 1):  # first run warms up, dropped
        for batch, (sgram_t, audio_t) in zip(batch_sizes, times):
            t0 = time.perf_counter()
            mels, _ = synthesize_batch(model, [ids] * batch,
                                       [durations] * batch)
            t1 = time.perf_counter()
            if vocode:
                for mel in mels:
                    griffin_lim(denormalize_standard(mel, mean, std),
                                iterations=cfg.data.griffin_lim_iterations,
                                config=acfg)
            t2 = time.perf_counter()
            if run:
                sgram_t.append(t1 - t0)
                audio_t.append(t2 - t1 if vocode else 0.0)  # no empty interval
    rows = []
    for batch, (sgram_t, audio_t) in zip(batch_sizes, times):
        sgram = float(fold(sgram_t))
        audio = float(fold(audio_t))
        total = sgram + audio
        rows.append(BenchRow(batch=batch, sgram=sgram, audio=audio,
                             total=total, rtf=total / (batch * audio_seconds)))
    return rows, audio_seconds


def format_table(rows, audio_seconds):
    lines = [f"each batch row is {audio_seconds:.2f} s of audio",
             f"{'batch':>5} {'S-gram(s)':>10} "
             f"{'Audio(s)':>10} {'Total(s)':>10} {'RTF':>8}"]
    for r in rows:
        lines.append(f"{r.batch:>5d} {r.sgram:>10.3f} "
                     f"{r.audio:>10.3f} {r.total:>10.3f} {r.rtf:>8.3f}")
    lines.append("reference single-core timings for context "
                 "(not measured here):")
    for batch, sgram, audio, total in REFERENCE_ROWS:
        rtf = total / (batch * TARGET_SECONDS)
        lines.append(f"{batch:>5d} {sgram:>10.3f} "
                     f"{audio:>10.3f} {total:>10.3f} {rtf:>8.3f}")
    return "\n".join(lines)


def write_bench_csv(rows, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["batch", "sgram_seconds", "audio_seconds",
                         "total_seconds", "rtf"])
        for r in rows:
            writer.writerow([r.batch, f"{r.sgram:.6f}",
                             f"{r.audio:.6f}", f"{r.total:.6f}",
                             f"{r.rtf:.6f}"])
    return path
