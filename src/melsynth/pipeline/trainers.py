"""Pipeline commands: training loops, duration extraction, synthesis."""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from ..audio_frontend import (
    LEXICON,
    DatasetError,
    PhonemeVocabulary,
    corpus_stats,
    denormalize_standard,
    griffin_lim,
    load_dataset,
    normalize_standard,
    read_durations,
    replacing,
    save_wav,
    tokenize_text,
    wav_to_mel,
    write_durations,
)
from ..nn_core import Adam, PlateauSchedule, no_grad, noam_lr
from ..student import StudentModel, pad_student_batch, student_losses, \
    student_training_step
from ..student import synthesize as student_synthesize
from ..teacher import (
    TeacherModel,
    batch_diagonality,
    build_inputs,
    extract_batch_durations,
    iterate_minibatches,
    pad_teacher_batch,
    prepare_utterance,
    teacher_losses,
    teacher_training_step,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import audio_config


def build_teacher(cfg, vocab_size, rng=None):
    t = cfg.teacher
    return TeacherModel(
        vocab_size, mel_bins=cfg.audio.mel_bins,
        residual_channels=t.residual_channels, gate_channels=t.gate_channels,
        enc_blocks=t.encoder_blocks, dec_blocks=t.decoder_blocks,
        embedding_dim=t.embedding_dim, attention_dim=t.attention_dim,
        kernel_size=t.kernel_size, rng=rng)


def build_student(cfg, vocab_size, rng=None):
    s = cfg.student
    return StudentModel(
        vocab_size, mel_bins=cfg.audio.mel_bins, channels=s.channels,
        enc_blocks=s.encoder_blocks, dec_blocks=s.decoder_blocks,
        duration_blocks=s.duration_blocks, kernel_size=s.kernel_size, rng=rng)


def load_corpus(cfg):
    vocab = PhonemeVocabulary()
    train, holdout = load_dataset(cfg.data.root, holdout=cfg.data.holdout,
                                  vocab=vocab,
                                  sample_rate=cfg.audio.sample_rate)
    return train, holdout, vocab


class MetricsLog:
    """Append-only comma-separated rows for external plotting."""

    def __init__(self, path, fields):
        self.path = Path(path)
        self.fields = list(fields)
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(",".join(self.fields) + "\n", encoding="utf-8")

    def append(self, **values):
        row = ",".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                       for v in (values[f] for f in self.fields))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")


def write_pgm(path, matrix):
    """Greyscale dump (PGM P5), matrix scaled to use the full 0..255 range."""
    m = np.asarray(matrix, dtype=np.float64)
    peak = m.max()
    scaled = np.zeros_like(m) if peak <= 0 else m / peak
    data = np.round(255.0 * np.clip(scaled, 0.0, 1.0)).astype(np.uint8)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _durations_path(cfg, path):
    """The durations sidecar: `path`, or `data.durations` under the corpus."""
    return Path(cfg.data.root) / cfg.data.durations if path is None \
        else Path(path)


class _Run:
    """A training run's bookkeeping, the same for teacher and student: rng,
    Adam, resume, the `{kind}_metrics.csv` and `{kind}_eval.csv` logs, the
    step history, the epoch loop and the `{kind}.ckpt` checkpoints."""

    def __init__(self, kind, cfg, out_dir):
        self.started = time.perf_counter()  # wall_s counts from here
        self.kind, self.cfg = kind, cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.checkpoint = self.out / f"{kind}.ckpt"
        self.history = []

    def start(self, build, vocab_size, seed, resume):
        """Builds the model with build(cfg, vocab_size, rng), puts Adam on it
        and loads `resume` when given; returns the model and the stored
        bookkeeping (empty for a fresh run)."""
        seed = self.cfg.training.seed if seed is None else seed
        self.rng = np.random.default_rng(seed)
        self.model = build(self.cfg, vocab_size, self.rng)
        self.opt = Adam(self.model.parameters(), lr=self.cfg.training.base_lr,
                        clip_norm=self.cfg.training.grad_clip)
        meta = {} if resume is None else load_checkpoint(
            resume, self.model, self.cfg, self.kind)
        self.epoch, self.step = meta.get("epoch", 0), meta.get("step", 0)
        return self.model, meta

    def train(self, count, max_steps, losses, scores, lr, train_step,
              evaluate, extras=dict):
        """Epochs of train_step(indices) over `count` items in shuffled
        minibatches: each step at lr(step), logged with the `losses` values
        it returns before the gradient norm; each epoch logged with the
        `scores` of evaluate(); checkpoints with extras(). `max_steps`, when
        given, replaces the `{kind}.epochs` cap and counts across resumes.
        The last checkpoint is written once, after the loop, even when no
        step runs. Returns the last epoch's scores, None when no epoch ran."""
        metrics = MetricsLog(self.out / f"{self.kind}_metrics.csv",
                             ["step", "lr", *losses, "grad_norm", "clipped",
                              "wall_s"])
        eval_log = MetricsLog(self.out / f"{self.kind}_eval.csv",
                              ["epoch", "step", *scores])

        def running():
            return (self.step < max_steps if max_steps is not None
                    else self.epoch < getattr(self.cfg, self.kind).epochs)

        scores = None
        while running():
            for idx in iterate_minibatches(self.rng.permutation(count),
                                           self.cfg.training.batch_size):
                self.step += 1
                self.opt.lr = lr(self.step)
                *values, grad_norm = train_step(idx)
                row = dict(zip(losses, values))
                metrics.append(step=self.step, lr=self.opt.lr, **row,
                               grad_norm=grad_norm,
                               clipped=int(grad_norm > self.opt.clip_norm),
                               wall_s=time.perf_counter() - self.started)
                self.history.append({"step": self.step, **row})
                if max_steps is not None and self.step >= max_steps:
                    break
            self.epoch += 1
            scores = evaluate()
            eval_log.append(epoch=self.epoch, step=self.step, **scores)
            if (self.epoch % self.cfg.training.checkpoint_every == 0
                    and running()):
                self.save(extras())
        self.save(extras())
        return scores

    def save(self, extras):
        save_checkpoint(self.checkpoint, self.model, self.cfg, self.kind,
                        epoch=self.epoch, step=self.step, **extras)


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------

def evaluate_teacher(model, utts, cfg):
    """Teacher-forced holdout metrics; returns (dict, attention of item 0)."""
    batch = pad_teacher_batch(utts)
    with no_grad():
        mae, guided, attention = teacher_losses(
            model, batch, build_inputs(batch), cfg.teacher.guided_g)
    diagonality = batch_diagonality(
        attention.data, batch["n_lengths"], batch["t_lengths"])
    n0, t0 = int(batch["n_lengths"][0]), int(batch["t_lengths"][0])
    return ({"mae": float(mae.data), "guided": float(guided.data),
             "diagonality": diagonality}, attention.data[0, :n0, :t0])


def run_teacher_training(cfg, out_dir, seed=None, max_steps=None,
                         resume=None, quiet=True):
    """Train the aligner; returns checkpoint path, model and step history."""
    run = _Run("teacher", cfg, out_dir)
    acfg = audio_config(cfg)
    train, holdout, vocab = load_corpus(cfg)
    for u in train + holdout:
        prepare_utterance(u, acfg)
    eval_set = holdout or train

    model, _ = run.start(build_teacher, len(vocab), seed, resume)
    steps_per_epoch = max(1, math.ceil(len(train) / cfg.training.batch_size))
    warmup_steps = max(1, cfg.training.warmup_epochs * steps_per_epoch)

    def train_step(idx):
        batch = pad_teacher_batch([train[i] for i in idx])
        inputs = build_inputs(batch, model=model, rng=run.rng,
                              augment=cfg.augment)
        mae, guided, _, grad_norm = teacher_training_step(
            model, run.opt, batch, inputs, g=cfg.teacher.guided_g)
        return mae, guided, grad_norm

    def evaluate():
        scores, attention = evaluate_teacher(model, eval_set, cfg)
        write_pgm(run.out / "attention" / f"epoch{run.epoch:04d}.pgm",
                  attention)
        if not quiet:
            print(f"epoch {run.epoch}: step {run.step} "
                  f"eval mae {scores['mae']:.4f} guided {scores['guided']:.5f} "
                  f"diagonality {scores['diagonality']:.4f}")
        return scores

    scores = run.train(
        len(train), max_steps,
        ["mae", "guided"], ["mae", "guided", "diagonality"],
        lambda step: noam_lr(cfg.training.base_lr, warmup_steps, step),
        train_step, evaluate)
    if scores is None:  # nothing left to train, as on a finished run's resume
        scores, _ = evaluate_teacher(model, eval_set, cfg)
    return {"checkpoint": run.checkpoint, "model": model,
            "history": run.history, "final_eval": scores, "step": run.step}


def run_extract_durations(cfg, checkpoint_path=None, out_path=None,
                          model=None):
    """Teacher-forced alignment for every corpus utterance -> sidecar file,
    in batches of `training.batch_size`."""
    acfg = audio_config(cfg)
    train, holdout, vocab = load_corpus(cfg)
    if model is None:
        model = build_teacher(cfg, len(vocab))
        load_checkpoint(checkpoint_path, model, cfg, "teacher")
    utts = [prepare_utterance(u, acfg) for u in train + holdout]
    table = {}
    for chunk in iterate_minibatches(utts, cfg.training.batch_size):
        for u, durations in zip(chunk, extract_batch_durations(model, chunk)):
            table[u.id] = durations
    out = _durations_path(cfg, out_path)
    write_durations(out, table)
    return out


# ---------------------------------------------------------------------------
# student
# ---------------------------------------------------------------------------

def _student_items(utts, mels, table, mean, std, source):
    """(ids, durations, standardized mel) per utterance; each utterance's
    durations must add up to its mel's frame count."""
    for u, mel in zip(utts, mels):
        total = int(table[u.id].sum())
        if total != mel.shape[1]:
            raise DatasetError(
                f"utterance {u.id!r}: durations in sidecar {source} sum to "
                f"{total} frames but its mel has {mel.shape[1]}")
    return [(u.phoneme_ids, table[u.id], normalize_standard(mel, mean, std))
            for u, mel in zip(utts, mels)]


def _check_sidecar(utts, table, source):
    for u in utts:
        if u.id not in table:
            raise DatasetError(
                f"utterance {u.id!r} missing from durations sidecar {source}")
        if len(table[u.id]) != u.n_phonemes:
            raise DatasetError(
                f"utterance {u.id!r}: sidecar has {len(table[u.id])} durations "
                f"for {u.n_phonemes} phonemes")


def evaluate_student(model, items, cfg):
    """Averaged losses over `items` in eval mode (no parameter updates)."""
    batch_size = cfg.training.batch_size
    totals = np.zeros(3)
    count = 0
    with model.evaluating(), no_grad():
        for start in range(0, len(items), batch_size):
            chunk = items[start:start + batch_size]
            batch = pad_student_batch(chunk)
            mae, ssim_loss, duration = student_losses(model, batch)
            totals += np.array([float(mae.data), float(ssim_loss.data),
                                float(duration.data)]) * len(chunk)
            count += len(chunk)
    mae, ssim_loss, duration = totals / count
    return {"mae": mae, "ssim": 1.0 - ssim_loss, "duration": duration,
            "total": mae + ssim_loss + duration}


def run_student_training(cfg, out_dir, durations_path=None, seed=None,
                         max_steps=None, resume=None, quiet=True):
    """Train the synthesizer on teacher durations; plateau lr on holdout."""
    run = _Run("student", cfg, out_dir)
    acfg = audio_config(cfg)
    train, holdout, vocab = load_corpus(cfg)
    side = _durations_path(cfg, durations_path)
    if not side.exists():
        raise DatasetError(f"durations sidecar not found: {side}")
    table = read_durations(side)
    _check_sidecar(train + holdout, table, side)

    train_mels = [wav_to_mel(u.waveform, acfg) for u in train]
    mean, std = corpus_stats(train_mels)
    train_items = _student_items(train, train_mels, table, mean, std, side)
    del train_mels  # the items hold standardized copies; free the raw ones
    eval_items = _student_items(
        holdout, [wav_to_mel(u.waveform, acfg) for u in holdout], table,
        mean, std, side) if holdout else train_items

    model, meta = run.start(build_student, len(vocab), seed, resume)
    schedule = PlateauSchedule(cfg.training.base_lr,
                               factor=cfg.training.plateau_factor,
                               patience=cfg.training.plateau_patience,
                               min_lr=cfg.training.min_lr)
    if "plateau" in meta:
        schedule.current, schedule.best, schedule.bad_count = meta["plateau"]
    if "stats" in meta:
        mean, std = meta["stats"]

    def train_step(idx):
        batch = pad_student_batch([train_items[i] for i in idx])
        return student_training_step(model, batch, run.opt)

    def evaluate():
        scores = evaluate_student(model, eval_items, cfg)
        schedule.update(scores["total"])
        if not quiet:
            print(f"epoch {run.epoch}: step {run.step} "
                  f"lr {schedule.current:.2e} eval mae {scores['mae']:.4f} "
                  f"ssim {scores['ssim']:.4f}")
        return scores

    def extras():
        return {"stats": (mean, std),
                "plateau": [schedule.current,
                            np.nan if schedule.best is None else schedule.best,
                            schedule.bad_count]}

    run.train(len(train_items), max_steps,
              ["mae", "ssim_loss", "duration"],
              ["mae", "ssim", "duration", "total"],
              lambda step: schedule.current, train_step, evaluate, extras)
    train_scores = evaluate_student(model, train_items, cfg)
    return {"checkpoint": run.checkpoint, "model": model,
            "history": run.history, "train_eval": train_scores,
            "stats": (mean, std), "step": run.step}


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def phonemize(text=None, phonemes=None, vocab=None):
    """Symbols + ids from raw text (lexicon) or explicit symbols (verbatim)."""
    vocab = vocab or PhonemeVocabulary()
    if phonemes is not None:
        symbols = phonemes.split()
    elif text is not None:
        symbols = tokenize_text(text, LEXICON, vocab)
    else:
        raise ValueError("need text or phonemes")
    if not symbols:
        raise DatasetError("input produced no phonemes")
    try:
        ids = np.asarray(vocab.encode(symbols), dtype=np.int64)
    except KeyError as exc:
        raise DatasetError(f"unknown phoneme symbol: {exc}") from exc
    return symbols, ids


def load_student(cfg, checkpoint_path):
    """A trained student and its (mean, std) normalization stats."""
    model = build_student(cfg, len(PhonemeVocabulary()))
    meta = load_checkpoint(checkpoint_path, model, cfg, "student")
    if "stats" not in meta:
        raise CheckpointError(
            f"{checkpoint_path}: no normalization stats stored; "
            "was the student trained?")
    return model, meta["stats"]


def run_synthesize(cfg, checkpoint_path, out_path, text=None, phonemes=None,
                   model=None, stats=None):
    """phonemes -> spectrogram -> phase reconstruction -> WAV on disk."""
    acfg = audio_config(cfg)
    _, ids = phonemize(text=text, phonemes=phonemes)
    if model is None:
        model, stats = load_student(cfg, checkpoint_path)
    elif stats is None:
        raise ValueError("stats required when passing a model directly")
    mel_std, durations = student_synthesize(model, ids)
    mel = denormalize_standard(mel_std, stats[0], stats[1])
    wave = griffin_lim(mel, iterations=cfg.data.griffin_lim_iterations,
                       config=acfg)
    save_wav(out_path, wave, acfg.sample_rate)
    return {"path": Path(out_path), "frames": int(durations.sum()),
            "durations": durations,
            "seconds": len(wave) / acfg.sample_rate}
