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
    save_wav,
    tokenize_text,
    wav_to_mel,
    write_durations,
)
from ..nn_core import Adam, PlateauSchedule, Tensor, no_grad, noam_lr
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
    teacher_training_step,
)
from ..teacher.losses import batch_guided_attention_loss, masked_mae
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
        row = ",".join(_format_cell(values[f]) for f in self.fields)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")


def _step_metrics(opt, grad_norm, started):
    """Gradient norm, clip flag and run wall time logged with every step."""
    return {"grad_norm": grad_norm, "clipped": int(grad_norm > opt.clip_norm),
            "wall_s": time.perf_counter() - started}


def _format_cell(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def write_pgm(path, matrix):
    """Greyscale dump (PGM P5), matrix scaled to use the full 0..255 range."""
    m = np.asarray(matrix, dtype=np.float64)
    peak = m.max()
    scaled = np.zeros_like(m) if peak <= 0 else m / peak
    data = np.round(255.0 * np.clip(scaled, 0.0, 1.0)).astype(np.uint8)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# teacher
# ---------------------------------------------------------------------------

def evaluate_teacher(model, utts, cfg):
    """Teacher-forced holdout metrics; returns (dict, attention of item 0)."""
    batch = pad_teacher_batch(utts)
    inputs = build_inputs(batch)
    with no_grad():
        pred, attention = model(
            batch["ids"], Tensor(inputs), batch["rates"],
            phoneme_mask=batch["phoneme_mask"], frame_mask=batch["frame_mask"])
        mae = masked_mae(pred, batch["targets"], batch["frame_mask"])
        guided = batch_guided_attention_loss(
            attention, batch["n_lengths"], batch["t_lengths"],
            cfg.teacher.guided_g)
    diagonality = batch_diagonality(
        attention.data, batch["n_lengths"], batch["t_lengths"])
    n0, t0 = int(batch["n_lengths"][0]), int(batch["t_lengths"][0])
    return ({"mae": float(mae.data), "guided": float(guided.data),
             "diagonality": diagonality}, attention.data[0, :n0, :t0])


def run_teacher_training(cfg, out_dir, seed=None, max_steps=None,
                         resume=None, quiet=True):
    """Train the aligner; returns checkpoint path, model and step history."""
    started = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    acfg = audio_config(cfg)
    train, holdout, vocab = load_corpus(cfg)
    for u in train + holdout:
        prepare_utterance(u, acfg)
    eval_set = holdout or train

    seed = cfg.training.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    model = build_teacher(cfg, len(vocab), rng)
    opt = Adam(model.parameters(), lr=cfg.training.base_lr,
               clip_norm=cfg.training.grad_clip)
    steps_per_epoch = max(1, math.ceil(len(train) / cfg.training.batch_size))
    warmup_steps = max(1, cfg.training.warmup_epochs * steps_per_epoch)
    start_epoch, step = 0, 0
    if resume is not None:
        meta = load_checkpoint(resume, model, cfg, "teacher")
        start_epoch, step = meta["epoch"], meta["step"]

    metrics = MetricsLog(out / "teacher_metrics.csv",
                         ["step", "lr", "mae", "guided", "grad_norm",
                          "clipped", "wall_s"])
    eval_log = MetricsLog(out / "teacher_eval.csv",
                          ["epoch", "step", "mae", "guided", "diagonality"])
    ckpt_path = out / "teacher.ckpt"
    history = []
    epoch = start_epoch
    # max_steps, when given, replaces the epoch cap and counts across resumes
    while (step < max_steps if max_steps is not None
           else epoch < cfg.teacher.epochs):
        order = rng.permutation(len(train))
        for idx in iterate_minibatches(order, cfg.training.batch_size):
            step += 1
            opt.lr = noam_lr(cfg.training.base_lr, warmup_steps, step)
            batch = pad_teacher_batch([train[i] for i in idx])
            inputs = build_inputs(batch, model=model, rng=rng, augment=cfg.augment)
            mae, guided, _, grad_norm = teacher_training_step(
                model, opt, batch, inputs, g=cfg.teacher.guided_g)
            metrics.append(step=step, lr=opt.lr, mae=mae, guided=guided,
                           **_step_metrics(opt, grad_norm, started))
            history.append({"step": step, "mae": mae, "guided": guided})
            if max_steps is not None and step >= max_steps:
                break
        epoch += 1
        scores, attention = evaluate_teacher(model, eval_set, cfg)
        eval_log.append(epoch=epoch, step=step, **scores)
        write_pgm(out / "attention" / f"epoch{epoch:04d}.pgm", attention)
        if not quiet:
            print(f"epoch {epoch}: step {step} "
                  f"eval mae {scores['mae']:.4f} guided {scores['guided']:.5f} "
                  f"diagonality {scores['diagonality']:.4f}")
        if epoch % cfg.training.checkpoint_every == 0:
            save_checkpoint(ckpt_path, model, cfg, "teacher",
                            epoch=epoch, step=step)
    save_checkpoint(ckpt_path, model, cfg, "teacher", epoch=epoch, step=step)
    scores, _ = evaluate_teacher(model, eval_set, cfg)
    return {"checkpoint": ckpt_path, "model": model, "history": history,
            "final_eval": scores, "step": step}


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
    out = Path(out_path) if out_path is not None \
        else Path(cfg.data.root) / cfg.data.durations
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
    started = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    acfg = audio_config(cfg)
    train, holdout, vocab = load_corpus(cfg)
    side = Path(durations_path) if durations_path is not None \
        else Path(cfg.data.root) / cfg.data.durations
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

    seed = cfg.training.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    model = build_student(cfg, len(vocab), rng)
    opt = Adam(model.parameters(), lr=cfg.training.base_lr,
               clip_norm=cfg.training.grad_clip)
    schedule = PlateauSchedule(cfg.training.base_lr,
                               factor=cfg.training.plateau_factor,
                               patience=cfg.training.plateau_patience,
                               min_lr=cfg.training.min_lr)
    start_epoch, step = 0, 0
    if resume is not None:
        meta = load_checkpoint(resume, model, cfg, "student")
        start_epoch, step = meta["epoch"], meta["step"]
        if "plateau" in meta:
            schedule.current, schedule.best, schedule.bad_count = meta["plateau"]
        if "stats" in meta:
            mean, std = meta["stats"]

    metrics = MetricsLog(out / "student_metrics.csv",
                         ["step", "lr", "mae", "ssim_loss", "duration",
                          "grad_norm", "clipped", "wall_s"])
    eval_log = MetricsLog(out / "student_eval.csv",
                          ["epoch", "step", "mae", "ssim", "duration", "total"])
    ckpt_path = out / "student.ckpt"

    def save(epoch_done):
        save_checkpoint(
            ckpt_path, model, cfg, "student", epoch=epoch_done, step=step,
            stats=(mean, std),
            plateau=[schedule.current,
                     np.nan if schedule.best is None else schedule.best,
                     schedule.bad_count])

    history = []
    model.train()
    epoch = start_epoch
    while (step < max_steps if max_steps is not None
           else epoch < cfg.student.epochs):
        order = rng.permutation(len(train_items))
        for idx in iterate_minibatches(order, cfg.training.batch_size):
            step += 1
            opt.lr = schedule.current
            batch = pad_student_batch([train_items[i] for i in idx])
            mae, ssim_loss, duration, grad_norm = student_training_step(
                model, batch, opt)
            metrics.append(step=step, lr=opt.lr, mae=mae, ssim_loss=ssim_loss,
                           duration=duration,
                           **_step_metrics(opt, grad_norm, started))
            history.append({"step": step, "mae": mae, "ssim_loss": ssim_loss,
                            "duration": duration})
            if max_steps is not None and step >= max_steps:
                break
        epoch += 1
        scores = evaluate_student(model, eval_items, cfg)
        schedule.update(scores["total"])
        eval_log.append(epoch=epoch, step=step, **scores)
        if not quiet:
            print(f"epoch {epoch}: step {step} lr {schedule.current:.2e} "
                  f"eval mae {scores['mae']:.4f} ssim {scores['ssim']:.4f}")
        if epoch % cfg.training.checkpoint_every == 0:
            save(epoch)
    save(epoch)
    train_scores = evaluate_student(model, train_items, cfg)
    return {"checkpoint": ckpt_path, "model": model, "history": history,
            "train_eval": train_scores, "stats": (mean, std), "step": step}


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


def run_synthesize(cfg, checkpoint_path, out_path, text=None, phonemes=None,
                   model=None, stats=None):
    """phonemes -> spectrogram -> phase reconstruction -> WAV on disk."""
    acfg = audio_config(cfg)
    _, ids = phonemize(text=text, phonemes=phonemes)
    if model is None:
        model = build_student(cfg, len(PhonemeVocabulary()))
        meta = load_checkpoint(checkpoint_path, model, cfg, "student")
        if "stats" not in meta:
            raise CheckpointError(
                f"{checkpoint_path}: no normalization stats stored; "
                "was the student trained?")
        stats = meta["stats"]
    elif stats is None:
        raise ValueError("stats required when passing a model directly")
    model.eval()
    mel_std, durations = student_synthesize(model, ids)
    mel = denormalize_standard(mel_std, stats[0], stats[1])
    wave = griffin_lim(mel, iterations=cfg.data.griffin_lim_iterations,
                       config=acfg)
    save_wav(out_path, wave, acfg.sample_rate)
    return {"path": Path(out_path), "frames": int(durations.sum()),
            "durations": durations,
            "seconds": len(wave) / acfg.sample_rate}
