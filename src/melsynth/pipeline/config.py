"""Sectioned `key = value` configuration with every default baked in.

An empty file (or no file) trains the full-size architecture; a config only
needs to state what differs. Unknown sections or keys are rejected so typos
cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from ..audio_frontend import AudioConfig, PhonemeVocabulary
from ..audio_frontend.griffin_lim import GRIFFIN_LIM_ITERATIONS
from ..teacher.augment import AugmentParams


class ConfigError(ValueError):
    pass


@dataclass
class DataSection:
    root: str = "data"
    holdout: int = 2
    durations: str = "durations.csv"
    griffin_lim_iterations: int = GRIFFIN_LIM_ITERATIONS


@dataclass
class AudioSection:
    sample_rate: int = 22050
    n_fft: int = 1024
    win_length: int = 1024
    hop_length: int = 256
    mel_bins: int = 80
    fmin: float = 0.0
    fmax: float = 8000.0


@dataclass
class TeacherSection:
    residual_channels: int = 40
    gate_channels: int = 80
    encoder_blocks: int = 10
    decoder_blocks: int = 14
    embedding_dim: int = 128
    attention_dim: int = 128
    kernel_size: int = 3
    guided_g: float = 0.2
    epochs: int = 250


@dataclass
class StudentSection:
    channels: int = 128
    encoder_blocks: int = 26
    decoder_blocks: int = 34
    duration_blocks: int = 3
    kernel_size: int = 3
    epochs: int = 100


@dataclass
class TrainingSection:
    batch_size: int = 64
    base_lr: float = 0.002
    warmup_epochs: int = 30
    grad_clip: float = 1.0
    seed: int = 1234
    checkpoint_every: int = 25
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    min_lr: float = 1e-5


@dataclass
class PipelineConfig:
    data: DataSection = field(default_factory=DataSection)
    audio: AudioSection = field(default_factory=AudioSection)
    teacher: TeacherSection = field(default_factory=TeacherSection)
    student: StudentSection = field(default_factory=StudentSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    augment: AugmentParams = field(default_factory=AugmentParams)


SECTION_ORDER = ("data", "audio", "teacher", "student", "training", "augment")


def default_config():
    return PipelineConfig()


def _coerce(raw, kind, where):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
    except ValueError:
        pass
    raise ConfigError(f"{where}: cannot parse {raw!r} as {kind.__name__}")


def parse_config(text, source="<config>"):
    cfg = default_config()
    section_name = None
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip()
            if section_name not in SECTION_ORDER:
                raise ConfigError(f"{where}: unknown section [{section_name}]")
            section = getattr(cfg, section_name)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{where}: key before any [section] header")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in {f.name for f in fields(section)}:
            raise ConfigError(f"{where}: unknown key {key!r} in [{section_name}]")
        kind = type(getattr(section, key))
        setattr(section, key, _coerce(value, kind, where))
    _check_counts(cfg, source)
    _check_ranges(cfg, source)
    _check_stft_sizes(cfg.audio, source)
    _check_attention(cfg.teacher, source)
    return cfg


# (section, key) of every count or size that must be >= 1
COUNT_KEYS = (("audio", "hop_length"), ("audio", "mel_bins"),
              ("data", "griffin_lim_iterations"),
              ("training", "batch_size"), ("training", "checkpoint_every"),
              ("teacher", "encoder_blocks"), ("teacher", "decoder_blocks"),
              ("teacher", "embedding_dim"), ("teacher", "kernel_size"),
              ("student", "kernel_size"))
# widths split in halves (sine and cosine positional features, the gated
# blocks' filter and gate), so they must be even as well
EVEN_KEYS = (("teacher", "residual_channels"), ("teacher", "gate_channels"),
             ("student", "channels"))


def _check_counts(cfg, source):
    """Counts and widths the trainers, models and vocoder can run, caught
    before any model builds."""
    for section, key in COUNT_KEYS + EVEN_KEYS:
        value = getattr(getattr(cfg, section), key)
        if value < 1:
            raise ConfigError(f"{source}: [{section}] {key} = {value} "
                              "must be at least 1")
        if value % 2 and (section, key) in EVEN_KEYS:
            raise ConfigError(f"{source}: [{section}] {key} = {value} "
                              "must be even")


# (section, key, rule, test) of every real-valued setting outside whose range
# training fails or misbehaves
RANGE_KEYS = (
    ("training", "base_lr", "above 0", lambda v: v > 0),
    ("training", "grad_clip", "above 0", lambda v: v > 0),
    ("teacher", "guided_g", "above 0", lambda v: v > 0),
    ("augment", "noise_std", "at least 0", lambda v: v >= 0),
    ("training", "min_lr", "at least 0", lambda v: v >= 0),
    ("training", "seed", "at least 0", lambda v: v >= 0),
    ("augment", "max_feedback_passes", "at least 0", lambda v: v >= 0),
    # zero blocks is an empty stack
    ("student", "encoder_blocks", "at least 0", lambda v: v >= 0),
    ("student", "decoder_blocks", "at least 0", lambda v: v >= 0),
    ("student", "duration_blocks", "at least 0", lambda v: v >= 0),
    ("augment", "replace_prob", "in [0, 1]", lambda v: 0 <= v <= 1),
    # above 1 the plateau schedule would raise the learning rate
    ("training", "plateau_factor", "in (0, 1]", lambda v: 0 < v <= 1),
)


def _check_ranges(cfg, source):
    for section, key, rule, test in RANGE_KEYS:
        value = getattr(getattr(cfg, section), key)
        if not test(value):
            raise ConfigError(f"{source}: [{section}] {key} = {value} must be {rule}")
    # the plateau schedule's floor; above base_lr a reduction would raise lr
    training = cfg.training
    if training.min_lr > training.base_lr:
        raise ConfigError(f"{source}: [training] min_lr = {training.min_lr} "
                          f"must be at most base_lr = {training.base_lr}")


def _check_stft_sizes(audio, source):
    """STFT framing the analysis and Griffin-Lim can both honour."""
    if not 1 <= audio.win_length <= audio.n_fft:
        raise ConfigError(f"{source}: [audio] win_length = {audio.win_length} "
                          f"must be between 1 and n_fft = {audio.n_fft}")


def _check_attention(teacher, source):
    """Attention values add the raw embeddings, so the widths must match."""
    if teacher.attention_dim != teacher.embedding_dim:
        raise ConfigError(f"{source}: [teacher] attention_dim = "
                          f"{teacher.attention_dim} must equal embedding_dim = "
                          f"{teacher.embedding_dim}")


def load_config(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    return parse_config(text, source=str(path))


def config_to_text(cfg):
    """Canonical text form; parse_config(config_to_text(cfg)) == cfg."""
    lines = []
    for name in SECTION_ORDER:
        section = getattr(cfg, name)
        lines.append(f"[{name}]")
        for f in fields(section):
            lines.append(f"{f.name} = {getattr(section, f.name)}")
        lines.append("")
    return "\n".join(lines)


def audio_config(cfg):
    a = cfg.audio
    return AudioConfig(sample_rate=a.sample_rate, n_fft=a.n_fft,
                       win_length=a.win_length, hop_length=a.hop_length,
                       n_mels=a.mel_bins, fmin=a.fmin, fmax=a.fmax)


TEACHER_ARCH_KEYS = ("residual_channels", "gate_channels", "encoder_blocks",
                     "decoder_blocks", "embedding_dim", "attention_dim",
                     "kernel_size")
STUDENT_ARCH_KEYS = ("channels", "encoder_blocks", "decoder_blocks",
                     "duration_blocks", "kernel_size")


def architecture_text(cfg, kind):
    """Canonical description of everything that shapes the weight tensors.

    Schedule knobs (epochs, lr, ...) are deliberately excluded so retraining
    plans do not invalidate otherwise compatible checkpoints.
    """
    if kind == "teacher":
        section, keys = cfg.teacher, TEACHER_ARCH_KEYS
    elif kind == "student":
        section, keys = cfg.student, STUDENT_ARCH_KEYS
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    lines = [f"kind = {kind}",
             f"vocab_size = {len(PhonemeVocabulary())}",
             f"mel_bins = {cfg.audio.mel_bins}"]
    lines += [f"{k} = {getattr(section, k)}" for k in keys]
    return "\n".join(lines)
