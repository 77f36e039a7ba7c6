"""Autoregressive aligner: model, losses, augmentation, duration extraction."""

from .model import NEG_INF, GatedStack, TeacherModel, shift_frames, teacher_dilations
from .losses import (
    batch_guided_attention_loss,
    diagonality_score,
    guided_attention_weights,
    masked_mae,
)
from .align import (
    FORWARD_REACH,
    AlignmentError,
    durations_from_path,
    extract_batch_durations,
    extract_durations,
    masked_attention_path,
)
from .augment import AugmentParams, augment_batch
from .train import (
    batch_diagonality,
    build_inputs,
    iterate_minibatches,
    pad_teacher_batch,
    prepare_utterance,
    teacher_losses,
    teacher_training_step,
)
