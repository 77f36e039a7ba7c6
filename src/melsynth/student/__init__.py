"""Parallel spectrogram synthesizer conditioned on phonemes and durations."""

from .expand import expand_encodings, expansion_indices, reset_positions
from .model import (
    DECODER_CYCLE,
    DURATION_DILATIONS,
    ENCODER_CYCLE,
    PlainStack,
    StudentModel,
    round_durations,
    student_dilations,
)
from .ssim import gaussian_window, ssim_index
from .train import (
    batch_ssim,
    masked_huber,
    pad_student_batch,
    student_losses,
    student_training_step,
    synthesize,
    synthesize_batch,
)

__all__ = [
    "DECODER_CYCLE",
    "DURATION_DILATIONS",
    "ENCODER_CYCLE",
    "PlainStack",
    "StudentModel",
    "batch_ssim",
    "expand_encodings",
    "expansion_indices",
    "gaussian_window",
    "masked_huber",
    "pad_student_batch",
    "reset_positions",
    "round_durations",
    "ssim_index",
    "student_dilations",
    "student_losses",
    "student_training_step",
    "synthesize",
    "synthesize_batch",
]
