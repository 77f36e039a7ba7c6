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
    masked_huber,
    pad_student_batch,
    student_losses,
    student_training_step,
    synthesize,
    synthesize_batch,
)
