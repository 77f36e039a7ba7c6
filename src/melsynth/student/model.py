"""Fully parallel synthesizer.

Phonemes are embedded and encoded by a dilated residual stack, per-phoneme
durations are predicted in log(1+d) space by a small detached head, the
encodings are expanded to frame rate, and a second stack decodes the whole
spectrogram in one pass (standardized regression targets, no output
activation).
"""

from __future__ import annotations

import numpy as np

from ..nn_core import (Conv1d, Embedding, Linear, Module, PlainResidualBlock,
                       RowLayout)
from ..nn_core import functional as F


def student_dilations(n_blocks, cycle):
    return [cycle[i % len(cycle)] for i in range(n_blocks)]


ENCODER_CYCLE = (1, 1, 2, 2, 4, 4)
DECODER_CYCLE = (1, 1, 2, 2, 4, 4, 8, 8)
DURATION_DILATIONS = (4, 3, 1)


class PlainStack(Module):
    """Sequential plain residual blocks with optional padding mask.

    The batch is packed once into a guard-banded row (see
    :class:`~melsynth.nn_core.layers.RowLayout`), as in the teacher's
    GatedStack, with the guards re-zeroed after every block. In eval mode
    each item takes its true length from the mask and padded frames are never
    computed; in train mode every item keeps the full length, so batch norm
    sees the same frames as the padded batch. Output frames where the mask
    is 0 are zero.
    """

    def __init__(self, channels, kernel_size, dilations, rng):
        super().__init__()
        self.blocks = [
            PlainResidualBlock(channels, kernel_size, d, causal=False, rng=rng)
            for d in dilations
        ]

    def forward(self, x, mask=None):
        if not self.blocks:
            return x
        layout = RowLayout(x, mask, max(b.conv.reach() for b in self.blocks),
                           packed=not self.training)
        h = layout.pack(x)
        for block in self.blocks:
            h = block.run(h, layout)
        return layout.unpack(h)


class StudentModel(Module):
    def __init__(self, vocab_size, mel_bins=80, channels=128, enc_blocks=26,
                 dec_blocks=34, duration_blocks=3, kernel_size=3, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.mel_bins = mel_bins
        self.channels = channels
        self.embedding = Embedding(vocab_size, channels, rng=rng)
        self.encoder = PlainStack(channels, kernel_size,
                                  student_dilations(enc_blocks, ENCODER_CYCLE), rng)
        self.duration_blocks = PlainStack(
            channels, kernel_size,
            student_dilations(duration_blocks, DURATION_DILATIONS), rng)
        self.duration_conv = Conv1d(channels, channels, kernel_size, rng=rng)
        self.duration_out = Linear(channels, 1, rng=rng)
        self.decoder = PlainStack(channels, kernel_size,
                                  student_dilations(dec_blocks, DECODER_CYCLE), rng)
        self.out_proj = Conv1d(channels, mel_bins, 1, rng=rng)

    def encode(self, phoneme_ids, phoneme_mask=None):
        """(batch, N) ids -> (batch, channels, N) encodings."""
        ids = np.asarray(phoneme_ids)
        if ids.shape[1] == 0:
            raise ValueError("empty phoneme sequence")
        x = self.embedding(ids)
        if phoneme_mask is not None:
            x = F.mul(x, phoneme_mask)
        return self.encoder(x, phoneme_mask)

    def predict_log_durations(self, encodings, phoneme_mask=None):
        """(batch, channels, N) -> (batch, 1, N) log(1+duration) predictions.

        The head reads a detached copy, so duration loss cannot reach the
        encoder.
        """
        h = self.duration_blocks(encodings.detach(), phoneme_mask)
        h = self.duration_conv(h)
        if phoneme_mask is not None:
            h = F.mul(h, phoneme_mask)
        return self.duration_out(h)

    def decode(self, expanded, frame_mask=None):
        """(batch, channels, T) expanded encodings -> (batch, mel_bins, T)."""
        h = self.decoder(expanded, frame_mask)
        return self.out_proj(h)


def round_durations(log_durations):
    """Invert the log(1+d) convention: round(exp(p) - 1), clamped to >= 0."""
    d = np.round(np.exp(np.asarray(log_durations, dtype=np.float64)) - 1.0)
    return np.maximum(d, 0.0).astype(np.int64)
