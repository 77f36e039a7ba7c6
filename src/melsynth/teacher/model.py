"""Autoregressive convolutional aligner.

Phoneme encoder (non-causal gated blocks) and spectrogram encoder (causal
gated blocks) meet in a single dot-product attention; a causal gated decoder
turns attention context plus spectrogram encoding into next-frame
predictions through a sigmoid, so outputs live in (0,1) like the
unit-interval targets.
"""

from __future__ import annotations

import numpy as np

from ..nn_core import Conv1d, Embedding, GatedResidualBlock, Linear, Module, RowLayout
from ..nn_core import functional as F

NEG_INF = -1e9


def teacher_dilations(n_blocks):
    """1,3,9,27 twice, then 1 for any remaining blocks."""
    cycle = [1, 3, 9, 27]
    return [cycle[i % 4] if i < 8 else 1 for i in range(n_blocks)]


class GatedStack(Module):
    """Chain of gated residual blocks; stack output is the sum of skip outputs.

    The batch is packed once into a guard-banded row (see
    :class:`~melsynth.nn_core.layers.RowLayout`), each item at its true
    length, so padded frames are never computed. The guards are as wide as
    the widest conv reach and every block zeroes them, so items never see
    each other. On item columns every block adds its skip output to the
    row, so the sum of the skips is the last row minus the first.
    Output frames past an item's length are zero.
    """

    def __init__(self, channels, gate_channels, kernel_size, dilations, causal, rng):
        super().__init__()
        self.blocks = [
            GatedResidualBlock(channels, gate_channels, kernel_size, d, causal, rng=rng)
            for d in dilations
        ]

    def forward(self, x, mask):
        layout = RowLayout(x, mask, max(b.conv.reach() for b in self.blocks))
        h0 = h = layout.pack(x)
        for block in self.blocks:
            h = block.run(h, layout)
        return layout.unpack(F.sub(h, h0))


class TeacherModel(Module):
    def __init__(self, vocab_size, mel_bins=80, residual_channels=40,
                 gate_channels=80, enc_blocks=10, dec_blocks=14,
                 embedding_dim=128, attention_dim=128, kernel_size=3, rng=None):
        super().__init__()
        if embedding_dim != attention_dim:
            # values are projected encoder outputs plus raw embeddings
            raise ValueError("embedding_dim must equal attention_dim")
        rng = rng if rng is not None else np.random.default_rng()
        ch = residual_channels
        self.mel_bins = mel_bins
        self.channels = ch
        self.attention_dim = attention_dim

        self.embedding = Embedding(vocab_size, embedding_dim, rng=rng)
        self.phoneme_prenet = Linear(embedding_dim, ch, rng=rng)
        self.phoneme_stack = GatedStack(ch, gate_channels, kernel_size,
                                        teacher_dilations(enc_blocks), False, rng)
        self.frame_prenet = Linear(mel_bins, ch, rng=rng)
        self.frame_stack = GatedStack(ch, gate_channels, kernel_size,
                                      teacher_dilations(enc_blocks), True, rng)
        # keys and queries share one projection; values get their own
        self.key_query_proj = Linear(ch, attention_dim, rng=rng)
        self.value_proj = Linear(ch, attention_dim, rng=rng)
        self.context_proj = Linear(attention_dim, ch, rng=rng)
        self.decoder_stack = GatedStack(ch, gate_channels, kernel_size,
                                        teacher_dilations(dec_blocks), True, rng)
        self.post1 = Conv1d(ch, mel_bins, 1, rng=rng)
        self.post2 = Conv1d(mel_bins, mel_bins, 1, rng=rng)

    # -- attention pieces --------------------------------------------------

    def encode_phonemes(self, phoneme_ids, phoneme_mask):
        """Returns (keys, values, encoder_output) for (batch, N) ids."""
        emb = self.embedding(phoneme_ids)
        hidden = F.relu(self.phoneme_prenet(emb))
        enc = self.phoneme_stack(hidden, phoneme_mask)
        n = phoneme_ids.shape[1]
        pe = F.sinusoid_table(np.arange(n), self.channels)[None]
        keys = self.key_query_proj(F.add(enc, pe))
        values = F.mul(F.add(self.value_proj(enc), emb), np.sqrt(0.5))
        return keys, values, enc

    def encode_frames(self, frames, position_rates, frame_mask):
        """Causal encoding of shifted input frames; query positions advance at
        `position_rates` phonemes per frame (one rate per batch item)."""
        hidden = F.relu(self.frame_prenet(frames))
        enc = self.frame_stack(hidden, frame_mask)
        t = frames.shape[2]
        rates = np.atleast_1d(np.asarray(position_rates, dtype=np.float64))
        pe = np.stack([F.sinusoid_table(np.arange(t) * r, self.channels) for r in rates])
        queries = self.key_query_proj(F.add(enc, pe))
        return queries, enc

    def attention_logits(self, keys, queries):
        scores = F.matmul(F.transpose_last2(keys), queries)
        return F.mul(scores, 1.0 / np.sqrt(self.attention_dim))

    def decode(self, values, attention, frame_encoding, frame_mask):
        context = F.matmul(values, attention)
        dec_in = F.add(self.context_proj(context), frame_encoding)
        skips = self.decoder_stack(dec_in, frame_mask)
        hidden = F.relu(self.post1(skips))
        return F.sigmoid(self.post2(hidden))

    # -- full forward --------------------------------------------------------

    def forward(self, phoneme_ids, frames, position_rates, phoneme_mask, frame_mask):
        """Parallel teacher-forced pass.

        phoneme_ids: (batch, N) ints; frames: (batch, mel_bins, T) tensor of
        shifted unit-interval input; position_rates: per-item N/T; the masks:
        (batch, 1, N) and (batch, 1, T) length masks. Returns (predictions
        (batch, mel_bins, T), attention (batch, N, T)); padded phonemes get
        NEG_INF logits, so softmax ignores them.
        """
        phoneme_ids = np.asarray(phoneme_ids)
        if phoneme_ids.shape[1] == 0 or frames.shape[2] == 0:
            raise ValueError("empty phoneme or frame sequence")
        keys, values, _ = self.encode_phonemes(phoneme_ids, phoneme_mask)
        queries, frame_enc = self.encode_frames(frames, position_rates, frame_mask)
        logits = self.attention_logits(keys, queries)
        logits = F.add(logits, (1.0 - np.swapaxes(phoneme_mask, 1, 2)) * NEG_INF)
        attention = F.softmax(logits, axis=1)
        pred = self.decode(values, attention, frame_enc, frame_mask)
        return pred, attention


def shift_frames(mel):
    """Autoregressive input: zero frame first, then the target minus its last frame."""
    mel = np.asarray(mel)
    out = np.zeros_like(mel)
    out[..., 1:] = mel[..., :-1]
    return out
