"""Padded batches: the pad_right/length_mask helpers and every batch builder.

The reference builders below are the per-item padding loops the builders
used before they shared the two helpers; each builder must match its
reference bit for bit, in values, dtypes and shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import augment_item_reference, gather_time, gradcheck, mean
from melsynth.audio_frontend import Utterance
from melsynth.nn_core import Tensor, no_grad
from melsynth.nn_core import functional as F
from melsynth.student import StudentModel, expand_encodings, pad_student_batch
from melsynth.student import train as student_train
from melsynth.student.expand import expansion_indices, reset_positions
from melsynth.teacher import (
    AugmentParams,
    TeacherModel,
    build_inputs,
    pad_teacher_batch,
    shift_frames,
)

# ---------------------------------------------------------------------------
# references: the hand-written loops
# ---------------------------------------------------------------------------


def ref_pad_teacher_batch(items, mel_bins):
    batch = len(items)
    n_max = max(u.n_phonemes for u in items)
    t_max = max(u.mel.shape[1] for u in items)
    ids = np.zeros((batch, n_max), dtype=np.int64)
    targets = np.zeros((batch, mel_bins, t_max), dtype=np.float32)
    phoneme_mask = np.zeros((batch, 1, n_max), dtype=np.float32)
    frame_mask = np.zeros((batch, 1, t_max), dtype=np.float32)
    rates = np.zeros(batch, dtype=np.float64)
    n_lengths = np.zeros(batch, dtype=np.int64)
    t_lengths = np.zeros(batch, dtype=np.int64)
    for i, u in enumerate(items):
        n, t = u.n_phonemes, u.mel.shape[1]
        ids[i, :n] = u.phoneme_ids
        targets[i, :, :t] = u.mel
        phoneme_mask[i, 0, :n] = 1.0
        frame_mask[i, 0, :t] = 1.0
        rates[i] = n / t
        n_lengths[i] = n
        t_lengths[i] = t
    return {
        "ids": ids, "targets": targets, "phoneme_mask": phoneme_mask,
        "frame_mask": frame_mask, "rates": rates,
        "n_lengths": n_lengths, "t_lengths": t_lengths,
    }


def ref_build_inputs(batch, model, rng, augment):
    targets = batch["targets"]
    inputs = np.empty_like(targets)
    k = int(rng.integers(0, augment.max_feedback_passes + 1))
    for i in range(targets.shape[0]):
        t = int(batch["t_lengths"][i])
        n = int(batch["n_lengths"][i])
        degraded = augment_item_reference(
            targets[i, :, :t], model, rng, augment,
            batch["ids"][i, :n], feedback_passes=k,
            position_rate=batch["rates"][i],
        )
        inputs[i] = 0.0
        inputs[i, :, :t] = degraded
    return shift_frames(inputs)


def ref_pad_student_batch(items):
    n_lengths = [len(ids) for ids, _, _ in items]
    t_lengths = [int(np.sum(d)) for _, d, _ in items]
    batch = len(items)
    n_max = max(n_lengths)
    t_max = max(t_lengths)
    bins = items[0][2].shape[0]
    ids = np.zeros((batch, n_max), dtype=np.int64)
    durations = np.zeros((batch, n_max), dtype=np.int64)
    log_durations = np.zeros((batch, 1, n_max), dtype=np.float32)
    phoneme_mask = np.zeros((batch, 1, n_max), dtype=np.float32)
    targets = np.zeros((batch, bins, t_max), dtype=np.float32)
    frame_mask = np.zeros((batch, 1, t_max), dtype=np.float32)
    for i, (pid, dur, mel) in enumerate(items):
        n, t = n_lengths[i], t_lengths[i]
        ids[i, :n] = pid
        durations[i, :n] = dur
        log_durations[i, 0, :n] = np.log1p(np.asarray(dur, dtype=np.float64))
        phoneme_mask[i, 0, :n] = 1.0
        targets[i, :, :t] = mel
        frame_mask[i, 0, :t] = 1.0
    return {
        "ids": ids, "durations": durations, "log_durations": log_durations,
        "phoneme_mask": phoneme_mask, "targets": targets,
        "frame_mask": frame_mask, "n_lengths": n_lengths,
        "t_lengths": t_lengths,
    }


def ref_synthesis_inputs(seqs, durations):
    """ids, phoneme_mask and padded durations as synthesize_batch built them."""
    n_max = max(ids.size for ids in seqs)
    ids = np.zeros((len(seqs), n_max), dtype=np.int64)
    phoneme_mask = np.zeros((len(seqs), 1, n_max), dtype=np.float32)
    padded = np.zeros((len(seqs), n_max), dtype=np.int64)
    for i, (item, d) in enumerate(zip(seqs, durations)):
        ids[i, :item.size] = item
        phoneme_mask[i, 0, :item.size] = 1.0
        padded[i, :d.size] = d
    return ids, phoneme_mask, padded


def ref_expand_encodings(encodings, durations):
    durations = np.atleast_2d(np.asarray(durations, dtype=np.int64))
    batch, channels, _ = encodings.shape
    lengths = durations.sum(axis=1)
    t_max = int(lengths.max())
    gather = np.zeros((batch, t_max), dtype=np.int64)
    positions = np.zeros((batch, t_max), dtype=np.int64)
    frame_mask = np.zeros((batch, 1, t_max), dtype=np.float32)
    for i in range(batch):
        t_i = int(lengths[i])
        gather[i, :t_i] = expansion_indices(durations[i])
        positions[i, :t_i] = reset_positions(durations[i])
        frame_mask[i, 0, :t_i] = 1.0
    expanded = gather_time(encodings, gather)
    table = F.sinusoid_table(np.arange(positions.max() + 1), channels)
    pe = np.ascontiguousarray(table[:, positions].transpose(1, 0, 2))
    pe *= frame_mask
    out = F.mul(F.add(expanded, pe), frame_mask)
    return out, frame_mask, lengths


def assert_same_arrays(got, want):
    assert set(got) == set(want)
    for key in want:
        g, w = np.asarray(got[key]), np.asarray(want[key])
        assert g.shape == w.shape, key
        assert g.dtype == w.dtype, key
        np.testing.assert_array_equal(g, w, err_msg=key)


def teacher_items(rng, count=4, bins=8):
    return [
        Utterance(f"u{i}", rng.integers(1, 40, size=int(rng.integers(2, 9))),
                  None,
                  mel=rng.random((bins, int(rng.integers(3, 20)))).astype(
                      np.float32))
        for i in range(count)
    ]


def student_items(rng, count=4, bins=6):
    items = []
    for _ in range(count):
        n = int(rng.integers(1, 8))
        dur = rng.integers(0, 5, size=n)
        dur[0] += 1  # every item has at least one frame
        items.append((rng.integers(1, 24, size=n), dur,
                      rng.normal(size=(bins, int(dur.sum()))).astype(
                          np.float32)))
    return items


# ---------------------------------------------------------------------------
# the helpers
# ---------------------------------------------------------------------------

lead_shapes = st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple)


class TestPadRight:
    @settings(max_examples=60, deadline=None)
    @given(lead=lead_shapes,
           widths=st.lists(st.integers(0, 6), min_size=1, max_size=5),
           dtype=st.sampled_from([np.int64, np.float32]),
           seed=st.integers(0, 2**32 - 1))
    def test_items_kept_and_tail_zero(self, lead, widths, dtype, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.integers(-9, 10, size=(*lead, w)) for w in widths]
        out = F.pad_right(arrays, dtype)
        assert out.shape == (len(widths), *lead, max(widths))
        assert out.dtype == dtype
        for i, (a, w) in enumerate(zip(arrays, widths)):
            np.testing.assert_array_equal(out[i, ..., :w], a)
            assert not np.any(out[i, ..., w:])

    @settings(max_examples=40, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
           other=st.lists(st.integers(1, 3), min_size=0, max_size=2).map(tuple),
           widths=st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_leading_axes_that_differ_raise(self, lead, other, widths):
        if lead == other:
            other = (*other, 1)
        arrays = [np.zeros((*lead, widths[0])), np.zeros((*other, widths[1]))]
        with pytest.raises(ValueError, match="last axis"):
            F.pad_right(arrays, np.float32)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            F.pad_right([], np.float32)


class TestLengthMask:
    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=6),
           extra=st.integers(0, 3))
    def test_rows_sum_to_lengths(self, lengths, extra):
        width = max(lengths) + extra
        mask = F.length_mask(lengths, width)
        assert mask.shape == (len(lengths), 1, width)
        assert mask.dtype == np.float32
        np.testing.assert_array_equal(mask.sum(axis=(1, 2)), lengths)
        for row, n in zip(mask[:, 0], lengths):
            assert np.all(row[:n] == 1.0) and np.all(row[n:] == 0.0)


# ---------------------------------------------------------------------------
# each builder against its reference loop
# ---------------------------------------------------------------------------

class TestBuilderParity:
    def test_pad_teacher_batch(self, rng):
        items = teacher_items(rng)
        assert_same_arrays(pad_teacher_batch(items),
                           ref_pad_teacher_batch(items, mel_bins=8))

    def test_build_inputs_with_augmentation(self, rng):
        model = TeacherModel(vocab_size=40, mel_bins=8, residual_channels=6,
                             gate_channels=8, enc_blocks=2, dec_blocks=2,
                             embedding_dim=12, attention_dim=12, kernel_size=3,
                             rng=rng)
        batch = pad_teacher_batch(teacher_items(rng))
        augment = AugmentParams(noise_std=0.05, max_feedback_passes=2,
                                replace_prob=0.2)
        for seed in range(3):  # covers k = 0, 1 and 2 feedback passes
            got = build_inputs(batch, model=model,
                               rng=np.random.default_rng(seed), augment=augment)
            want = ref_build_inputs(batch, model, np.random.default_rng(seed),
                                    augment)
            assert_same_arrays({"inputs": got}, {"inputs": want})

    def test_pad_student_batch(self, rng):
        items = student_items(rng)
        batch = pad_student_batch(items)
        want = ref_pad_student_batch(items)
        # the lengths were lists; they are now int64 arrays of equal values
        for key in ("n_lengths", "t_lengths"):
            assert batch[key].dtype == np.int64
            assert batch[key].tolist() == want.pop(key)
            del batch[key]
        assert_same_arrays(batch, want)

    @pytest.mark.parametrize("given_durations", [True, False])
    def test_synthesize_batch_inputs(self, rng, monkeypatch, given_durations):
        model = StudentModel(vocab_size=24, mel_bins=6, channels=8,
                             enc_blocks=2, dec_blocks=2, duration_blocks=1,
                             rng=rng)
        model.duration_out.bias.data[:] = np.log(3.0)  # several frames each
        seqs = [rng.integers(1, 24, size=n) for n in (5, 2, 7)]
        durations = [rng.integers(1, 4, size=s.size) for s in seqs] \
            if given_durations else None
        seen = {}
        encode, expand = model.encode, student_train.expand_encodings

        def spy_encode(ids, phoneme_mask):
            seen["ids"], seen["phoneme_mask"] = ids, phoneme_mask
            return encode(ids, phoneme_mask)

        def spy_expand(encodings, padded):
            seen["durations"] = padded
            return expand(encodings, padded)

        monkeypatch.setattr(model, "encode", spy_encode)
        monkeypatch.setattr(student_train, "expand_encodings", spy_expand)
        _, used = student_train.synthesize_batch(model, seqs, durations)
        ids, phoneme_mask, padded = ref_synthesis_inputs(seqs, used)
        assert_same_arrays(seen, {"ids": ids, "phoneme_mask": phoneme_mask,
                                  "durations": padded})

    def test_expand_encodings(self, rng):
        durations = np.array([[2, 0, 3, 1], [1, 1, 0, 0], [0, 4, 4, 2]])
        encodings = rng.normal(size=(3, 8, 4)).astype(np.float32)
        out, mask, lengths = expand_encodings(Tensor(encodings), durations)
        ref_out, ref_mask, ref_lengths = ref_expand_encodings(
            Tensor(encodings), durations)
        assert_same_arrays(
            {"out": out.data, "mask": mask, "lengths": lengths},
            {"out": ref_out.data, "mask": ref_mask, "lengths": ref_lengths})

    def test_expand_encodings_rejects_row_count_mismatch(self, rng):
        # one duration row would otherwise broadcast over every item
        encodings = Tensor(rng.normal(size=(2, 8, 3)).astype(np.float32))
        with pytest.raises(ValueError, match="1 duration rows for 2 items"):
            expand_encodings(encodings, np.array([1, 2, 1]))


# ---------------------------------------------------------------------------
# the expansion as one op, and the decoder's projection on its packed row
# ---------------------------------------------------------------------------

def ragged_durations(rng, batch, phonemes):
    """(batch, phonemes) durations of 0-4 frames, items of different
    lengths, zero-duration phonemes inside and at the ends, no empty item."""
    durations = rng.integers(0, 5, size=(batch, phonemes))
    for i in range(batch):
        durations[i, rng.integers(0, phonemes)] = 0
        durations[i, rng.integers(phonemes // 2, phonemes + 1):] = 0
        durations[i, i % phonemes] += 1
    return durations


def expand_and_grad(expand, encodings, durations, upstream):
    """expand's output and mask, and the gradient of sum(out * upstream)
    with respect to the encodings."""
    x = Tensor(encodings.copy(), requires_grad=True)
    out, mask, lengths = expand(x, durations)
    F.sum(F.mul(out, upstream)).backward()
    return out.data, mask, lengths, x.grad


class TestExpandTime:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gather_add_mul_chain(self, dtype, seed):
        rng = np.random.default_rng(seed)
        durations = ragged_durations(rng, 5, 7)
        encodings = rng.normal(size=(5, 8, 7)).astype(dtype)
        frames = int(durations.sum(axis=1).max())
        # nonzero on the padding too, which must reach no encoding
        upstream = rng.normal(size=(5, 8, frames)).astype(dtype)
        got = expand_and_grad(expand_encodings, encodings, durations, upstream)
        want = expand_and_grad(ref_expand_encodings, encodings, durations,
                               upstream)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    def test_one_tape_node(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32),
                   requires_grad=True)
        out, _, _ = expand_encodings(x, np.array([[1, 0, 2], [2, 2, 0]]))
        assert out._parents == (x,)
        assert out.data.flags.c_contiguous

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        durations = np.array([[2, 0, 1, 3, 0], [0, 0, 4, 0, 0], [1, 1, 0, 0, 0]])
        frames = int(durations.sum(axis=1).max())
        weights = rng.normal(size=(3, 4, frames))

        def loss():
            out, _, _ = expand_encodings(x, durations)
            return mean(F.huber(F.mul(out, weights), delta=0.5))

        gradcheck(loss, [x])

    def test_index_range_checked(self):
        x = Tensor(np.zeros((1, 2, 4), np.float32))
        table = np.zeros((2, 1), np.float32)
        with pytest.raises(IndexError):
            F.expand_time(x, [np.array([4])], [np.array([0])], table)


def decoding_student(rng):
    model = StudentModel(vocab_size=20, mel_bins=6, channels=8, enc_blocks=1,
                         dec_blocks=4, duration_blocks=1, rng=rng)
    for block in model.decoder.blocks:
        block.norm.running_mean[...] = rng.uniform(0.0, 0.5, 8)
        block.norm.running_var[...] = rng.uniform(0.2, 1.0, 8)
    model.out_proj.bias.data[...] = rng.normal(size=6)  # nonzero on padding
    return model


class TestDecodeOnPackedRow:
    """decode runs out_proj on the decoder's packed row and unpacks the mel
    bins; before, out_proj ran on the unpacked padded batch."""

    @pytest.mark.parametrize("training", [False, True])
    def test_matches_projection_of_padded_batch(self, rng, training):
        model = decoding_student(rng)
        model.train(training)
        lengths = (30, 9, 17, 1)
        x = rng.normal(size=(4, 8, 30)).astype(np.float32)
        mask = F.length_mask(lengths, 30)
        with no_grad():
            got = model.decode(Tensor(x), mask).data
            want = model.out_proj(model.decoder(Tensor(x), mask)).data
        assert got.shape == want.shape == (4, 6, 30)
        for i, n in enumerate(lengths):
            np.testing.assert_array_equal(got[i, :, :n], want[i, :, :n])
            assert not np.any(got[i, :, n:])

    def test_gradients_match_padded_batch(self, rng):
        model = decoding_student(rng)
        lengths = (12, 5, 9)
        x = rng.normal(size=(3, 8, 12)).astype(np.float32)
        mask = F.length_mask(lengths, 12)
        upstream = rng.normal(size=(3, 6, 12)).astype(np.float32) * mask

        def grads(decode):
            for p in model.parameters():
                p.grad = None
            inputs = Tensor(x, requires_grad=True)
            F.sum(F.mul(decode(inputs), upstream)).backward()
            return [inputs.grad] + [p.grad.copy() for p in model.parameters()
                                    if p.grad is not None]

        got = grads(lambda t: model.decode(t, mask))
        want = grads(lambda t: model.out_proj(model.decoder(t, mask)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            # out_proj's weight and bias sums run over the row, not per item
            np.testing.assert_allclose(g, w, rtol=1e-5, atol=1e-6)
