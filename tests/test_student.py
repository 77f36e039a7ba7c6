"""Parallel synthesizer: expansion, duration head, training, inference."""

import numpy as np
import pytest

from melsynth import pipeline
from melsynth.nn_core import Adam, NonFiniteError, Tensor, kernels, no_grad
from melsynth.nn_core import functional as F
from melsynth.student import (
    DECODER_CYCLE,
    DURATION_DILATIONS,
    ENCODER_CYCLE,
    StudentModel,
    expand_encodings,
    expansion_indices,
    masked_huber,
    pad_student_batch,
    reset_positions,
    round_durations,
    ssim_index,
    student_dilations,
    student_losses,
    student_training_step,
    synthesize,
)

from conftest import gradcheck, narrow

VOCAB = 24


def tiny_student(rng, **overrides):
    kwargs = dict(vocab_size=VOCAB, mel_bins=6, channels=16, enc_blocks=4,
                  dec_blocks=4, duration_blocks=2, rng=rng)
    kwargs.update(overrides)
    return StudentModel(**kwargs)


def predicted_log_durations(model, ids):
    with no_grad():
        return model.predict_log_durations(model.encode(ids.reshape(1, -1))).data[0, 0]


def random_items(rng, count=2, bins=6):
    items = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        ids = rng.integers(1, VOCAB, size=n)
        dur = rng.integers(1, 4, size=n)
        mel = rng.normal(size=(bins, int(dur.sum()))).astype(np.float32)
        items.append((ids, dur, mel))
    return items


class TestDilationCycles:
    def test_encoder_cycle_repeats(self):
        got = student_dilations(26, ENCODER_CYCLE)
        assert got[:6] == [1, 1, 2, 2, 4, 4]
        assert got[24:] == [1, 1]
        assert len(got) == 26

    def test_decoder_cycle_repeats(self):
        got = student_dilations(34, DECODER_CYCLE)
        assert got[:8] == [1, 1, 2, 2, 4, 4, 8, 8]
        assert got[32:] == [1, 1]

    def test_duration_head_dilations(self):
        assert student_dilations(3, DURATION_DILATIONS) == [4, 3, 1]


class TestExpansionIndexing:
    def test_small_example(self):
        assert expansion_indices([2, 3]).tolist() == [0, 0, 1, 1, 1]
        assert reset_positions([2, 3]).tolist() == [0, 1, 0, 1, 2]

    def test_zero_duration_phoneme_is_skipped(self):
        assert expansion_indices([0, 4]).tolist() == [1, 1, 1, 1]
        assert reset_positions([0, 4]).tolist() == [0, 1, 2, 3]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            expansion_indices([2, -1])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            expansion_indices([0, 0, 0])

    def test_random_durations_property(self, rng):
        dur = rng.integers(0, 7, size=50)
        dur[0] = 1
        idx = expansion_indices(dur)
        pos = reset_positions(dur)
        assert len(idx) == len(pos) == dur.sum()
        # every frame's position is strictly inside its phoneme's duration
        assert np.all(pos < dur[idx])
        assert np.all(pos >= 0)
        # position resets to zero exactly on phoneme changes
        changes = np.flatnonzero(np.diff(idx)) + 1
        assert np.all(pos[changes] == 0)


class TestExpandEncodings:
    def test_repeats_match_manual_gather(self, rng):
        enc = Tensor(rng.normal(size=(1, 16, 3)).astype(np.float32))
        dur = np.array([[2, 1, 3]])
        out, mask, lengths = expand_encodings(enc, dur)
        assert out.shape == (1, 16, 6)
        assert lengths.tolist() == [6]
        manual = enc.data[0][:, [0, 0, 1, 2, 2, 2]]
        pe = F.sinusoid_table(np.array([0, 1, 0, 0, 1, 2]), 16)
        assert np.allclose(out.data[0], manual + pe, atol=1e-6)

    def test_positional_term_resets_at_boundaries(self, rng):
        enc = Tensor(np.zeros((1, 8, 4), dtype=np.float32))
        out, _, _ = expand_encodings(enc, np.array([[3, 1, 2, 1]]))
        # with zero encodings the output is pure positional term
        starts = [0, 3, 4, 6]
        zero_pe = F.sinusoid_table(np.array([0]), 8)[:, 0]
        for s in starts:
            assert np.allclose(out.data[0, :, s], zero_pe, atol=1e-6)

    def test_matches_per_item_tables(self, rng):
        # reference: one sinusoid table per item over all T_max positions
        enc = Tensor(rng.normal(size=(4, 16, 9)).astype(np.float32))
        dur = rng.integers(0, 12, size=(4, 9))
        dur[:, 0] = 1
        dur[3, 5:] = 0
        out, mask, _ = expand_encodings(enc, dur)
        t_max = mask.shape[2]
        expanded = np.zeros((4, 16, t_max), dtype=np.float32)
        pe = np.zeros((4, 16, t_max), dtype=np.float32)
        for i in range(4):
            t = int(dur[i].sum())
            expanded[i, :, :t] = enc.data[i][:, expansion_indices(dur[i])]
            positions = np.zeros(t_max, dtype=np.int64)
            positions[:t] = reset_positions(dur[i])
            pe[i] = F.sinusoid_table(positions, 16) * mask[i]
        assert np.array_equal(out.data, (expanded + pe) * mask)

    def test_padding_stays_zero(self, rng):
        enc = Tensor(rng.normal(size=(2, 8, 3)).astype(np.float32))
        dur = np.array([[2, 2, 2], [1, 1, 0]])
        out, mask, lengths = expand_encodings(enc, dur)
        assert lengths.tolist() == [6, 2]
        assert mask[1, 0].tolist() == [1, 1, 0, 0, 0, 0]
        assert np.all(out.data[1, :, 2:] == 0.0)

    def test_gradients_scatter_back_to_phonemes(self, rng):
        enc = Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
        dur = np.array([[2, 1, 3]])

        def loss():
            out, _, _ = expand_encodings(enc, dur)
            return F.sum(F.mul(out, out))

        gradcheck(loss, [enc])


class TestDurationRounding:
    def test_log1p_inversion_examples(self):
        assert round_durations(np.log(1 + 3.4)).item() == 3
        assert round_durations(np.log(1 + 3.6)).item() == 4
        assert round_durations(0.0).item() == 0

    def test_negative_predictions_clamp_to_zero(self):
        assert round_durations(-2.0).item() == 0

    def test_roundtrip_on_integers(self):
        d = np.arange(0, 40)
        assert np.array_equal(round_durations(np.log1p(d)), d)


class TestStudentModel:
    def test_output_shapes(self, rng):
        model = tiny_student(rng)
        ids = rng.integers(1, VOCAB, size=(2, 5))
        enc = model.encode(ids)
        assert enc.shape == (2, 16, 5)
        log_dur = model.predict_log_durations(enc)
        assert log_dur.shape == (2, 1, 5)
        out, mask, _ = expand_encodings(enc, np.full((2, 5), 2))
        pred = model.decode(out, Tensor(mask))
        assert pred.shape == (2, 6, 10)

    def test_empty_sequence_rejected(self, rng):
        model = tiny_student(rng)
        with pytest.raises(ValueError):
            model.encode(np.zeros((1, 0), dtype=np.int64))

    def test_eval_forward_is_deterministic(self, rng):
        model = tiny_student(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=4)
        dur = np.full(4, 3)
        with no_grad():
            a, _ = synthesize(model, ids, dur)
            b, _ = synthesize(model, ids, dur)
        assert np.array_equal(a, b)

    def test_duration_loss_cannot_reach_encoder(self, rng):
        model = tiny_student(rng)
        batch = pad_student_batch(random_items(rng))
        _, _, duration_loss = student_losses(model, batch)
        duration_loss.backward()
        assert model.embedding.weight.grad is None
        for _, p in model.encoder.named_parameters():
            assert p.grad is None
        head_grads = [p.grad for p in model.duration_blocks.parameters()]
        assert any(g is not None and np.any(g != 0) for g in head_grads)

    def test_spectrogram_loss_reaches_encoder(self, rng):
        model = tiny_student(rng)
        batch = pad_student_batch(random_items(rng))
        mae, _, _ = student_losses(model, batch)
        mae.backward()
        assert model.embedding.weight.grad is not None
        assert np.any(model.embedding.weight.grad != 0)
        for _, p in model.duration_blocks.named_parameters():
            assert p.grad is None

    def test_eval_output_independent_of_batch_padding(self, rng):
        model = tiny_student(rng)
        model.eval()
        items = random_items(rng, count=3)
        batch = pad_student_batch(items)
        with no_grad():
            enc = model.encode(batch["ids"], Tensor(batch["phoneme_mask"]))
            out, mask, lengths = expand_encodings(enc, batch["durations"])
            pred = model.decode(out, Tensor(mask))
        for i, (ids, dur, _) in enumerate(items):
            single, _ = synthesize(model, ids, dur)
            t = int(lengths[i])
            assert single.shape == (6, t)
            assert np.allclose(pred.data[i, :, :t], single, atol=1e-5)


class TestInference:
    def test_synthesized_length_matches_durations(self, rng):
        model = tiny_student(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=5)
        dur = np.array([2, 0, 3, 1, 4])
        mel, used = synthesize(model, ids, dur)
        assert mel.shape == (6, 10)
        assert np.array_equal(used, dur)

    def test_degenerate_durations_get_one_frame(self, rng):
        model = tiny_student(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=4)
        # fresh model predicts near-zero log durations which round to zero
        assert round_durations(predicted_log_durations(model, ids)).sum() == 0
        mel, used = synthesize(model, ids)
        assert mel.shape[1] == used.sum() == 1

    def test_predicted_durations_encode_once(self, rng, monkeypatch):
        model = tiny_student(rng)
        model.duration_out.bias.data[:] = np.log(4.0)
        model.eval()
        ids = rng.integers(1, VOCAB, size=5)
        expected_durations = round_durations(predicted_log_durations(model, ids))
        assert expected_durations.sum() > 0
        expected_mel, _ = synthesize(model, ids, expected_durations)
        calls = []
        encode = model.encode
        monkeypatch.setattr(
            model, "encode", lambda *a, **k: calls.append(1) or encode(*a, **k))
        mel, durations = synthesize(model, ids)
        assert len(calls) == 1
        np.testing.assert_array_equal(durations, expected_durations)
        np.testing.assert_array_equal(mel, expected_mel)

    def test_conv_work_independent_of_utterance_length(self, rng, monkeypatch):
        # the whole spectrogram comes from whole-sequence convolutions:
        # the number of conv launches must not grow with frame count
        model = tiny_student(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=6)
        calls = []
        forward = kernels.conv1d_forward
        monkeypatch.setattr(kernels, "conv1d_forward",
                            lambda *a, **k: calls.append(1) or forward(*a, **k))
        synthesize(model, ids, np.full(6, 2))
        short = len(calls)
        calls.clear()
        synthesize(model, ids, np.full(6, 40))
        assert short == len(calls) > 0

    def test_decoder_receptive_field_is_local(self, rng):
        model = tiny_student(rng, dec_blocks=4)  # dilations 1, 1, 2, 2
        model.eval()
        halfwidth = 2 * (1 + 1 + 2 + 2) // 2
        x = Tensor(rng.normal(size=(1, 16, 41)).astype(np.float32),
                   requires_grad=True)
        out = model.decode(x)
        center = 20
        F.sum(narrow(out, 2, center, 1)).backward()
        support = np.flatnonzero(np.abs(x.grad).sum(axis=(0, 1)))
        assert support.min() >= center - halfwidth
        assert support.max() <= center + halfwidth
        assert center - halfwidth in support and center + halfwidth in support


class TestStudentTraining:
    def test_pad_student_batch_layout(self, rng):
        items = [
            (np.array([3, 4]), np.array([2, 1]), np.ones((6, 3), np.float32)),
            (np.array([5]), np.array([4]), np.ones((6, 4), np.float32)),
        ]
        batch = pad_student_batch(items)
        assert batch["ids"].shape == (2, 2)
        assert batch["targets"].shape == (2, 6, 4)
        assert batch["frame_mask"][0, 0].tolist() == [1, 1, 1, 0]
        assert batch["phoneme_mask"][1, 0].tolist() == [1, 0]
        assert batch["log_durations"][0, 0, 0] == pytest.approx(np.log(3))

    def test_target_length_mismatch_rejected(self):
        items = [(np.array([3]), np.array([2]), np.ones((6, 5), np.float32))]
        with pytest.raises(ValueError):
            pad_student_batch(items)

    def test_masked_huber_hand_values(self):
        pred = Tensor(np.array([[[0.5, 3.0, 9.0]]], dtype=np.float32))
        target = Tensor(np.zeros((1, 1, 3), dtype=np.float32))
        mask = Tensor(np.array([[[1.0, 1.0, 0.0]]], dtype=np.float32))
        # |0.5| <= 1 -> 0.125 quadratic; |3| > 1 -> 2.5 linear; last masked out
        got = float(masked_huber(pred, target, mask).data)
        assert got == pytest.approx((0.125 + 2.5) / 2.0, abs=1e-6)

    def test_batch_ssim_of_identical_is_one(self, rng):
        pred = Tensor(rng.normal(size=(2, 6, 12)).astype(np.float32))
        score = ssim_index(pred, pred, [12, 9])
        assert float(score.data) == pytest.approx(1.0, abs=1e-6)

    def test_training_step_reduces_losses(self, rng):
        model = tiny_student(rng)
        model.train()
        batch = pad_student_batch(random_items(rng, count=3))
        opt = Adam(model.parameters(), lr=5e-3)
        first = student_training_step(model, batch, opt)
        for _ in range(30):
            last = student_training_step(model, batch, opt)
        assert all(np.isfinite(v) for v in first + last)
        assert last[0] < first[0]
        assert last[2] < first[2]

    @pytest.mark.parametrize("name", ["encoder.blocks.0.conv.weight",
                                      "duration_conv.weight",
                                      "decoder.blocks.3.conv.weight"])
    def test_non_finite_conv_weight_stops_the_step(self, rng, name):
        # convs do not check their weights; the loss check catches them
        model = tiny_student(rng)
        batch = pad_student_batch(random_items(rng))
        opt = Adam(model.parameters(), lr=5e-3)
        params = dict(model.named_parameters())
        params[name].data[(0,) * params[name].data.ndim] = np.nan
        before = {n: p.data.copy() for n, p in params.items()}
        with pytest.raises(NonFiniteError, match="student loss"):
            student_training_step(model, batch, opt)
        for n, p in params.items():
            np.testing.assert_array_equal(p.data, before[n])

    def test_toy_step_tape_nodes(self, tmp_path, rng, monkeypatch):
        cfg = pipeline.load_config(pipeline.write_toy_config(tmp_path))
        model = pipeline.build_student(cfg, vocab_size=40, rng=rng)
        items = []
        for n in (9, 6):
            ids = rng.integers(1, 40, size=n)
            dur = rng.integers(1, 5, size=n)
            mel = rng.normal(size=(cfg.audio.mel_bins, int(dur.sum())))
            items.append((ids, dur, mel.astype(np.float32)))
        batch = pad_student_batch(items)
        opt = Adam(model.parameters(), lr=1e-3)
        calls = []
        from_op = Tensor.from_op

        def counting(data, parents, backward_fn):
            calls.append(1)
            return from_op(data, parents, backward_fn)

        monkeypatch.setattr(Tensor, "from_op", staticmethod(counting))
        student_training_step(model, batch, opt)
        assert 0 < len(calls) <= 53

    def test_losses_use_teacher_durations_not_predictions(self, rng):
        # prediction head is untrained garbage; losses must still line up
        # against targets because expansion uses the provided durations
        model = tiny_student(rng)
        items = random_items(rng)
        batch = pad_student_batch(items)
        mae, ssim_loss, _ = student_losses(model, batch)
        assert np.isfinite(float(mae.data))
        assert np.isfinite(float(ssim_loss.data))
