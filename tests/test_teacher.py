"""Aligner contracts: attention shape/normalization, guided loss oracle,
sequential/parallel equivalence, duration extraction, augmentations."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    augment_item_reference,
    gradcheck,
    mean,
    prefix_predictions,
    window_walk_reference,
)
from melsynth.audio_frontend import Utterance
from melsynth.nn_core import Tensor, no_grad
from melsynth.nn_core import functional as F
from melsynth.teacher import (
    AlignmentError,
    AugmentParams,
    GatedStack,
    TeacherModel,
    augment_batch,
    batch_guided_attention_loss,
    durations_from_path,
    extract_batch_durations,
    extract_durations,
    guided_attention_weights,
    masked_attention_path,
    masked_mae,
    pad_teacher_batch,
    shift_frames,
    teacher_dilations,
)
from melsynth.teacher import align

VOCAB = 40


def tiny_model(rng, **kw):
    args = dict(vocab_size=VOCAB, mel_bins=8, residual_channels=6, gate_channels=8,
                enc_blocks=2, dec_blocks=2, embedding_dim=12, attention_dim=12,
                kernel_size=3)
    args.update(kw)
    return TeacherModel(rng=rng, **args)


def guided_loss_double_loop(a, g):
    n, t = a.shape
    total = 0.0
    for i in range(n):
        for j in range(t):
            w = 1.0 - np.exp(-(((i + 1) / n - (j + 1) / t) ** 2) / (2 * g * g))
            total += a[i, j] * w
    return total / (n * t)


class TestDilationPattern:
    def test_first_eight_then_ones(self):
        assert teacher_dilations(10) == [1, 3, 9, 27, 1, 3, 9, 27, 1, 1]
        assert teacher_dilations(14) == [1, 3, 9, 27, 1, 3, 9, 27, 1, 1, 1, 1, 1, 1]


def guided_loss(a, g):
    """The training loss on one (N, T) attention matrix: a batch of one."""
    a = np.asarray(a)
    n, t = a.shape
    return float(batch_guided_attention_loss(Tensor(a[None]), [n], [t], g).data)


class TestGuidedAttention:
    def test_weights_zero_on_diagonal_ratio(self):
        w = guided_attention_weights(4, 4, 0.2)
        np.testing.assert_allclose(np.diag(w), 0.0, atol=1e-12)
        assert w.min() >= 0.0 and w.max() < 1.0

    def test_hand_computed_two_by_two(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        expected = 0.25 * (1.0 - np.exp(-3.125))
        assert abs(guided_loss(a, 0.2) - expected) < 1e-7

    def test_diagonal_support_gives_zero(self):
        n = 6
        a = np.eye(n)
        assert guided_loss(a, 0.2) == 0.0

    def test_anti_diagonal_worse_than_diagonal(self):
        n = 5
        diag = guided_loss(np.eye(n), 0.2)
        anti = guided_loss(np.eye(n)[::-1], 0.2)
        assert anti > diag

    def test_matches_double_loop_on_random_cases(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 21))
            t = int(rng.integers(1, 51))
            g = float(rng.choice([0.1, 0.2, 0.5]))
            a = rng.random((n, t)).astype(np.float32)
            got = guided_loss(a, g)
            ref = guided_loss_double_loop(a.astype(np.float64), g)
            assert abs(got - ref) < 1e-7

    def test_uniform_matrix_closed_form(self):
        n, t, g = 7, 13, 0.2
        a = np.full((n, t), 1.0 / n)
        got = guided_loss(a, g)
        w = guided_attention_weights(n, t, g)
        assert abs(got - w.mean() / n) < 1e-9

    def test_invalid_g(self):
        with pytest.raises(ValueError):
            guided_attention_weights(3, 3, 0.0)


class TestMaskedMae:
    def test_fully_padded_item_is_ignored(self, rng):
        pred = Tensor(rng.random((2, 4, 6)).astype(np.float32))
        target = rng.random((2, 4, 6)).astype(np.float32)
        mask = np.zeros((2, 1, 6), dtype=np.float32)
        mask[0, 0, :] = 1.0
        masked = float(masked_mae(pred, target, mask).data)
        plain = float(np.mean(np.abs(pred.data[0] - target[0])))
        assert abs(masked - plain) < 1e-6

    def test_zero_when_equal(self, rng):
        x = rng.random((1, 4, 5)).astype(np.float32)
        mask = np.ones((1, 1, 5), dtype=np.float32)
        assert float(masked_mae(Tensor(x), x, mask).data) == 0.0


class TestForward:
    def test_columns_sum_to_one(self, rng):
        model = tiny_model(rng)
        ids = rng.integers(1, VOCAB, size=(2, 7))
        frames = Tensor(rng.random((2, 8, 11)).astype(np.float32))
        _, att = model(ids, frames, [7 / 11, 7 / 11])
        np.testing.assert_allclose(att.data.sum(axis=1), 1.0, atol=1e-5)

    def test_outputs_in_unit_interval(self, rng):
        model = tiny_model(rng)
        ids = rng.integers(1, VOCAB, size=(1, 5))
        frames = Tensor(rng.random((1, 8, 9)).astype(np.float32))
        pred, _ = model(ids, frames, [5 / 9])
        assert pred.data.min() > 0.0 and pred.data.max() < 1.0

    def test_empty_inputs_rejected(self, rng):
        model = tiny_model(rng)
        with pytest.raises(ValueError):
            model(np.zeros((1, 0), dtype=np.int64),
                  Tensor(np.zeros((1, 8, 4), dtype=np.float32)), [1.0])

    def test_uniform_attention_context_is_value_mean(self, rng):
        # zero K/Q projection -> all logits equal -> uniform columns
        model = tiny_model(rng)
        model.key_query_proj.weight.data[...] = 0.0
        model.key_query_proj.bias.data[...] = 0.0
        ids = rng.integers(1, VOCAB, size=(1, 6))
        frames = Tensor(rng.random((1, 8, 10)).astype(np.float32))
        with no_grad():
            keys, values, _ = model.encode_phonemes(ids)
            queries, _ = model.encode_frames(frames, [0.6])
            att = F.softmax(model.attention_logits(keys, queries), axis=1)
            context = F.matmul(values, att)
        expected = values.data.mean(axis=2, keepdims=True)
        np.testing.assert_allclose(context.data, np.broadcast_to(expected, context.shape),
                                   atol=1e-6)

    def test_mode_does_not_change_outputs(self, rng):
        # no teacher layer reads the train/eval flag, so the trainers never
        # switch it
        model = tiny_model(rng)
        ids = F.pad_right([rng.integers(1, VOCAB, size=n) for n in (7, 4)],
                          np.int64)
        mels = [rng.random((8, t)).astype(np.float32) for t in (11, 6)]
        frames = Tensor(shift_frames(F.pad_right(mels, np.float32)))
        pmask = F.length_mask([7, 4], ids.shape[1])
        fmask = F.length_mask([11, 6], frames.shape[2])
        outputs = []
        for mode in (True, False):
            model.train(mode)
            outputs.append(model(ids, frames, [7 / 11, 4 / 6],
                                 phoneme_mask=pmask, frame_mask=fmask))
        (pred_train, att_train), (pred_eval, att_eval) = outputs
        assert np.array_equal(pred_train.data, pred_eval.data)
        assert np.array_equal(att_train.data, att_eval.data)

    def test_causal_chain_perturbation(self, rng):
        # changing input frame t leaves predictions before t untouched
        model = tiny_model(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=(1, 5))
        base = rng.random((1, 8, 12)).astype(np.float32)
        t_hit = 6
        bumped = base.copy()
        bumped[0, :, t_hit] += 0.25
        with no_grad():
            a, _ = model(ids, Tensor(base), [5 / 12])
            b, _ = model(ids, Tensor(bumped), [5 / 12])
        np.testing.assert_allclose(a.data[0, :, :t_hit], b.data[0, :, :t_hit], atol=2e-6)
        assert np.max(np.abs(a.data[0, :, t_hit:] - b.data[0, :, t_hit:])) > 1e-5


class TestSequentialEquivalence:
    def test_teacher_forced_matches_parallel(self, rng):
        for trial in range(5):
            n = int(rng.integers(3, 8))
            t = int(rng.integers(5, 14))
            model = tiny_model(np.random.default_rng(100 + trial))
            model.eval()
            ids = rng.integers(1, VOCAB, size=n)
            target = rng.random((8, t)).astype(np.float32)
            rate = n / t
            with no_grad():
                parallel, _ = model(ids[None], Tensor(shift_frames(target)[None]), [rate])
            sequential = prefix_predictions(model, ids, target, rate)
            np.testing.assert_allclose(sequential, parallel.data[0], atol=1e-5)


class TestDurations:
    def test_counting_definition(self):
        np.testing.assert_array_equal(durations_from_path([0, 0, 1, 1, 2], 3), [2, 2, 1])

    def test_partition_over_random_matrices(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            t = int(rng.integers(1, 30))
            a = rng.random((n, t))
            d = durations_from_path(masked_attention_path(a), n)
            assert d.sum() == t
            assert np.all(d >= 0)

    def test_hand_built_attention_with_skip(self):
        # 5 phonemes x 12 frames; phoneme 3 never argmaxed
        path = np.array([0, 0, 1, 1, 1, 2, 2, 4, 4, 4, 4, 4])
        a = np.zeros((5, 12))
        a[path, np.arange(12)] = 1.0
        d = durations_from_path(np.argmax(a, axis=0), 5)
        counts = [int(np.sum(path == i)) for i in range(5)]
        np.testing.assert_array_equal(d, counts)
        assert d[3] == 0

    def test_masked_path_monotone_with_bounded_jumps(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 15))
            t = int(rng.integers(2, 40))
            path = masked_attention_path(rng.normal(size=(n, t)))
            steps = np.diff(path)
            assert np.all(steps >= 0)
            assert np.all(steps <= 3)

    # float32 like the teacher's logits, kept above the reference's NEG_INF
    # mask; and small integers, where most columns hold ties
    @settings(max_examples=300, deadline=None)
    @given(logits=st.tuples(st.integers(1, 12), st.integers(1, 30)).flatmap(
        lambda shape: st.one_of(
            hnp.arrays(np.float32, shape,
                       elements=st.floats(-1e6, 1e6, width=32)),
            hnp.arrays(np.int64, shape, elements=st.integers(-2, 2)))))
    def test_walk_matches_window_reference(self, logits):
        np.testing.assert_array_equal(masked_attention_path(logits),
                                      window_walk_reference(logits))

    def test_extract_durations_sums_to_frames(self, rng):
        model = tiny_model(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=6)
        mel = rng.random((8, 17)).astype(np.float32)
        d = extract_durations(model, ids, mel)
        assert d.sum() == 17
        assert len(d) == 6

    def test_frame_mismatch_is_a_named_error(self, rng, monkeypatch):
        model = tiny_model(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=6)
        mel = rng.random((8, 17)).astype(np.float32)
        # a path that loses its first frame no longer partitions the mel
        monkeypatch.setattr(align, "durations_from_path",
                            lambda path, n: np.bincount(path[1:], minlength=n))
        with pytest.raises(AlignmentError, match="sum to 16 frames .* has 17"):
            extract_durations(model, ids, mel)

    def test_batch_mismatch_names_the_utterance(self, rng, monkeypatch):
        model = tiny_model(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=6)
        mel = rng.random((8, 17)).astype(np.float32)
        monkeypatch.setattr(align, "durations_from_path",
                            lambda path, n: np.bincount(path[1:], minlength=n))
        utts = [Utterance("first", ids, None, mel=mel),
                Utterance("second", ids[:4], None, mel=mel[:, :9])]
        with pytest.raises(AlignmentError,
                           match="utterance 'first': durations sum to 16 frames"):
            extract_batch_durations(model, utts)

    def test_batch_matches_items_alone(self, rng):
        model = tiny_model(rng, enc_blocks=4, dec_blocks=2)
        model.eval()
        utts = [Utterance(f"u{i}", rng.integers(1, VOCAB, size=n), None,
                          mel=rng.random((8, t)).astype(np.float32))
                for i, (n, t) in enumerate([(7, 11), (3, 20), (5, 6), (1, 4)])]
        batch = pad_teacher_batch(utts)
        logits = align.batch_logits(model, batch)
        table = extract_batch_durations(model, utts)
        for u, item, durations in zip(utts, logits, table):
            n, t = u.n_phonemes, u.mel.shape[1]
            alone = align.batch_logits(model, one_item_batch(u.phoneme_ids, u.mel))[0]
            assert peak_error(item[:n, :t], alone) < 1e-5
            np.testing.assert_array_equal(
                durations, extract_durations(model, u.phoneme_ids, u.mel))
            assert durations.sum() == t


def one_item_batch(ids, mel):
    return pad_teacher_batch([Utterance("u", ids, None, mel=mel)])


class TestAugmentations:
    def test_disabled_is_identity(self, rng):
        model = tiny_model(rng)
        mel = rng.random((8, 9)).astype(np.float32)
        params = AugmentParams(noise_std=0.0, max_feedback_passes=0, replace_prob=0.0)
        batch = one_item_batch(rng.integers(1, VOCAB, size=4), mel)
        out = augment_batch(batch, model, np.random.default_rng(0), params,
                            feedback_passes=0)[0]
        np.testing.assert_array_equal(out, mel)

    def test_full_replacement_draws_from_same_utterance(self, rng):
        model = tiny_model(rng)
        mel = rng.random((8, 12)).astype(np.float32)
        params = AugmentParams(noise_std=0.0, max_feedback_passes=0, replace_prob=1.0)
        batch = one_item_batch(rng.integers(1, VOCAB, size=4), mel)
        out = augment_batch(batch, model, np.random.default_rng(3), params,
                            feedback_passes=0)[0]
        original_cols = {tuple(mel[:, i]) for i in range(12)}
        for i in range(12):
            assert tuple(out[:, i]) in original_cols

    def test_feedback_equals_manual_composition(self, rng):
        model = tiny_model(rng)
        model.eval()
        ids = rng.integers(1, VOCAB, size=5)
        mel = rng.random((8, 10)).astype(np.float32)
        params = AugmentParams(noise_std=0.0, max_feedback_passes=3, replace_prob=0.0)
        out = augment_batch(one_item_batch(ids, mel), model,
                            np.random.default_rng(1), params, feedback_passes=2)[0]
        x = mel
        with no_grad():
            for _ in range(2):
                pred, _ = model(ids[None], Tensor(shift_frames(x)[None]), [0.5])
                x = pred.data[0].astype(np.float32)
        np.testing.assert_array_equal(out, x)

    def test_noise_stays_in_unit_interval(self, rng):
        model = tiny_model(rng)
        mel = rng.random((8, 30)).astype(np.float32)
        params = AugmentParams(noise_std=0.5, max_feedback_passes=0, replace_prob=0.0)
        batch = one_item_batch(rng.integers(1, VOCAB, size=3), mel)
        out = augment_batch(batch, model, np.random.default_rng(2), params,
                            feedback_passes=0)[0]
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_batch_matches_per_item_reference(self, rng, k):
        model = tiny_model(rng, enc_blocks=4, dec_blocks=5)
        items = [Utterance(f"u{i}", rng.integers(1, VOCAB, size=n), None,
                           mel=rng.random((8, t)).astype(np.float32))
                 for i, (n, t) in enumerate([(7, 11), (3, 20), (5, 6)])]
        batch = pad_teacher_batch(items)
        params = AugmentParams(noise_std=0.05, max_feedback_passes=3,
                               replace_prob=0.3)
        got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
        got = augment_batch(batch, model, got_rng, params, feedback_passes=k)
        assert got.shape == batch["targets"].shape and got.dtype == np.float32
        for i, u in enumerate(items):
            t = u.mel.shape[1]
            want = augment_item_reference(u.mel, model, want_rng, params,
                                          u.phoneme_ids, k, batch["rates"][i])
            np.testing.assert_allclose(got[i, :, :t], want, rtol=0, atol=1e-5)
            assert not np.any(got[i, :, t:])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBatching:
    def test_pad_masks_and_rates(self, rng):
        from melsynth.audio_frontend import Utterance

        items = [
            Utterance("a", np.array([1, 2, 3]), None, mel=rng.random((8, 5)).astype(np.float32)),
            Utterance("b", np.array([4, 5]), None, mel=rng.random((8, 9)).astype(np.float32)),
        ]
        batch = pad_teacher_batch(items)
        assert batch["ids"].shape == (2, 3)
        assert batch["targets"].shape == (2, 8, 9)
        np.testing.assert_array_equal(batch["phoneme_mask"][:, 0], [[1, 1, 1], [1, 1, 0]])
        assert batch["frame_mask"][0, 0].sum() == 5
        assert batch["rates"][1] == pytest.approx(2 / 9)

    def test_shift_frames(self):
        x = np.arange(6.0).reshape(1, 2, 3)
        shifted = shift_frames(x)
        np.testing.assert_array_equal(shifted[0, 0], [0, 0, 1])
        np.testing.assert_array_equal(shifted[0, 1], [0, 3, 4])


def peak_error(a, b):
    return float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))


class TestPackedStacks:
    NS = (7, 3, 5)
    TS = (11, 20, 6)

    def test_padded_batch_matches_items_alone(self, rng):
        model = tiny_model(rng, enc_blocks=4, dec_blocks=5)
        model.eval()
        ids = F.pad_right([rng.integers(1, VOCAB, size=n) for n in self.NS], np.int64)
        mels = [rng.random((8, t)).astype(np.float32) for t in self.TS]
        frames = shift_frames(F.pad_right(mels, np.float32))
        pmask = F.length_mask(self.NS, ids.shape[1])
        fmask = F.length_mask(self.TS, frames.shape[2])
        rates = np.array(self.NS) / np.array(self.TS)
        with no_grad():
            pred, att = model(ids, Tensor(frames), rates,
                              phoneme_mask=pmask, frame_mask=fmask)
            for i, (n, t) in enumerate(zip(self.NS, self.TS)):
                alone, att_alone = model(ids[i:i + 1, :n], Tensor(frames[i:i + 1, :, :t]),
                                         rates[i:i + 1])
                assert peak_error(pred.data[i, :, :t], alone.data[0]) < 1e-5
                assert peak_error(att.data[i, :n, :t], att_alone.data[0]) < 1e-5
            _, _, enc = model.encode_phonemes(ids, pmask)
            _, frame_enc = model.encode_frames(Tensor(frames), rates, fmask)
            dec = model.decoder_stack(frame_enc, fmask)
        for i, (n, t) in enumerate(zip(self.NS, self.TS)):
            assert not np.any(enc.data[i, :, n:])
            assert not np.any(frame_enc.data[i, :, t:])
            assert not np.any(dec.data[i, :, t:])

    @pytest.mark.parametrize("causal", [False, True])
    def test_masked_stack_gradients(self, rng, causal):
        stack = GatedStack(2, 4, 3, (1, 2), causal, rng)
        for _, p in stack.named_parameters():
            p.data = p.data.astype(np.float64)
        x = Tensor(rng.normal(size=(2, 2, 6)), requires_grad=True)
        mask = F.length_mask([6, 3], 6)

        def loss():
            out = stack(x, mask)
            return F.add(mean(F.mul(out, out)), mean(F.abs_(F.add(out, 0.3))))

        gradcheck(loss, [x] + stack.parameters())
