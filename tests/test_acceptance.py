"""Acceptance suite: thirteen system-level checks, one printed line each.

The heavy artifacts (10-utterance toy corpus, 300-step aligner run,
2000-step synthesizer run) are built once, by the end-to-end check's
command-line chain from an empty directory, and shared with the checks that
read them. Run with `-s` (or read the captured output) for the [NN]
PASS/FAIL lines.
"""

import math
import re
import time

import numpy as np
import pytest

from conftest import full_mask, gradcheck, prefix_predictions, run_block
from melsynth.audio_frontend import (
    AudioConfig,
    PhonemeVocabulary,
    load_wav,
    wav_to_mel,
)
from melsynth.audio_frontend.griffin_lim import (
    griffin_lim,
    mel_to_linear_magnitude,
    spectral_convergence,
)
from melsynth import pipeline
from melsynth.cli import main
from melsynth.nn_core import (
    Conv1d,
    Embedding,
    GatedResidualBlock,
    Linear,
    PlainResidualBlock,
    Tensor,
)
from melsynth.nn_core import functional as F
from melsynth.nn_core import kernels
from melsynth.pipeline import (
    CheckpointError,
    build_student,
    build_teacher,
    default_config,
    evaluate_teacher,
    load_checkpoint,
    load_config,
    run_benchmark,
    save_checkpoint,
)
from melsynth.student import (
    StudentModel,
    expand_encodings,
    masked_huber,
    ssim_index,
)
from melsynth.nn_core import no_grad
from melsynth.pipeline import audio_config
from melsynth.pipeline.trainers import load_corpus
from melsynth.teacher import (
    TeacherModel,
    batch_guided_attention_loss,
    durations_from_path,
    masked_attention_path,
    masked_mae,
    pad_teacher_batch,
    prepare_utterance,
    shift_frames,
)
from melsynth.teacher.align import batch_logits


def check(num, label, ok, detail=""):
    line = f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def to64(module):
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
    return module


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The command-line chain from an empty directory to a student
    checkpoint: make-toy, train-teacher (300 steps), extract-durations,
    train-student (2000 steps). The two training entry points are wrapped,
    so their result dicts and times are kept as they return."""
    base = tmp_path_factory.mktemp("acc_chain")
    root, out = base / "corpus", base / "run"
    cfg_path = root / "toy.cfg"
    results = {}

    def timed(name):
        train = getattr(pipeline, name)

        def run(*args, **kwargs):
            t0 = time.perf_counter()
            result = train(*args, **kwargs)
            result["elapsed"] = time.perf_counter() - t0
            results[name] = result
            return result

        return run

    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("run_teacher_training", "run_student_training"):
            patch.setattr(pipeline, name, timed(name))
        assert main(["make-toy", "--out", str(root), "--count", "10",
                     "--seed", "0"]) == 0
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(out), "--max-steps", "300"]) == 0
        assert main(["extract-durations", "--config", str(cfg_path),
                     "--checkpoint", str(out / "teacher.ckpt"),
                     "--out", str(out / "durations.csv")]) == 0
        assert main(["train-student", "--config", str(cfg_path),
                     "--out", str(out), "--max-steps", "2000",
                     "--durations", str(out / "durations.csv")]) == 0
    return {"root": root, "config": cfg_path, "out": out,
            "teacher": results["run_teacher_training"],
            "student": results["run_student_training"],
            "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def toy(chain):
    return chain["root"], load_config(chain["config"])


@pytest.fixture(scope="module")
def teacher300(toy, chain):
    return toy[1], chain["teacher"]


@pytest.fixture(scope="module")
def student2000(toy, chain):
    return toy[1], chain["student"]


# ---------------------------------------------------------------------------
# 1. finite-difference gradients for every parameterized layer
# ---------------------------------------------------------------------------

class TestCriterion01:
    def test_gradient_suite(self):
        rng = np.random.default_rng(11)
        t0 = time.perf_counter()

        def sq(t):
            return F.sum(F.mul(t, t))

        def run(module, build_loss):
            params = [p for _, p in module.named_parameters()]
            gradcheck(build_loss, params, rtol=1e-3)

        x_small = Tensor(rng.normal(size=(2, 2, 6)))

        conv_c = to64(Conv1d(2, 3, 3, dilation=2, causal=True, rng=rng))
        run(conv_c, lambda: sq(conv_c(x_small)))
        conv_n = to64(Conv1d(2, 3, 3, dilation=2, causal=False, rng=rng))
        run(conv_n, lambda: sq(conv_n(x_small)))

        gated = to64(GatedResidualBlock(2, 6, 3, 2, causal=True, rng=rng))

        def gated_loss():
            res = run_block(gated, x_small)
            return F.add(sq(res), sq(F.sub(res, x_small)))

        run(gated, gated_loss)

        plain = to64(PlainResidualBlock(2, 3, 2, rng=rng))
        for seed in range(100):  # keep finite differences off the relu kink
            cand = np.random.default_rng(seed).normal(size=(2, 2, 6))
            if np.min(np.abs(plain.conv(Tensor(cand)).data)) > 0.05:
                break
        x_plain = Tensor(cand)
        run(plain, lambda: sq(run_block(plain, x_plain)))

        lin = to64(Linear(4, 3, rng=rng))
        x_lin = Tensor(rng.normal(size=(2, 4, 5)))
        run(lin, lambda: sq(lin(x_lin)))

        emb = to64(Embedding(9, 4, rng=rng))
        ids = rng.integers(0, 9, size=(2, 5))
        run(emb, lambda: sq(emb(ids)))

        # attention projections, exercised through a tiny aligner forward
        teacher = to64(TeacherModel(9, mel_bins=4, residual_channels=4,
                                    gate_channels=8, enc_blocks=1,
                                    dec_blocks=1, embedding_dim=6,
                                    attention_dim=6, rng=rng))
        t_ids = rng.integers(1, 9, size=(1, 3))
        t_in = Tensor(rng.uniform(0.1, 0.9, size=(1, 4, 5)))
        target = rng.uniform(0.1, 0.9, size=(1, 4, 5))
        ones = np.ones((1, 1, 5))
        att_params = [p for name, p in teacher.named_parameters()
                      if name.split(".")[0] in
                      ("key_query_proj", "value_proj", "context_proj")]

        def teacher_loss():
            pred, attention = teacher(t_ids, t_in, [3 / 5], full_mask(1, 3), ones)
            return F.add(masked_mae(pred, target, ones),
                         batch_guided_attention_loss(attention, [3], [5], 0.2))

        gradcheck(teacher_loss, att_params, rtol=1e-3)

        img_x = Tensor(rng.uniform(-3.0, 3.0, size=(1, 8, 10)),
                       requires_grad=True)
        img_y = rng.uniform(-3.0, 3.0, size=(1, 8, 10))
        # the target is a constant: only the prediction gradient exists
        gradcheck(lambda: ssim_index(img_x, img_y, [10]), [img_x], rtol=1e-3)

        h_pred = Tensor(rng.normal(size=(2, 1, 6)), requires_grad=True)
        h_target = rng.normal(size=(2, 1, 6))
        h_mask = np.ones((2, 1, 6))
        gradcheck(lambda: masked_huber(h_pred, h_target, h_mask), [h_pred],
                  rtol=1e-3)

        m_pred = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        m_target = rng.normal(size=(2, 3, 6))
        gradcheck(lambda: masked_mae(m_pred, m_target, np.ones((2, 1, 6))),
                  [m_pred], rtol=1e-3)

        logits = Tensor(rng.normal(size=(1, 4, 7)), requires_grad=True)
        gradcheck(lambda: batch_guided_attention_loss(
            F.softmax(logits, axis=1), [4], [7], 0.2), [logits], rtol=1e-3)

        elapsed = time.perf_counter() - t0
        check(1, "gradient suite", elapsed < 120.0, f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. frame-by-frame prefix forwards equal the parallel teacher-forced pass
# ---------------------------------------------------------------------------

class TestCriterion02:
    def test_sequential_equivalence(self, toy, teacher300):
        _, cfg = toy
        _, result = teacher300
        model = result["model"]
        model.eval()
        train, holdout, _ = load_corpus(cfg)
        utts = train + holdout
        rng = np.random.default_rng(2)
        picks = rng.choice(len(utts), size=5, replace=False)
        t0 = time.perf_counter()
        worst = 0.0
        for i in picks:
            u = utts[i]
            prepare_utterance(u, audio_config(cfg))
            n, t = u.n_phonemes, u.mel.shape[1]
            rate = n / t
            with no_grad():
                parallel, _ = model(u.phoneme_ids[None],
                                    Tensor(shift_frames(u.mel)[None]), [rate],
                                    full_mask(1, n), full_mask(1, t))
            sequential = prefix_predictions(model, u.phoneme_ids, u.mel, rate)
            worst = max(worst, float(np.max(np.abs(sequential
                                                   - parallel.data[0]))))
        elapsed = time.perf_counter() - t0
        check(2, "sequential/parallel equivalence",
              worst < 1e-5 and elapsed < 60.0,
              f"max diff {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. guided-attention loss against a scalar double-loop oracle
# ---------------------------------------------------------------------------

def _guided_oracle(a, g):
    n, t = a.shape
    total = 0.0
    for i in range(n):
        for j in range(t):
            w = 1.0 - math.exp(-(((i + 1) / n - (j + 1) / t) ** 2)
                               / (2.0 * g * g))
            total += float(a[i, j]) * w
    return total / (n * t)


def guided_loss(a, g):
    """The training loss on one (N, T) attention matrix: a batch of one."""
    n, t = a.shape
    return float(batch_guided_attention_loss(Tensor(a[None]), [n], [t], g).data)


class TestCriterion03:
    def test_oracle_match(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for case in range(100):
            n = int(rng.integers(1, 21))
            t = int(rng.integers(1, 51))
            g = float(rng.choice([0.1, 0.2, 0.5]))
            a = rng.uniform(size=(n, t))
            got = guided_loss(a, g)
            worst = max(worst, abs(got - _guided_oracle(a, g)))
        # mass only where (n+1)/N == (t+1)/T costs exactly nothing
        diag = np.eye(12)
        zero_sq = guided_loss(diag, 0.2)
        ratio = np.zeros((5, 10))
        ratio[np.arange(5), 2 * np.arange(5) + 1] = 1.0
        zero_rect = guided_loss(ratio, 0.1)
        check(3, "guided-attention oracle",
              worst < 1e-7 and zero_sq == 0.0 and zero_rect == 0.0,
              f"max err {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. durations partition T; masked walk is monotone on real utterances
# ---------------------------------------------------------------------------

class TestCriterion04:
    def test_duration_partition(self, toy, teacher300):
        rng = np.random.default_rng(4)
        ok_sum = True
        for case in range(1000):
            n = int(rng.integers(1, 31))
            t = int(rng.integers(1, 121))
            a = rng.normal(size=(n, t))
            d = durations_from_path(masked_attention_path(a), n)
            ok_sum &= d.sum() == t and d.shape == (n,) and (d >= 0).all()
        _, cfg = toy
        _, result = teacher300
        model = result["model"]
        model.eval()
        train, holdout, _ = load_corpus(cfg)
        acfg = audio_config(cfg)
        ok_mono = True
        for u in train + holdout:
            prepare_utterance(u, acfg)
            logits = batch_logits(model, pad_teacher_batch([u]))[0]
            path = masked_attention_path(logits)
            ok_mono &= bool(np.all(np.diff(path) >= 0))
            ok_mono &= np.bincount(path, minlength=u.n_phonemes).sum() \
                == u.mel.shape[1]
        check(4, "duration partition and monotone walk", ok_sum and ok_mono)


# ---------------------------------------------------------------------------
# 5. toy aligner training: guided loss drops, attention goes diagonal
# ---------------------------------------------------------------------------

class TestCriterion05:
    def test_teacher_toy_training(self, toy, teacher300):
        _, cfg = toy
        _, result = teacher300
        hist = result["history"]
        assert len(hist) == 300
        g10, g300 = hist[9]["guided"], hist[-1]["guided"]
        train, holdout, _ = load_corpus(cfg)
        for u in train + holdout:
            prepare_utterance(u, audio_config(cfg))
        scores, _ = evaluate_teacher(result["model"], train + holdout, cfg)
        diag = scores["diagonality"]
        elapsed = result["elapsed"]
        check(5, "toy aligner training",
              g300 <= 0.5 * g10 and diag < 0.1 and elapsed < 900.0,
              f"guided {g10:.4f}->{g300:.4f}, diagonality {diag:.4f}, "
              f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 6. toy synthesizer overfit on extracted durations
# ---------------------------------------------------------------------------

class TestCriterion06:
    def test_student_toy_overfit(self, student2000):
        _, result = student2000
        ev = result["train_eval"]
        elapsed = result["elapsed"]
        check(6, "toy synthesizer overfit",
              ev["mae"] < 0.15 and ev["ssim"] > 0.8 and elapsed < 1800.0,
              f"mae {ev['mae']:.4f}, ssim {ev['ssim']:.4f}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 7. expansion length and positional restart against a scalar oracle
# ---------------------------------------------------------------------------

class TestCriterion07:
    def test_expansion_contract(self):
        rng = np.random.default_rng(7)
        dim = 8
        ok = True
        worst = 0.0
        for case in range(1000):
            n = int(rng.integers(1, 9))
            d = rng.integers(0, 6, size=n)
            if d.sum() == 0:
                d[rng.integers(0, n)] = 1
            enc = rng.normal(size=(1, dim, n)).astype(np.float32)
            out, mask, lengths = expand_encodings(Tensor(enc), d[None])
            total = int(d.sum())
            ok &= out.data.shape[2] == total == int(lengths[0])
            col = 0
            for i in range(n):
                for k in range(int(d[i])):
                    expect = enc[0, :, i] + F.sinusoid_table([k], dim)[:, 0]
                    worst = max(worst, float(np.max(
                        np.abs(out.data[0, :, col] - expect))))
                    if k == 0:  # positional part restarts at PE(0)
                        pe0 = out.data[0, :, col] - enc[0, :, i]
                        ok &= abs(float(pe0[0])) < 1e-6  # sin rows 0
                        ok &= abs(float(pe0[1]) - 1.0) < 1e-6  # cos rows 1
                    col += 1
        check(7, "expansion/positional contract", ok and worst < 1e-5,
              f"max err {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. SSIM identities
# ---------------------------------------------------------------------------

class TestCriterion08:
    def test_ssim_properties(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-3.5, 3.5, size=(2, 16, 24))
        y = rng.uniform(-3.5, 3.5, size=(2, 16, 24))
        lengths = [24, 24]
        self_err = abs(ssim_index(Tensor(x), x, lengths).data.item() - 1.0)
        sym = ssim_index(Tensor(x), y, lengths).data.item() \
            == ssim_index(Tensor(y), x, lengths).data.item()
        a, b = 1.5, -2.5
        got = ssim_index(Tensor(np.full((1, 16, 24), a)),
                         np.full((1, 16, 24), b), [24]).data.item()
        ma, mb = a + 4.0, b + 4.0  # shifted into the clamp range [0, 8]
        c1 = (0.01 * 8.0) ** 2
        closed = (2.0 * ma * mb + c1) / (ma * ma + mb * mb + c1)
        closed_err = abs(got - closed)
        check(8, "SSIM identities",
              self_err <= 1e-6 and sym and closed_err <= 1e-6,
              f"self {self_err:.2e}, closed-form {closed_err:.2e}")


# ---------------------------------------------------------------------------
# 9. duration head cannot backpropagate into the encoder
# ---------------------------------------------------------------------------

class TestCriterion09:
    def test_gradient_isolation(self):
        rng = np.random.default_rng(9)
        model = StudentModel(30, mel_bins=12, channels=16, enc_blocks=2,
                             dec_blocks=2, duration_blocks=1, rng=rng)
        enc_side = [(n, p) for n, p in model.named_parameters()
                    if n.split(".")[0] in ("embedding", "encoder")]
        ok = True
        for case in range(10):
            ids = rng.integers(1, 30, size=(2, 5))
            durations = rng.integers(1, 5, size=(2, 5))
            target_d = np.log1p(durations)[:, None, :].astype(np.float32)
            mask = full_mask(2, 5)

            for _, p in model.named_parameters():
                p.grad = None
            enc = model.encode(ids, mask)
            dur = masked_huber(model.predict_log_durations(enc, mask),
                               target_d, mask)
            dur.backward()
            ok &= all(p.grad is None or not p.grad.any() for _, p in enc_side)
            ok &= any(p.grad is not None and p.grad.any()
                      for n, p in model.named_parameters()
                      if n.startswith("duration_"))

            for _, p in model.named_parameters():
                p.grad = None
            enc = model.encode(ids, mask)
            expanded, fmask, _ = expand_encodings(enc, durations)
            pred = model.decode(expanded, fmask)
            target = rng.normal(size=pred.data.shape).astype(np.float32)
            masked_mae(pred, target, fmask).backward()
            ok &= all(p.grad is not None and p.grad.any() for _, p in enc_side)
        check(9, "duration-gradient isolation", ok)


# ---------------------------------------------------------------------------
# 10. full-size synthesis speed: faster than real time, batching helps
# ---------------------------------------------------------------------------

class TestCriterion10:
    def test_inference_speed(self):
        cfg = default_config()
        model = build_student(cfg, len(PhonemeVocabulary()))
        model.eval()
        # best-of-N timing: a capability check, robust to co-tenant noise
        rows, audio_seconds = run_benchmark(
            model, cfg, stats=(0.0, 1.0), batch_sizes=(1, 16), repeats=5,
            vocode=False, reduce="min")
        s1 = rows[0].sgram
        s16 = rows[1].sgram
        rtf = s1 / audio_seconds
        check(10, "inference speed",
              rtf < 0.5 and s16 < 16.0 * s1,
              f"rtf {rtf:.4f}, "
              f"batch-16 ratio {s16 / s1:.1f}x, "
              f"{kernels._blas_threads()} BLAS threads")


# ---------------------------------------------------------------------------
# 11. phase reconstruction of a pure tone
# ---------------------------------------------------------------------------

class TestCriterion11:
    def test_griffin_lim(self):
        acfg = AudioConfig()
        t = np.arange(int(1.0 * acfg.sample_rate)) / acfg.sample_rate
        wave = (0.4 * np.sin(2.0 * np.pi * 440.0 * t)).astype(np.float32)
        mel = wav_to_mel(wave, acfg)
        rec = griffin_lim(mel, iterations=60, config=acfg)
        spectrum = np.abs(np.fft.rfft(rec))
        dominant = float(np.argmax(spectrum)) * acfg.sample_rate / len(rec)
        bin_hz = acfg.sample_rate / acfg.n_fft
        magnitude = mel_to_linear_magnitude(mel, acfg)
        sc = [spectral_convergence(magnitude,
                                   griffin_lim(mel, iterations=k, config=acfg),
                                   acfg)
              for k in (1, 2, 3, 5, 8, 13, 21)]
        monotone = all(b <= a + 1e-9 for a, b in zip(sc, sc[1:]))
        check(11, "phase reconstruction",
              abs(dominant - 440.0) <= bin_hz and monotone,
              f"dominant {dominant:.1f} Hz, convergence "
              f"{sc[0]:.3f}->{sc[-1]:.3f}")


# ---------------------------------------------------------------------------
# 12. command-line chain from empty directory to audio
# ---------------------------------------------------------------------------

class TestCriterion12:
    def test_end_to_end(self, chain, capsys):
        t0 = time.perf_counter()
        cfg_path, out = chain["config"], chain["out"]
        capsys.readouterr()
        assert main(["synthesize", "--config", str(cfg_path),
                     "--checkpoint", str(out / "student.ckpt"),
                     "--out", str(out / "utt.wav"),
                     "--phonemes", "AA IY UW EH OW M AA"]) == 0
        stdout = capsys.readouterr().out
        elapsed = chain["elapsed"] + time.perf_counter() - t0
        frames = int(re.search(r"(\d+) frames", stdout).group(1))
        wave = load_wav(out / "utt.wav", expected_rate=22050)
        slack = abs(len(wave) - frames * 256)
        check(12, "end-to-end chain",
              slack <= 1024 and elapsed < 3600.0,
              f"{frames} frames, wav within {slack} samples, "
              f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 13. checkpoint round trip and architecture guard
# ---------------------------------------------------------------------------

class TestCriterion13:
    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        cfg = default_config()
        cfg.teacher.residual_channels = 8
        cfg.teacher.gate_channels = 16
        cfg.teacher.encoder_blocks = 2
        cfg.teacher.decoder_blocks = 2
        cfg.teacher.embedding_dim = 12
        cfg.teacher.attention_dim = 12
        model = build_teacher(cfg, 30, rng)
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model, cfg, "teacher", epoch=1, step=2)
        clone = build_teacher(cfg, 30)
        load_checkpoint(path, clone, cfg, "teacher")
        identical = all(
            np.array_equal(p.data, q.data) and p.data.dtype == q.data.dtype
            for (_, p), (_, q) in zip(model.named_parameters(),
                                      clone.named_parameters()))
        other = default_config()
        other.teacher.residual_channels = 16
        other.teacher.gate_channels = 32
        other.teacher.encoder_blocks = 2
        other.teacher.decoder_blocks = 2
        other.teacher.embedding_dim = 12
        other.teacher.attention_dim = 12
        rejected = False
        try:
            load_checkpoint(path, build_teacher(other, 30), other, "teacher")
        except CheckpointError:
            rejected = True
        check(13, "checkpoint round trip", identical and rejected)
