"""Adam with global-norm clipping; Noam and reduce-on-plateau schedules."""

import numpy as np
import pytest

from melsynth import pipeline
from melsynth.nn_core import (
    Adam,
    NonFiniteError,
    PlateauSchedule,
    Tensor,
    noam_lr,
)
from melsynth.student import pad_student_batch, student_training_step


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = make_param([1.0, 2.0])
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert opt.step_count == 1

    def test_global_norm_clipping_scales_by_ratio(self):
        # joint norm 5 with threshold 1 -> every gradient scaled by 1/5
        a = make_param([0.0])
        b = make_param([0.0, 0.0])
        a.grad = np.array([3.0], dtype=np.float32)
        b.grad = np.array([0.0, 4.0], dtype=np.float32)
        assert abs(global_grad_norm([a, b]) - 5.0) < 1e-6
        clip_grad_norm([a, b], 1.0)
        np.testing.assert_allclose(a.grad, [0.6], atol=1e-6)
        np.testing.assert_allclose(b.grad, [0.0, 0.8], atol=1e-6)

    def test_clip_noop_when_under_threshold(self):
        p = make_param([0.0])
        p.grad = np.array([0.5], dtype=np.float32)
        clip_grad_norm([p], 1.0)
        np.testing.assert_allclose(p.grad, [0.5])

    def test_scalar_recurrence_oracle(self):
        # constant gradient 0.5, no clipping engaged (norm < 1)
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = make_param([2.0])
        opt = Adam([p], lr=lr, clip_norm=1.0)
        theta, m, v = 2.0, 0.0, 0.0
        g = 0.5
        for step in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** step)
            vhat = v / (1 - b2 ** step)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
            p.grad = np.array([g], dtype=np.float32)
            opt.step()
            assert abs(p.data[0] - theta) < 1e-7

    def test_non_finite_gradient_rejected(self):
        p = make_param([1.0])
        opt = Adam([p])
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(NonFiniteError):
            opt.step()

    def test_none_gradient_skipped(self):
        p = make_param([1.0])
        q = make_param([1.0])
        opt = Adam([p, q], lr=0.5)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert q.data[0] == 1.0
        assert p.data[0] != 1.0


# the norm and clipping the per-parameter Adam used, as they were in
# nn_core.optim

def global_grad_norm(params):
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    return float(np.sqrt(total))


def clip_grad_norm(params, max_norm):
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    norm = global_grad_norm(params)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


class ReferenceAdam:
    """The per-parameter Adam the flat-buffer one replaced."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr=0.002, clip_norm=1.0):
        self.params = list(params)
        self.lr = float(lr)
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        for p in self.params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NonFiniteError("non-finite gradient; aborting optimizer step")
        norm = clip_grad_norm(self.params, self.clip_norm)
        self.step_count += 1
        b1t = 1.0 - self.beta1 ** self.step_count
        b2t = 1.0 - self.beta2 ** self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data -= (self.lr * update).astype(p.data.dtype)
        return norm


def toy_student_run(cfg, optimizer, clip_norm, steps=6):
    """Weights after each of `steps` student steps, and the step norms."""
    rng = np.random.default_rng(3)
    model = pipeline.build_student(cfg, vocab_size=40, rng=rng)
    items = []
    for n in (9, 6):
        ids = rng.integers(1, 40, size=n)
        dur = rng.integers(1, 5, size=n)
        mel = rng.normal(size=(cfg.audio.mel_bins, int(dur.sum())))
        items.append((ids, dur, mel.astype(np.float32)))
    batch = pad_student_batch(items)
    opt = optimizer(model.parameters(), lr=1e-3, clip_norm=clip_norm)
    weights, norms = [], []
    for _ in range(steps):
        norms.append(student_training_step(model, batch, opt)[3])
        weights.append([p.data.copy() for p in model.parameters()])
    return weights, norms


class TestFlatAdam:
    @pytest.mark.parametrize("clip_norm", [1.0, 1e6])
    def test_matches_per_parameter_adam_bit_for_bit(self, tmp_path, clip_norm):
        cfg = pipeline.load_config(pipeline.write_toy_config(tmp_path))
        flat, flat_norms = toy_student_run(cfg, Adam, clip_norm)
        ref, ref_norms = toy_student_run(cfg, ReferenceAdam, clip_norm)
        # the toy student's gradient norm is far above 1 and far below 1e6
        assert all((n > clip_norm) == (clip_norm == 1.0) for n in flat_norms)
        np.testing.assert_allclose(flat_norms, ref_norms, rtol=1e-12)
        for got_step, want_step in zip(flat, ref):
            for got, want in zip(got_step, want_step):
                assert got.dtype == want.dtype == np.float32
                assert np.array_equal(got, want)

    def test_norm_is_the_global_gradient_norm_before_clipping(self, rng):
        params = [make_param(rng.normal(size=shape))
                  for shape in [(3, 4), (5,), (2, 2, 2)]]
        opt = Adam(params, clip_norm=0.1)
        opt.zero_grad()
        for p in params:
            p.grad += rng.normal(size=p.data.shape).astype(np.float32)
        want = global_grad_norm(params)
        assert want > 0.1
        assert opt.step() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("missing", ["none", "not_accumulated"])
    def test_missing_gradient_reads_as_zero(self, missing):
        # step 2 gives q no gradient: it moves on its step-1 momentum, as the
        # reference does when handed an explicit zero gradient
        p, q = make_param([1.0]), make_param([1.0])
        rp, rq = make_param([1.0]), make_param([1.0])
        opt = Adam([p, q], lr=0.5)
        ref = ReferenceAdam([rp, rq], lr=0.5)
        one = np.array([0.5], dtype=np.float32)
        for step in range(2):
            opt.zero_grad()
            p.accumulate_grad(one)
            rp.grad = one.copy()
            if step == 0:
                q.accumulate_grad(one)
                rq.grad = one.copy()
            else:
                if missing == "none":
                    q.grad = None
                rq.grad = np.zeros(1, dtype=np.float32)
            opt.step()
            ref.step()
            if step == 0:
                after_first = q.data[0]
        assert q.data[0] < after_first
        assert np.array_equal(p.data, rp.data)
        assert np.array_equal(q.data, rq.data)

    def test_parameters_live_in_one_buffer(self, rng):
        values = [rng.normal(size=shape) for shape in [(3, 4), (5,)]]
        params = [make_param(v) for v in values]
        opt = Adam(params)
        opt.zero_grad()
        for p, v in zip(params, values):
            assert np.array_equal(p.data, v.astype(np.float32))
            assert np.shares_memory(p.data, opt._data)
            assert not p.grad.any()

    def test_float64_parameters_stay_float64(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        Adam([p])
        assert p.data.dtype == np.float64

    def test_mixed_dtypes_rejected(self):
        p = make_param([1.0])
        q = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(ValueError, match="one float dtype"):
            Adam([p, q])

    def test_non_finite_error_names_the_parameter(self):
        params = [make_param(np.zeros(2)), make_param(np.zeros((2, 3))),
                  make_param(np.zeros(1))]
        opt = Adam(params)
        for p in params:
            p.grad = np.zeros_like(p.data)
        params[1].grad[1, 2] = np.inf
        params[2].grad[0] = np.nan
        with pytest.raises(NonFiniteError, match=r"parameter 1 of 3, shape \(2, 3\)"):
            opt.step()
        assert opt.step_count == 0
        assert all(not p.data.any() for p in params)


class TestNoam:
    def test_equals_base_at_warmup(self):
        assert abs(noam_lr(0.002, 4000, 4000) - 0.002) < 1e-12

    def test_inverse_sqrt_decay(self):
        w = 500
        assert abs(noam_lr(0.002, w, 4 * w) - 0.001) < 1e-12

    def test_unimodal_with_peak_at_warmup(self):
        w = 300
        values = [noam_lr(1.0, w, s) for s in range(1, 4 * w)]
        peak = int(np.argmax(values)) + 1
        assert peak == w
        assert all(values[i] <= values[i + 1] + 1e-15 for i in range(w - 1))
        assert all(values[i] >= values[i + 1] - 1e-15 for i in range(w - 1, len(values) - 1))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            noam_lr(0.002, 100, 0)


class TestPlateau:
    def test_halves_after_patience_bad_evals(self):
        sched = PlateauSchedule(0.002, factor=0.5, patience=2)
        lrs = [sched.update(1.0), sched.update(1.0), sched.update(1.0)]
        assert lrs == [0.002, 0.002, 0.001]

    def test_improvement_resets_counter(self):
        sched = PlateauSchedule(0.1, factor=0.5, patience=2)
        sched.update(1.0)
        sched.update(1.0)   # bad 1
        sched.update(0.5)   # improvement, reset
        sched.update(0.5)   # bad 1
        assert sched.current == 0.1
        assert sched.update(0.5) == 0.05  # bad 2 -> reduce

    def test_never_increases(self):
        rng = np.random.default_rng(7)
        sched = PlateauSchedule(0.01, factor=0.7, patience=1)
        last = sched.current
        for metric in rng.uniform(0.0, 1.0, size=50):
            now = sched.update(metric)
            assert now <= last + 1e-18
            last = now

    def test_min_lr_floor(self):
        sched = PlateauSchedule(0.01, factor=0.1, patience=1, min_lr=0.005)
        sched.update(1.0)
        assert sched.update(1.0) == 0.005
        assert sched.update(1.0) == 0.005
