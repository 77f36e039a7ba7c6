"""Adam with global-norm clipping; Noam and reduce-on-plateau schedules."""

import numpy as np
import pytest

from melsynth.nn_core import (
    Adam,
    NonFiniteError,
    PlateauSchedule,
    Tensor,
    clip_grad_norm,
    global_grad_norm,
    noam_lr,
)


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
