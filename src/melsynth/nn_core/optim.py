"""Adam with global-norm gradient clipping, plus the two LR schedules."""

from __future__ import annotations

import math

import numpy as np

from .tensor import NonFiniteError


class Adam:
    """Standard Adam with bias correction; clips by global norm before updating.

    The parameters are packed into one contiguous buffer: each ``p.data`` is
    rebound to a reshaped view of it, so weights must be changed in place
    (``p.data[...] = ...``) from then on. Gradients, both moments and two
    scratch arrays are buffers of the same layout, and a step is a handful of
    whole-buffer operations that allocate nothing.

    Every parameter takes part in every step: a missing gradient (None, or
    none accumulated since `zero_grad`) reads as zero, so that parameter's
    moments decay and it keeps moving on its momentum, as with an explicit
    zero gradient.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr=0.002, clip_norm=1.0):
        self.params = list(params)
        self.lr = float(lr)
        self.clip_norm = clip_norm
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1 or not all(np.issubdtype(d, np.floating) for d in dtypes):
            raise ValueError(f"parameters must share one float dtype, got "
                             f"{sorted(str(d) for d in dtypes)}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        self._data = np.empty(sum(p.data.size for p in self.params), dtype=dtype)
        self._grad = np.zeros_like(self._data)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._s1 = np.empty_like(self._data)
        self._s2 = np.empty_like(self._data)
        self._g64 = np.empty(self._data.shape, dtype=np.float64)
        self._grads = []  # per-parameter views of the gradient buffer
        start = 0
        for p in self.params:
            end, shape = start + p.data.size, p.data.shape
            view = self._data[start:end].reshape(shape)
            view[...] = p.data
            p.data = view
            self._grads.append(self._grad[start:end].reshape(shape))
            start = end

    def zero_grad(self):
        self._grad.fill(0)
        for p, view in zip(self.params, self._grads):
            p.grad = view

    def step(self):
        """One update; returns the global gradient norm before clipping.

        A gradient that is not its buffer view (set directly, or None, read
        as zero) is copied in first. Raises NonFiniteError naming the first
        parameter whose gradient holds a NaN or Inf; nothing is updated then.
        """
        for p, view in zip(self.params, self._grads):
            if p.grad is not view:
                view[...] = 0 if p.grad is None else p.grad
        g = self._grad
        # float64 so the norm does not depend on summation order at float32
        # precision; a NaN or Inf anywhere makes the sum non-finite
        np.copyto(self._g64, g)
        norm = math.sqrt(float(np.dot(self._g64, self._g64)))
        if not math.isfinite(norm):
            self._raise_non_finite()
        if norm > self.clip_norm:
            g *= self.clip_norm / norm
        self.step_count += 1
        b1t = 1.0 - self.beta1 ** self.step_count
        b2t = 1.0 - self.beta2 ** self.step_count
        m, v, s1, s2 = self._m, self._v, self._s1, self._s2
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s1)
        s1 *= g
        v += s1
        # update = (m / b1t) / (sqrt(v / b2t) + eps); data -= lr * update
        np.divide(v, b2t, out=s1)
        np.sqrt(s1, out=s1)
        s1 += self.eps
        np.divide(m, b1t, out=s2)
        s2 /= s1
        s2 *= self.lr
        self._data -= s2
        return norm

    def _raise_non_finite(self):
        # returns if every gradient is finite: a float64 sum that overflowed
        for i, view in enumerate(self._grads):
            if not np.all(np.isfinite(view)):
                raise NonFiniteError(
                    f"non-finite gradient in parameter {i} of "
                    f"{len(self.params)}, shape {view.shape}; aborting "
                    "optimizer step")


def noam_lr(base, warmup_steps, step):
    """base * W^0.5 * min(step * W^-1.5, step^-0.5); peaks exactly at W."""
    if step < 1:
        raise ValueError("Noam schedule is defined for step >= 1")
    w = float(warmup_steps)
    return base * np.sqrt(w) * min(step * w ** -1.5, step ** -0.5)


class PlateauSchedule:
    """Multiply lr by `factor` after `patience` evaluations with no improvement.

    Improvement is a strict decrease of the metric; the bad-evaluation counter
    resets both on improvement and after a reduction. lr never increases
    while min_lr is at most base (parse_config requires it).
    """

    def __init__(self, base, factor=0.5, patience=5, min_lr=0.0):
        self.current = float(base)
        self.factor = float(factor)
        self.patience = int(patience)
        self.min_lr = float(min_lr)
        self.best = None
        self.bad_count = 0

    def update(self, metric):
        metric = float(metric)
        if self.best is None or metric < self.best:
            self.best = metric
            self.bad_count = 0
        else:
            self.bad_count += 1
            if self.bad_count >= self.patience:
                self.current = max(self.current * self.factor, self.min_lr)
                self.bad_count = 0
        return self.current
