"""Adam with global-norm gradient clipping, plus the two LR schedules."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError


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


class Adam:
    """Standard Adam with bias correction; clips by global norm before updating."""

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
        if self.clip_norm is not None:
            clip_grad_norm(self.params, self.clip_norm)
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


def noam_lr(base, warmup_steps, step):
    """base * W^0.5 * min(step * W^-1.5, step^-0.5); peaks exactly at W."""
    if step < 1:
        raise ValueError("Noam schedule is defined for step >= 1")
    w = float(warmup_steps)
    return base * np.sqrt(w) * min(step * w ** -1.5, step ** -0.5)


class PlateauSchedule:
    """Multiply lr by `factor` after `patience` evaluations with no improvement.

    Improvement is a strict decrease of the metric; the bad-evaluation counter
    resets both on improvement and after a reduction. lr never increases.
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
