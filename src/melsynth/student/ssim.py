"""Structural similarity on spectrograms treated as single-channel images."""

from __future__ import annotations

import numpy as np

from ..nn_core import Tensor
from ..nn_core import functional as F

WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
SHIFT = 4.0
DYNAMIC_RANGE = 8.0


def gaussian_window(size, sigma=WINDOW_SIGMA):
    n = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    w = np.exp(-(n * n) / (2.0 * sigma * sigma))
    return w / w.sum()


def _clamp(x, lo, hi):
    # relu(x - lo) - relu(x - hi) + lo is differentiable except at the joints
    return F.add(F.sub(F.relu(F.sub(x, lo)), F.relu(F.sub(x, hi))), lo)


def _blur(x, win_f, win_t):
    return F.filter1d_valid(F.filter1d_valid(x, win_f, axis=1), win_t, axis=2)


def ssim_index(x, y):
    """Mean local SSIM between two equally shaped (bins, T) spectrograms.

    Standardized values are shifted by +SHIFT and clamped to
    [0, DYNAMIC_RANGE] for windowing; constants use L = DYNAMIC_RANGE.
    The WINDOW_SIZE Gaussian window (WINDOW_SIGMA) shrinks, kept odd, when an
    axis is smaller than it.
    Accepts Tensors or arrays; returns a scalar Tensor in [-1, 1].
    """
    if not isinstance(x, Tensor):
        x = Tensor(_as_float(x))
    if not isinstance(y, Tensor):
        y = Tensor(_as_float(y))
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim == 2:
        x = _lift(x)
        y = _lift(y)
    _, bins, frames = x.shape
    win_f = gaussian_window(_odd_clip(WINDOW_SIZE, bins))
    win_t = gaussian_window(_odd_clip(WINDOW_SIZE, frames))

    # second moments are computed on values centered at the range midpoint;
    # variance/covariance are shift invariant and this avoids float32
    # cancellation in blur(x*x) - mu*mu for means far from zero
    half = DYNAMIC_RANGE / 2.0
    xc = F.sub(_clamp(F.add(x, SHIFT), 0.0, DYNAMIC_RANGE), half)
    yc = F.sub(_clamp(F.add(y, SHIFT), 0.0, DYNAMIC_RANGE), half)
    c1 = (0.01 * DYNAMIC_RANGE) ** 2
    c2 = (0.03 * DYNAMIC_RANGE) ** 2

    mu_xc = _blur(xc, win_f, win_t)
    mu_yc = _blur(yc, win_f, win_t)
    mu_x = F.add(mu_xc, half)
    mu_y = F.add(mu_yc, half)
    var_x = F.sub(_blur(F.mul(xc, xc), win_f, win_t), F.mul(mu_xc, mu_xc))
    var_y = F.sub(_blur(F.mul(yc, yc), win_f, win_t), F.mul(mu_yc, mu_yc))
    cov = F.sub(_blur(F.mul(xc, yc), win_f, win_t), F.mul(mu_xc, mu_yc))

    num = F.mul(F.add(F.mul(F.mul(mu_x, mu_y), 2.0), c1),
                F.add(F.mul(cov, 2.0), c2))
    den = F.mul(F.add(F.add(F.mul(mu_x, mu_x), F.mul(mu_y, mu_y)), c1),
                F.add(F.add(var_x, var_y), c2))
    return F.mean(F.div(num, den))


def _lift(t):
    data = t.data[None]

    def backward(g):
        if t.requires_grad:
            t.accumulate_grad(g[0])

    return Tensor.from_op(data, (t,), backward)


def _as_float(a):
    a = np.asarray(a)
    # float64 arrays keep full precision; everything else runs in float32
    return a if a.dtype == np.float64 else a.astype(np.float32)


def _odd_clip(size, limit):
    s = min(size, limit)
    return s if s % 2 == 1 else s - 1
