"""Structural similarity on spectrograms treated as single-channel images."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..nn_core import Tensor

WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
SHIFT = 4.0
DYNAMIC_RANGE = 8.0
C1 = (0.01 * DYNAMIC_RANGE) ** 2
C2 = (0.03 * DYNAMIC_RANGE) ** 2


def gaussian_window(size, sigma=WINDOW_SIGMA):
    n = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    w = np.exp(-(n * n) / (2.0 * sigma * sigma))
    return w / w.sum()


def _blur_matrix(size, n, dtype):
    """(n - size + 1, n) matrix: row j is the Gaussian window at offset j,
    so ``M @ v`` is the valid-mode Gaussian filter of v."""
    rows = np.arange(n - size + 1)
    out = np.zeros((rows.size, n), dtype=dtype)
    for k, w in enumerate(gaussian_window(size)):
        out[rows, rows + k] = w
    return out


TIME_BLOCK = 128  # most output frames per banded product in the time blur


def _blur_time(a, size):
    """Valid-mode Gaussian filter of `a` along its last axis.

    The output is cut into equal blocks of at most TIME_BLOCK columns (the
    input gains up to count - 1 zero columns to fill the last one); each
    block is one product of its input span with a banded
    (block + size - 1, block) matrix, so the cost is linear in the length.
    (The bins axis, whose length the model fixes, is blurred by one full
    `_blur_matrix`.)
    """
    n = a.shape[-1] - size + 1
    count = -(-n // TIME_BLOCK)
    block = -(-n // count)
    a = _pad_time(a, 0, count * block - n)
    band = _blur_matrix(size, block + size - 1, a.dtype).T
    spans = sliding_window_view(a, band.shape[0], axis=-1)[..., ::block, :]
    # one product over all spans: a stacked matmul would loop over the
    # leading axes with `count` rows each
    out = spans.reshape(-1, band.shape[0]) @ band
    return out.reshape(a.shape[:-1] + (count * block,))[..., :n]


def _pad_time(a, left, right):
    """`a` with `left` and `right` zero columns added to its last axis."""
    if not left and not right:
        return a
    out = np.zeros(a.shape[:-1] + (left + a.shape[-1] + right,), dtype=a.dtype)
    out[..., left:left + a.shape[-1]] = a
    return out


def ssim_index(x, y, lengths=None):
    """Mean local SSIM between two equally shaped spectrogram batches.

    x and y are (bins, T) images or padded (B, bins, T) batches, Tensors or
    arrays. Item i is scored on its first lengths[i] frames (all T frames
    when `lengths` is None); the result is the mean over items of each
    item's mean local SSIM, a scalar Tensor in [-1, 1] recorded as one tape
    node that carries gradients to both arguments.

    Values are shifted by +SHIFT and clamped to [0, DYNAMIC_RANGE] for
    windowing; constants use L = DYNAMIC_RANGE. The WINDOW_SIZE Gaussian
    window (WINDOW_SIGMA) shrinks, kept odd, on an axis shorter than it.
    Float64 inputs are scored in float64, everything else in float32.
    """
    if not isinstance(x, Tensor):
        x = Tensor(_as_float(x))
    if not isinstance(y, Tensor):
        y = Tensor(_as_float(y))
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim not in (2, 3):
        raise ValueError(f"expected (bins, T) or (B, bins, T), got {x.shape}")
    lift = x.ndim == 2
    xd, yd = (x.data[None], y.data[None]) if lift else (x.data, y.data)
    batch, bins, frames = xd.shape
    lengths = np.full(batch, frames) if lengths is None \
        else np.asarray(lengths, dtype=np.int64).reshape(-1)
    if lengths.shape != (batch,) or np.any(lengths < 1) \
            or np.any(lengths > frames):
        raise ValueError(f"lengths {lengths.tolist()} do not fit a batch of "
                         f"{batch} items of {frames} frames")
    dtype = np.result_type(xd.dtype, yd.dtype)
    # windowed on values centred at the range midpoint: variance and
    # covariance are shift invariant and this avoids float32 cancellation
    # in blur(x*x) - mu*mu for means far from zero
    half = DYNAMIC_RANGE / 2.0
    xs, ys = xd.astype(dtype) + SHIFT, yd.astype(dtype) + SHIFT
    xc = np.clip(xs, 0.0, DYNAMIC_RANGE) - half
    yc = np.clip(ys, 0.0, DYNAMIC_RANGE) - half
    blur_f = _blur_matrix(_odd_clip(WINDOW_SIZE, bins), bins, dtype)

    # items sharing a time window are blurred together over the group's
    # widest item; item i keeps its first lengths[i] - size + 1 output
    # columns, which read only its own frames
    sizes = np.array([_odd_clip(WINDOW_SIZE, int(t)) for t in lengths])
    groups = []
    total = 0.0
    for size in np.unique(sizes):
        items = np.flatnonzero(sizes == size)
        width = int(lengths[items].max())
        score, grads = _window_group(
            xc[items, :, :width], yc[items, :, :width], blur_f,
            int(size), lengths[items] - size + 1,
            batch)
        total += score
        groups.append((items, width, grads))

    def backward(g):
        dx = np.zeros(xd.shape, dtype=dtype) if x.requires_grad else None
        dy = np.zeros(yd.shape, dtype=dtype) if y.requires_grad else None
        for items, width, grads in groups:
            dxc, dyc = grads(g, dx is not None, dy is not None)
            if dx is not None:
                dx[items, :, :width] = dxc
            if dy is not None:
                dy[items, :, :width] = dyc
        # the clamp passes the gradient where 0 < value + SHIFT <= range,
        # as relu's subgradient does
        if dx is not None:
            dx *= (xs > 0.0) & (xs <= DYNAMIC_RANGE)
            x.accumulate_grad(dx[0] if lift else dx)
        if dy is not None:
            dy *= (ys > 0.0) & (ys <= DYNAMIC_RANGE)
            y.accumulate_grad(dy[0] if lift else dy)

    return Tensor.from_op(np.asarray(total, dtype=dtype), (x, y), backward)


def _window_group(xc, yc, blur_f, size_t, cols, batch):
    """SSIM of items that share one time window, in valid mode.

    xc, yc: (items, bins, width) centred images; blur_f: the bins blur
    matrix; size_t: the time window's size; cols: each item's count of
    valid output columns. Returns the sum of the local SSIM over valid
    pixels, each weighted 1 / (batch * its item's pixel count), and
    grads(g, need_x, need_y) -> (d/dxc, d/dyc) of g times that sum (None
    where not needed).
    """
    half = DYNAMIC_RANGE / 2.0
    maps = np.stack([xc, yc, xc * xc, yc * yc, xc * yc])
    mu_xc, mu_yc, sxx, syy, sxy = np.matmul(blur_f, _blur_time(maps, size_t))
    mu_x, mu_y = mu_xc + half, mu_yc + half
    a1 = mu_x * mu_y * 2.0 + C1
    a2 = (sxy - mu_xc * mu_yc) * 2.0 + C2
    b1 = mu_x * mu_x + mu_y * mu_y + C1
    b2 = (sxx - mu_xc * mu_xc) + (syy - mu_yc * mu_yc) + C2
    s = (a1 * a2) / (b1 * b2)
    valid = np.arange(s.shape[2]) < cols[:, None, None]
    weight = (valid / (batch * s.shape[1] * cols[:, None, None])).astype(s.dtype)
    score = float(np.sum(s * weight, dtype=np.float64))

    def grads(g, need_x, need_y):
        # s = a1 a2 / (b1 b2) as a function of the window means, variances
        # and covariance; the variances' and covariance's dependence on the
        # means folds into g_mu
        w = weight * g
        den = b1 * b2
        g_var = -w * s / b2
        g_cov = w * 2.0 * a1 / den
        a2_den, s_b1 = a2 / den, s / b1
        fields = []
        if need_x:
            fields.append(w * 2.0 * (mu_y * a2_den - mu_x * s_b1)
                          - 2.0 * mu_xc * g_var - mu_yc * g_cov)
        if need_y:
            fields.append(w * 2.0 * (mu_x * a2_den - mu_y * s_b1)
                          - 2.0 * mu_yc * g_var - mu_xc * g_cov)
        # transposed blur of every field at once; the window is symmetric,
        # so the transposed time blur is the same blur of the field padded
        # by size_t - 1 zeros at both ends
        back = np.matmul(blur_f.T, np.stack(fields + [g_var, g_cov]))
        back = _blur_time(_pad_time(back, size_t - 1, size_t - 1), size_t)
        b_var, b_cov = back[-2], back[-1]
        dxc = back[0] + 2.0 * xc * b_var + yc * b_cov if need_x else None
        dyc = back[-3] + 2.0 * yc * b_var + xc * b_cov if need_y else None
        return dxc, dyc

    return score, grads


def _as_float(a):
    a = np.asarray(a)
    # float64 arrays keep full precision; everything else runs in float32
    return a if a.dtype == np.float64 else a.astype(np.float32)


def _odd_clip(size, limit):
    s = min(size, limit)
    return s if s % 2 == 1 else s - 1
