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


def ssim_index(pred, target, lengths):
    """Mean local SSIM of a predicted spectrogram batch against its target.

    pred is a padded (B, bins, T) Tensor and target an array of the same
    shape. Item i is scored on its first lengths[i] frames; the result is the
    mean over items of each item's mean local SSIM, a scalar Tensor in
    [-1, 1] recorded as one tape node whose gradient goes to `pred` alone.

    Values are shifted by +SHIFT and clamped to [0, DYNAMIC_RANGE] for
    windowing; constants use L = DYNAMIC_RANGE. The WINDOW_SIZE Gaussian
    window (WINDOW_SIGMA) shrinks, kept odd, on an axis shorter than it.
    Float64 inputs are scored in float64, float32 ones in float32.
    """
    xd, yd = pred.data, np.asarray(target)
    if xd.shape != yd.shape:
        raise ValueError(f"shape mismatch: {xd.shape} vs {yd.shape}")
    if xd.ndim != 3:
        raise ValueError(f"expected (B, bins, T), got {xd.shape}")
    batch, bins, frames = xd.shape
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if lengths.shape != (batch,) or np.any(lengths < 1) \
            or np.any(lengths > frames):
        raise ValueError(f"lengths {lengths.tolist()} do not fit a batch of "
                         f"{batch} items of {frames} frames")
    dtype = np.result_type(xd.dtype, yd.dtype)
    # windowed on values centred at the range midpoint: variance and
    # covariance are shift invariant and this avoids float32 cancellation
    # in blur(x*x) - mu*mu for means far from zero
    half = DYNAMIC_RANGE / 2.0
    xs = xd.astype(dtype) + SHIFT
    xc = np.clip(xs, 0.0, DYNAMIC_RANGE) - half
    yc = np.clip(yd.astype(dtype) + SHIFT, 0.0, DYNAMIC_RANGE) - half
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
        score, grad = _window_group(
            xc[items, :, :width], yc[items, :, :width], blur_f,
            int(size), lengths[items] - size + 1,
            batch)
        total += score
        groups.append((items, width, grad))

    def backward(g):
        dx = np.zeros(xd.shape, dtype=dtype)
        for items, width, grad in groups:
            dx[items, :, :width] = grad(g)
        # the clamp passes the gradient where 0 < value + SHIFT <= range,
        # as relu's subgradient does
        dx *= (xs > 0.0) & (xs <= DYNAMIC_RANGE)
        pred.accumulate_grad(dx)

    return Tensor.from_op(np.asarray(total, dtype=dtype), (pred,), backward)


def _window_group(xc, yc, blur_f, size_t, cols, batch):
    """SSIM of items that share one time window, in valid mode.

    xc, yc: (items, bins, width) centred prediction and target; blur_f: the
    bins blur matrix; size_t: the time window's size; cols: each item's
    count of valid output columns. Returns the sum of the local SSIM over
    valid pixels, each weighted 1 / (batch * its item's pixel count), and
    grad(g) -> d/dxc of g times that sum.
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

    def grad(g):
        # s = a1 a2 / (b1 b2) as a function of the window means, variances
        # and covariance; the variances' and covariance's dependence on the
        # means folds into g_mu
        w = weight * g
        den = b1 * b2
        g_var = -w * s / b2
        g_cov = w * 2.0 * a1 / den
        g_mu = (w * 2.0 * (mu_y * (a2 / den) - mu_x * (s / b1))
                - 2.0 * mu_xc * g_var - mu_yc * g_cov)
        # transposed blur of every field at once; the window is symmetric,
        # so the transposed time blur is the same blur of the field padded
        # by size_t - 1 zeros at both ends
        back = np.matmul(blur_f.T, np.stack([g_mu, g_var, g_cov]))
        b_mu, b_var, b_cov = _blur_time(
            _pad_time(back, size_t - 1, size_t - 1), size_t)
        return b_mu + 2.0 * xc * b_var + yc * b_cov

    return score, grad


def _odd_clip(size, limit):
    s = min(size, limit)
    return s if s % 2 == 1 else s - 1
