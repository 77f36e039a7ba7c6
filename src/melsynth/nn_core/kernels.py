"""Convolution kernels: a conv of kernel size k is k GEMMs on shifted views.

All kernels take the unpadded input ``x`` of shape (batch, in_channels,
time) and keep its length. Tap j of a conv with dilation d reads input
column ``t - left + j*d`` for output column t, and columns past either end
of ``x`` read as zero, so tap j is one matrix product over the output
columns whose input exists: no padded copy, no im2col buffer and no
transposes. The residual stacks lay their whole batch out as one row with
zero guards between items and pass it as batch 1, so each product is one
wide GEMM. Results are bit-deterministic run-to-run with one math thread.
"""

from __future__ import annotations

import numpy as np


def _window(shift, time):
    """Output columns [lo, hi) whose input column, shift away, exists."""
    lo = max(0, -shift)
    return lo, max(lo, min(time, time - shift))


def _conv(x, weight, dilation, left):
    """The tap products summed over their windows, without bias.

    The tap nearest shift 0 has the widest window: it writes straight into
    the result. Each other tap writes into one scratch buffer, which is then
    added whole. Both are zeroed outside the tap's window. Each product
    runs over the whole batch at once.
    """
    cout, _, ksize = weight.shape
    time = x.shape[2]
    out = np.empty((x.shape[0], cout, time), dtype=np.result_type(x, weight))
    taps = weight.transpose(2, 0, 1).copy()  # (ksize, cout, cin), each contiguous
    first = min(ksize - 1, (left + dilation // 2) // dilation)
    tmp = None
    for j in [first] + [j for j in range(ksize) if j != first]:
        shift = j * dilation - left
        lo, hi = _window(shift, time)
        if j != first:
            if hi == lo:
                continue  # the tap reads only zeros
            if tmp is None:
                tmp = np.empty_like(out)
        dst = out if j == first else tmp
        if lo:
            dst[:, :, :lo] = 0
        if hi < time:
            dst[:, :, hi:] = 0
        np.matmul(taps[j], x[:, :, lo + shift:hi + shift], out=dst[:, :, lo:hi])
        if dst is not out:
            out += tmp
    return out


def conv1d_forward(x, weight, bias, dilation, *, left):
    """(batch, cin, time) -> (batch, cout, time)."""
    out = _conv(x, weight, dilation, left)
    out += bias[:, None]
    return out


def conv1d_grad_input(gout, weight, dilation, *, left):
    """Gradient w.r.t. ``x``: the conv with each tap transposed and the taps
    in reverse order, which reads (ksize - 1) * dilation - left to the left."""
    span = (weight.shape[2] - 1) * dilation
    return _conv(gout, weight.transpose(1, 0, 2)[:, :, ::-1], dilation, span - left)


def conv1d_grad_weight(gout, x, dilation, ksize, *, left):
    """Gradient w.r.t. the (cout, cin, ksize) weight, summed over the batch."""
    gw = np.zeros((gout.shape[1], x.shape[1], ksize), dtype=gout.dtype)
    for j in range(ksize):
        shift = j * dilation - left
        lo, hi = _window(shift, x.shape[2])
        products = gout[:, :, lo:hi] @ x[:, :, lo + shift:hi + shift].transpose(0, 2, 1)
        gw[:, :, j] = products.sum(axis=0)
    return gw
