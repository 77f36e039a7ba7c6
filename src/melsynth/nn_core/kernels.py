"""Convolution kernels: a conv of kernel size k is k GEMMs on shifted views.

All kernels operate on an already zero-padded input ``xpad`` of shape
(batch, in_channels, padded_time). Tap j of a conv with dilation d reads
the view ``xpad[b, :, j*d : j*d + out_time]``, so

    out[b] = bias + sum_j weight[:, :, j] @ xpad[b, :, j*d : j*d + out_time]

is k matrix products on views of the input: no im2col buffer and no
transposes. The residual stacks lay their whole batch out as one
zero-guard-banded row and pass it as batch 1, so each product is one wide
GEMM; :func:`melsynth.nn_core.functional.conv1d` passes its zero-padded
batch as it is. Results are bit-deterministic run-to-run with one math
thread.
"""

from __future__ import annotations

import numpy as np


def _taps(weight, transpose=False):
    """Contiguous (out, in) matrices, one per kernel tap."""
    return [np.ascontiguousarray(weight[:, :, j].T if transpose else weight[:, :, j])
            for j in range(weight.shape[2])]


def conv1d_forward(xpad, weight, bias, dilation, out_time, out=None):
    """(batch, cin, padded) -> (batch, cout, out_time), written into `out`
    when given (any view whose rows are contiguous)."""
    batch = xpad.shape[0]
    cout = weight.shape[0]
    if out is None:
        out = np.empty((batch, cout, out_time), dtype=np.result_type(xpad, weight))
    taps = _taps(weight)
    tmp = np.empty((cout, out_time), dtype=out.dtype) if len(taps) > 1 else None
    for b in range(batch):
        np.matmul(taps[0], xpad[b, :, :out_time], out=out[b])
        for j, tap in enumerate(taps[1:], 1):
            off = j * dilation
            np.matmul(tap, xpad[b, :, off:off + out_time], out=tmp)
            out[b] += tmp
        out[b] += bias[:, None]
    return out


def conv1d_grad_input(gout, weight, dilation, padded_time):
    """Gradient w.r.t. ``xpad``: the k transposed taps scattered back."""
    batch, _, out_time = gout.shape
    taps = _taps(weight, transpose=True)
    gxpad = np.empty((batch, weight.shape[1], padded_time), dtype=gout.dtype)
    tmp = np.empty(gxpad.shape[1:2] + (out_time,), dtype=gout.dtype)
    for b in range(batch):
        np.matmul(taps[0], gout[b], out=gxpad[b, :, :out_time])
        gxpad[b, :, out_time:] = 0
        for j, tap in enumerate(taps[1:], 1):
            off = j * dilation
            np.matmul(tap, gout[b], out=tmp)
            gxpad[b, :, off:off + out_time] += tmp
    return gxpad


def conv1d_grad_weight(gout, xpad, dilation, ksize):
    """Gradient w.r.t. the (cout, cin, ksize) weight, summed over the batch."""
    batch, cout, out_time = gout.shape
    gw = np.zeros((cout, xpad.shape[1], ksize), dtype=gout.dtype)
    for b in range(batch):
        for j in range(ksize):
            off = j * dilation
            gw[:, :, j] += gout[b] @ xpad[b, :, off:off + out_time].T
    return gw
