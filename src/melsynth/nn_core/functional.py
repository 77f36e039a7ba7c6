"""Differentiable whole-tensor operations used by the synthesis networks.

Each function takes/returns :class:`~melsynth.nn_core.tensor.Tensor` and
registers a backward closure on the tape. Constants (masks, targets,
positional tables) may be passed as plain numpy arrays or scalars; they
never receive gradients.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tensor import Tensor, as_tensor, grad_enabled


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a, like=b if isinstance(b, Tensor) else None), as_tensor(b, like=a if isinstance(a, Tensor) else None)
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    return Tensor.from_op(out, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a, like=b if isinstance(b, Tensor) else None), as_tensor(b, like=a if isinstance(a, Tensor) else None)
    out = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(-_unbroadcast(g, b.data.shape))

    return Tensor.from_op(out, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a, like=b if isinstance(b, Tensor) else None), as_tensor(b, like=a if isinstance(a, Tensor) else None)
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    return Tensor.from_op(out, (a, b), backward)


# ---------------------------------------------------------------------------
# activations and pointwise maps
# ---------------------------------------------------------------------------

def relu(x):
    out = np.maximum(x.data, 0)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * (x.data > 0))

    return Tensor.from_op(out, (x,), backward)


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * out * (1.0 - out))

    return Tensor.from_op(out, (x,), backward)


def abs_(x):
    out = np.abs(x.data)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * np.sign(x.data))

    return Tensor.from_op(out, (x,), backward)


def huber(x, delta=1.0):
    """Elementwise Huber of a residual: quadratic inside |x|<=delta, linear outside."""
    absx = np.abs(x.data)
    small = absx <= delta
    out = np.where(small, 0.5 * x.data * x.data, delta * (absx - 0.5 * delta))
    out = out.astype(x.data.dtype)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g * np.where(small, x.data, delta * np.sign(x.data)).astype(x.data.dtype))

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum(x, axis=None, keepdims=False):  # noqa: A001 - mirrors numpy naming
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not x.requires_grad:
            return
        if axis is None:
            x.accumulate_grad(np.broadcast_to(g, x.data.shape))
            return
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(a % x.data.ndim for a in axes))
        x.accumulate_grad(np.broadcast_to(g, x.data.shape))

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def transpose_last2(x):
    out = np.swapaxes(x.data, -1, -2)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.swapaxes(g, -1, -2))

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product; both operands 2-d, or both 3-d (batched)."""
    out = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b.accumulate_grad(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return Tensor.from_op(out, (a, b), backward)


def linear(x, weight, bias=None):
    """Per-time-step affine map on (batch, channels, time) input.

    weight: (out_channels, in_channels); bias: (out_channels,).
    """
    if x.data.shape[1] != weight.data.shape[1]:
        raise ValueError(
            f"linear channel mismatch: input has {x.data.shape[1]}, weight expects {weight.data.shape[1]}"
        )
    out = np.matmul(weight.data, x.data)
    if bias is not None:
        out += bias.data[:, None]

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(np.matmul(weight.data.T, g))
        if weight.requires_grad:
            weight.accumulate_grad(np.matmul(g, np.swapaxes(x.data, 1, 2)).sum(axis=0))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, backward)


def embedding(weight, ids):
    """Lookup id sequence (batch, n) -> (batch, dim, n)."""
    ids = np.asarray(ids)
    vocab = weight.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise IndexError(f"embedding id {bad} outside vocabulary of size {vocab}")
    out = weight.data[ids].transpose(0, 2, 1)

    def backward(g):
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            np.add.at(gw, ids, g.transpose(0, 2, 1))
            weight.accumulate_grad(gw)

    return Tensor.from_op(out, (weight,), backward)


def gather_time(x, indices):
    """Re-index the time axis: out[b, :, t] = x[b, :, indices[b, t]].

    Used to expand per-phoneme encodings to frame rate; gradients scatter-add
    back so repeated frames all contribute to their source phoneme.
    """
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[2]):
        raise IndexError("gather_time index outside input time range")
    batch_ix = np.arange(x.data.shape[0])[:, None]
    xt = x.data.transpose(0, 2, 1)
    out = xt[batch_ix, idx].transpose(0, 2, 1)

    def backward(g):
        if x.requires_grad:
            gxt = np.zeros_like(xt)
            np.add.at(gxt, (batch_ix, idx), g.transpose(0, 2, 1))
            x.accumulate_grad(gxt.transpose(0, 2, 1))

    return Tensor.from_op(out, (x,), backward)


def softmax(x, axis):
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if x.requires_grad:
            gy = g * out
            x.accumulate_grad(gy - out * gy.sum(axis=axis, keepdims=True))

    return Tensor.from_op(out, (x,), backward)


# ---------------------------------------------------------------------------
# guard-banded rows and convolutions
# ---------------------------------------------------------------------------
#
# A (batch, channels, time) batch is laid out as one (channels, width) row:
# item 0, guard, item 1, ..., guard, item B-1, each guard `guard` zero columns
# (see :class:`~melsynth.nn_core.layers.RowLayout`). A conv that reaches at
# most `guard` frames to either side then never mixes two items, so the
# whole batch is one GEMM per kernel tap.

def _to_row(x, starts, lengths, width):
    row = np.zeros((x.shape[1], width), dtype=x.dtype)
    for b, (s, n) in enumerate(zip(starts, lengths)):
        row[:, s:s + n] = x[b, :, :n]
    return row


def _from_row(row, starts, lengths, frames):
    out = np.zeros((len(starts), row.shape[0], frames), dtype=row.dtype)
    for b, (s, n) in enumerate(zip(starts, lengths)):
        out[b, :, :n] = row[:, s:s + n]
    return out


def pack_rows(x, starts, lengths, width):
    """(batch, channels, time) -> (channels, width) row; item b keeps its first
    lengths[b] frames at column starts[b], everything else is zero."""
    out = _to_row(x.data, starts, lengths, width)

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(_from_row(g, starts, lengths, x.data.shape[2]))

    return Tensor.from_op(out, (x,), backward)


def unpack_rows(row, starts, lengths, frames):
    """Inverse of :func:`pack_rows`; frames past each item's length are zero."""
    out = _from_row(row.data, starts, lengths, frames)

    def backward(g):
        if row.requires_grad:
            row.accumulate_grad(_to_row(g, starts, lengths, row.data.shape[1]))

    return Tensor.from_op(out, (row,), backward)


def _conv_geometry(x, weight, dilation, causal):
    """Validate a conv; returns (kernel size, frames read left of the output)."""
    if x.data.shape[-2] != weight.data.shape[1]:
        raise ValueError(
            f"conv1d channel mismatch: input has {x.data.shape[-2]}, weight expects {weight.data.shape[1]}"
        )
    ksize = weight.data.shape[2]
    span = (ksize - 1) * dilation
    return ksize, span if causal else span // 2


def conv1d(x, weight, bias, dilation=1, causal=False):
    """Dilated 1D convolution over (batch, channels, time), length-preserving.

    Frames past either end read as zeros. causal: output t sees inputs <= t.
    non-causal: centred (an odd extra frame is read on the right).
    """
    ksize, left = _conv_geometry(x, weight, dilation, causal)
    xd = x.data
    out = kernels.conv1d_forward(xd, weight.data, bias.data, dilation, left=left)

    def backward(g):
        if weight.requires_grad:
            weight.accumulate_grad(
                kernels.conv1d_grad_weight(g, xd, dilation, ksize, left=left))
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2)))
        if x.requires_grad:
            x.accumulate_grad(
                kernels.conv1d_grad_input(g, weight.data, dilation, left=left))

    return Tensor.from_op(out, (x, weight, bias), backward)


def plain_residual(x, weight, bias, scale, shift, keep, dilation=1, causal=False,
                   frames=None, running=None, eps=1e-5):
    """Fused plain residual block on a guard-banded (channels, width) row:

        out = (x + scale * norm(relu(conv(x))) + shift) * keep

    norm uses ``running`` = (mean, var) when given (eval mode); otherwise the
    batch statistics over the columns where ``frames`` is 1 (train mode), with
    a hand-written backward that includes the mean and variance terms.
    ``keep`` (width,) is the mask on item columns and 0 on the guards, so the
    output is again a row with zero guards; the conv must reach no further
    than the guards. Batch norm comes after the ReLU, so it cannot fold into
    the conv weights; it runs as a per-channel affine epilogue on the GEMM
    output, in place when no gradient is recorded.

    Returns (out, mean, var): the statistics the normalization used.
    """
    ksize, left = _conv_geometry(x, weight, dilation, causal)
    xd = x.data
    r = kernels.conv1d_forward(xd[None], weight.data, bias.data, dilation, left=left)[0]
    np.maximum(r, 0, out=r)
    if running is None:
        count = float(frames.sum())
        if count < 2:
            raise ValueError("batch norm needs batch*time >= 2 in train mode")
        mean = (r @ frames) / count
        centered = r - mean[:, None]
        var = np.square(centered, out=centered) @ frames / count
    else:
        mean, var = running
    inv = 1.0 / np.sqrt(np.asarray(var, dtype=np.float64) + eps)
    a64 = scale.data * inv
    a = a64.astype(r.dtype)[:, None]
    c = (shift.data - mean * a64).astype(r.dtype)[:, None]
    recorded = grad_enabled() and any(
        t.requires_grad for t in (x, weight, bias, scale, shift))
    out = np.multiply(r, a, out=None if recorded else r)
    out += c
    out += xd
    out *= keep

    def backward(g):
        g = g * keep  # gradient of the residual sum, zero on guards
        gshift = g.sum(axis=1)
        xhat = (r - np.asarray(mean, dtype=r.dtype)[:, None]) * inv.astype(r.dtype)[:, None]
        gscale = np.einsum("ct,ct->c", g, xhat)
        if scale.requires_grad:
            scale.accumulate_grad(gscale)
        if shift.requires_grad:
            shift.accumulate_grad(gshift)
        gr = g * a
        if running is None:
            # the statistics depend on every frame they were taken over
            gr -= (a / count) * (gshift[:, None] + xhat * gscale[:, None]) * frames
        gr *= r > 0
        if weight.requires_grad:
            weight.accumulate_grad(
                kernels.conv1d_grad_weight(gr[None], xd[None], dilation, ksize, left=left))
        if bias.requires_grad:
            bias.accumulate_grad(gr.sum(axis=1))
        if x.requires_grad:
            g += kernels.conv1d_grad_input(gr[None], weight.data, dilation, left=left)[0]
            x.accumulate_grad(g)

    return Tensor.from_op(out, (x, weight, bias, scale, shift), backward), mean, var


def gated_residual(x, weight, bias, proj_weight, proj_bias, keep, dilation=1,
                   causal=False):
    """Fused gated residual block on a guard-banded (channels, width) row:

        out = (x + proj(tanh(f) * sigmoid(g))) * keep,   [f; g] = conv(x)

    with a 1x1 projection ``proj_weight`` (channels, half, 1). ``keep``
    (width,) is 1 on item columns and 0 on the guards, so the output is again
    a row with zero guards; the conv must reach no further than the guards.
    The backward sends ``g * keep`` into the projection and both gate
    derivatives into one conv gradient.
    """
    ksize, left = _conv_geometry(x, weight, dilation, causal)
    xd = x.data
    z = kernels.conv1d_forward(xd[None], weight.data, bias.data, dilation, left=left)[0]
    half = z.shape[0] // 2
    th = np.tanh(z[:half], out=z[:half])
    sg = z[half:]  # sigmoid of the gate half in place, F.sigmoid's formula
    np.negative(sg, out=sg)
    np.exp(sg, out=sg)
    sg += 1.0
    np.divide(1.0, sg, out=sg)
    gated = th * sg
    wp = proj_weight.data[:, :, 0]
    out = wp @ gated
    out += proj_bias.data[:, None]
    out += xd
    out *= keep

    def backward(g):
        g = g * keep  # gradient of the residual sum, zero on guards
        if proj_weight.requires_grad:
            proj_weight.accumulate_grad((g @ gated.T)[:, :, None])
        if proj_bias.requires_grad:
            proj_bias.accumulate_grad(g.sum(axis=1))
        gs = wp.T @ g
        gs *= sg
        gz = np.empty_like(z)
        np.multiply(gs, 1.0 - th * th, out=gz[:half])
        gs *= th
        np.multiply(gs, 1.0 - sg, out=gz[half:])
        if weight.requires_grad:
            weight.accumulate_grad(
                kernels.conv1d_grad_weight(gz[None], xd[None], dilation, ksize, left=left))
        if bias.requires_grad:
            bias.accumulate_grad(gz.sum(axis=1))
        if x.requires_grad:
            g += kernels.conv1d_grad_input(gz[None], weight.data, dilation, left=left)[0]
            x.accumulate_grad(g)

    return Tensor.from_op(out, (x, weight, bias, proj_weight, proj_bias), backward)


# ---------------------------------------------------------------------------
# positional encodings and padded batches (constants, no gradient)
# ---------------------------------------------------------------------------

def sinusoid_table(positions, dim):
    """Sinusoidal features for arbitrary (possibly fractional) positions.

    Returns (dim, len(positions)): row 2i is sin(pos / 10000^(2i/dim)),
    row 2i+1 the matching cos.
    """
    if dim % 2 != 0:
        raise ValueError("positional encoding dimension must be even")
    positions = np.asarray(positions, dtype=np.float64)
    i = np.arange(dim // 2, dtype=np.float64)
    inv_freq = np.power(10000.0, -2.0 * i / dim)
    angles = inv_freq[:, None] * positions[None, :]
    table = np.empty((dim, positions.shape[0]), dtype=np.float32)
    table[0::2] = np.sin(angles)
    table[1::2] = np.cos(angles)
    return table


# Every variable-length batch is right-zero-padded along its last axis, with
# a float32 (B, 1, width) mask of ones over each item's real frames.

def pad_right(arrays, dtype):
    """Stack arrays that differ only in their last axis, zero padded on the right.

    Returns (len(arrays), *leading, max last extent) of `dtype`; item i keeps
    its values at [i, ..., :n_i]. Raises ValueError if any other axis differs.
    """
    arrays = [np.asarray(a) for a in arrays]
    leads = {a.shape[:-1] for a in arrays}
    if len(leads) != 1:
        raise ValueError(f"cannot pad shapes {[a.shape for a in arrays]}: "
                         "items must differ only in their last axis")
    out = np.zeros((len(arrays), *leads.pop(), max(a.shape[-1] for a in arrays)),
                   dtype=dtype)
    for i, a in enumerate(arrays):
        out[i, ..., :a.shape[-1]] = a
    return out


def length_mask(lengths, width):
    """Float32 (B, 1, width) mask: ones on the first lengths[i] cells of row i."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return (np.arange(width) < lengths[:, None, None]).astype(np.float32)
