"""Layers the two synthesis networks are assembled from."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module, parameter


def _rng(rng):
    return rng if rng is not None else np.random.default_rng()


class Conv1d(Module):
    """Length-preserving dilated 1D convolution, causal or centered."""

    def __init__(self, in_channels, out_channels, kernel_size, dilation=1,
                 causal=False, rng=None):
        super().__init__()
        rng = _rng(rng)
        bound = 1.0 / np.sqrt(in_channels * kernel_size)
        self.weight = parameter(rng.uniform(-bound, bound,
                                            (out_channels, in_channels, kernel_size)))
        self.bias = parameter(np.zeros(out_channels))
        self.dilation = int(dilation)
        self.causal = bool(causal)

    def reach(self):
        """Frames the conv reads to one side; the guard width it needs."""
        span = (self.weight.shape[2] - 1) * self.dilation
        return span if self.causal else span - span // 2

    def forward(self, x):
        return F.conv1d(x, self.weight, self.bias,
                        dilation=self.dilation, causal=self.causal)


class Linear(Module):
    """Per-time-step affine map on (batch, channels, time)."""

    def __init__(self, in_features, out_features, rng=None):
        super().__init__()
        rng = _rng(rng)
        bound = 1.0 / np.sqrt(in_features)
        self.weight = parameter(rng.uniform(-bound, bound, (out_features, in_features)))
        self.bias = parameter(np.zeros(out_features))

    def forward(self, x):
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Integer ids (batch, n) -> dense (batch, dim, n)."""

    def __init__(self, vocab_size, dim, rng=None):
        super().__init__()
        rng = _rng(rng)
        self.weight = parameter(rng.normal(0.0, 1.0 / np.sqrt(dim), (vocab_size, dim)))

    def forward(self, ids):
        return F.embedding(self.weight, ids)


class BatchNormTemporal(Module):
    """Parameters and running statistics of a per-channel normalization over
    the real frames of every batch item; :func:`functional.plain_residual`
    computes it. Train mode normalizes with batch statistics and updates
    running stats by exponential moving average; eval mode is a fixed
    per-channel affine map.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels):
        super().__init__()
        self.scale = parameter(np.ones(channels))
        self.shift = parameter(np.zeros(channels))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def update_running(self, mean, var, count):
        """Exponential moving average of batch statistics taken over `count`
        frames; the running variance is the unbiased one. Off the tape and in
        place, like every change to model state."""
        mu = np.asarray(mean).reshape(-1).astype(np.float32)
        v = np.asarray(var).reshape(-1).astype(np.float32) * (count / (count - 1))
        for running, batch in ((self.running_mean, mu), (self.running_var, v)):
            running *= 1 - self.momentum
            running += self.momentum * batch


class GatedResidualBlock(Module):
    """Dilated conv -> tanh/sigmoid gate -> 1x1 projection -> residual add
    (-> mask), fused.

    ``conv`` and ``proj`` hold the parameters; the computation is one
    :func:`functional.gated_residual` op on a guard-banded row. The block's
    skip output is its residual output minus its input.
    """

    def __init__(self, residual_channels, gate_channels, kernel_size, dilation,
                 causal, rng=None):
        super().__init__()
        if gate_channels % 2 != 0:
            raise ValueError("gate_channels must be even (filter/gate halves)")
        self.conv = Conv1d(residual_channels, gate_channels, kernel_size,
                           dilation=dilation, causal=causal, rng=rng)
        self.proj = Conv1d(gate_channels // 2, residual_channels, 1, rng=rng)

    def run(self, row, layout):
        """The fused block on a row laid out by `layout`."""
        return F.gated_residual(
            row, self.conv.weight, self.conv.bias, self.proj.weight,
            self.proj.bias, layout.keep, dilation=self.conv.dilation,
            causal=self.conv.causal)


class RowLayout:
    """Where each item of a (batch, channels, time) batch sits in one
    guard-banded row: item 0, guard, ..., guard, item B-1, each `guard` zeros.

    Each item takes its true length, up to the last frame the mask keeps, so
    padded frames are never computed and batch statistics count only real
    frames; frames it drops count as zeros. ``keep`` holds the mask on item
    columns and 0 on the guards. A mask must be a prefix mask (see
    :func:`functional.length_mask`): a zero before an item's last nonzero
    frame raises ValueError.
    """

    def __init__(self, x, mask, guard):
        batch, _, frames = x.shape
        m = np.broadcast_to(mask, (batch, 1, frames))[:, 0]
        nz = m != 0
        ends = np.where(nz.any(axis=1), frames - np.argmax(nz[:, ::-1], axis=1), 0)
        holes = np.flatnonzero(nz.sum(axis=1) != ends)
        if holes.size:
            raise ValueError(f"mask of item {holes[0]} has a zero before its "
                             f"last nonzero frame")
        self.lengths = ends.tolist()
        self.frames = frames
        offsets = np.cumsum([0] + [n + guard for n in self.lengths])
        self.starts, self.width = offsets[:-1], int(offsets[-1]) - guard
        self.keep = np.zeros(self.width, dtype=x.dtype)
        for s, n, row in zip(self.starts, self.lengths, m):
            self.keep[s:s + n] = row[:n]

    def pack(self, x):
        return F.pack_rows(x, self.starts, self.lengths, self.width)

    def unpack(self, row):
        return F.unpack_rows(row, self.starts, self.lengths, self.frames)


class PlainResidualBlock(Module):
    """Conv -> ReLU -> temporal batch norm -> residual add (-> mask), fused.

    ``conv`` and ``norm`` hold the parameters and running statistics; the
    computation is one :func:`functional.plain_residual` op on a
    guard-banded row laid out by :class:`RowLayout`.
    """

    def __init__(self, channels, kernel_size, dilation, causal=False, rng=None):
        super().__init__()
        self.conv = Conv1d(channels, channels, kernel_size,
                           dilation=dilation, causal=causal, rng=rng)
        self.norm = BatchNormTemporal(channels)

    def run(self, row, layout):
        """The fused block on a row laid out by `layout`."""
        norm = self.norm
        running = None if self.training else (norm.running_mean, norm.running_var)
        out, mean, var = F.plain_residual(
            row, self.conv.weight, self.conv.bias, norm.scale, norm.shift,
            layout.keep, dilation=self.conv.dilation, causal=self.conv.causal,
            running=running, eps=norm.eps)
        if self.training:
            norm.update_running(mean, var, sum(layout.lengths))
        return out
