"""Reverse-mode autodiff over whole numpy arrays.

A recorded-tape design: each op output remembers its parent tensors and a
closure that routes the output gradient back to them. ``backward()`` on a
scalar walks the tape once and then releases it; a second call without
re-recording is an error.

Only the operations the two synthesis networks need carry derivatives.
Default element type is float32; float64 graphs are supported (used by the
finite-difference test harness) by passing float64 data in.
"""

from __future__ import annotations

import contextlib

import numpy as np


class AutodiffError(RuntimeError):
    """Misuse of the tape: non-scalar backward, released graph, ..."""


class NonFiniteError(FloatingPointError):
    """A NaN/Inf was detected where finite values are required."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (inference, augmentation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled():
    return _grad_enabled


def _as_array(data):
    arr = np.asarray(data)
    if arr.dtype in (np.float32, np.float64):
        return arr
    if np.issubdtype(arr.dtype, np.integer):
        return arr
    return arr.astype(np.float32)


class Tensor:
    """n-d value with optional gradient; model data is (batch, channels, time)."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_released")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._released = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_op(data, parents, backward_fn):
        """Wrap an op result; records the tape edge only while grads are on."""
        need = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=need)
        if need:
            out._parents = tuple(parents)
            out._backward = backward_fn
        return out

    # -- basic introspection --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def check_finite(self, what="tensor"):
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values in {what}")
        return self

    # -- autodiff -------------------------------------------------------------

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def detach(self):
        """Same data, no tape history; cuts gradient flow."""
        out = Tensor(self.data, requires_grad=False)
        return out

    def backward(self):
        if self.size != 1:
            raise AutodiffError(f"backward requires a scalar, got shape {self.shape}")
        if self._released:
            raise AutodiffError("graph already released; re-record the forward pass")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
            if node._parents:
                # release the tape as we go so memory frees promptly
                node._parents = ()
                node._backward = None
                node._released = True


def as_tensor(value, like=None):
    """Coerce constants to Tensor without recording them as parameters."""
    if isinstance(value, Tensor):
        return value
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(value, dtype=dtype))
