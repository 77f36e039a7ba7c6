"""Light container for layers: parameter/buffer discovery and train/eval mode."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor


def parameter(data):
    """Wrap an initial value as a trainable float32 tensor."""
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class; submodules and parameters are plain attributes.

    Attribute order (insertion order) defines the stable parameter ordering
    used by optimizers and checkpoints.
    """

    def __init__(self):
        self.training = True
        self._buffers = {}

    # -- registry --------------------------------------------------------

    def register_buffer(self, name, array):
        """Non-trainable state saved with checkpoints (e.g. running stats)."""
        self._buffers[name] = np.asarray(array, dtype=np.float32)

    def _children(self):
        for name, value in self.__dict__.items():
            if name.startswith("_") or name == "training":
                continue
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix=""):
        for name, value in self.__dict__.items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, array in self._buffers.items():
            yield prefix + name, array
        for name, child in self._children():
            yield from child.named_buffers(prefix + name + ".")

    def set_buffer(self, name, array):
        """Restore a buffer found by named_buffers (dotted path)."""
        if name in self._buffers:
            self._buffers[name] = np.asarray(array, dtype=np.float32)
            return
        # child names may themselves be dotted ("blocks.0"), so prefix-match
        for child_name, child in self._children():
            if name.startswith(child_name + "."):
                child.set_buffer(name[len(child_name) + 1:], array)
                return
        raise KeyError(f"no buffer {name!r}")

    # -- mode ------------------------------------------------------------

    def train(self, mode=True):
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    @contextmanager
    def evaluating(self):
        """Eval mode inside the block; the previous mode returns on any exit."""
        was_training = self.training
        self.eval()
        try:
            yield self
        finally:
            self.train(was_training)

    # -- forward ---------------------------------------------------------

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError
