"""Light container for layers: parameter/buffer discovery and train/eval mode."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .tensor import Tensor


def parameter(data):
    """Wrap an initial value as a trainable float32 tensor."""
    return Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class; submodules, parameters and buffers are plain attributes.

    A parameter is a Tensor that requires grad; a buffer (e.g. batch norm's
    running statistics) is a float32 ndarray saved with checkpoints but not
    trained. Both change only in place once built, so an optimizer's views
    and the arrays `named_buffers` yields stay the model's state. Attribute
    order (insertion order) defines the stable ordering used by optimizers
    and checkpoints.
    """

    def __init__(self):
        self.training = True

    # -- registry --------------------------------------------------------

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

    def _named(self, wanted, prefix):
        for name, value in self.__dict__.items():
            if wanted(value):
                yield prefix + name, value
        for name, child in self._children():
            yield from child._named(wanted, prefix + name + ".")

    def named_parameters(self, prefix=""):
        return self._named(
            lambda v: isinstance(v, Tensor) and v.requires_grad, prefix)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        return self._named(lambda v: isinstance(v, np.ndarray), prefix)

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
