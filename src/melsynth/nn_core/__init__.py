"""Differentiable numeric core: tensors, convolutions, layers, optimizers."""

from .tensor import AutodiffError, NonFiniteError, Tensor, as_tensor, no_grad
from .module import Module, parameter
from .layers import (
    BatchNormTemporal,
    Conv1d,
    Embedding,
    GatedResidualBlock,
    Linear,
    PlainResidualBlock,
    RowLayout,
)
from .optim import (
    Adam,
    PlateauSchedule,
    clip_grad_norm,
    global_grad_norm,
    noam_lr,
)
from . import functional, kernels

__all__ = [
    "AutodiffError",
    "NonFiniteError",
    "Tensor",
    "as_tensor",
    "no_grad",
    "Module",
    "parameter",
    "BatchNormTemporal",
    "Conv1d",
    "Embedding",
    "GatedResidualBlock",
    "Linear",
    "PlainResidualBlock",
    "RowLayout",
    "Adam",
    "PlateauSchedule",
    "clip_grad_norm",
    "global_grad_norm",
    "noam_lr",
    "functional",
    "kernels",
]
