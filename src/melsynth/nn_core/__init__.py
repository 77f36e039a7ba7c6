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
from .optim import Adam, PlateauSchedule, noam_lr
from . import functional, kernels
