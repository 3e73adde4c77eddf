"""Deterministic dense-tensor engine: primitive ops, tape autodiff, .nt IO."""

from .gradcheck import GradCheckReport, finite_diff_check
from .ops import (
    BatchNormState,
    ConvSpec,
    add,
    batchnorm_backward,
    batchnorm_forward,
    check_finite,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    split_channels,
    upsample_bilinear,
    upsample_bilinear_backward,
)
from .tape import Tape, Var
from .tensor import (
    FLOAT,
    FormatError,
    NumericError,
    ShapeError,
    nt_bytes,
    nt_from_bytes,
    read_nt,
    tensor,
    write_nt,
)

__all__ = [
    "BatchNormState", "ConvSpec", "FLOAT", "FormatError", "GradCheckReport",
    "NumericError", "ShapeError", "Tape", "Var",
    "add", "batchnorm_backward", "batchnorm_forward", "check_finite",
    "concat_channels", "conv2d_backward", "conv2d_forward",
    "finite_diff_check", "maxpool_backward", "maxpool_forward",
    "nt_bytes", "nt_from_bytes", "read_nt", "relu_backward", "relu_forward",
    "split_channels", "tensor", "upsample_bilinear",
    "upsample_bilinear_backward", "write_nt",
]
