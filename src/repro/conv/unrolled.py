"""Unrolling-based convolution (im2col + GEMM + col2im).

"The key idea behind unrolling convolution is to reshape the input and
the filter bank to double large matrices" (section II-B).  The local
regions of the input are unrolled into columns (:func:`~repro.conv.
im2col.im2col`), the filter bank into rows, and the convolution becomes
one matrix product per image; the backward-input pass multiplies by the
transposed filter matrix and folds the columns back with ``col2im``.

This is the numerical strategy behind Caffe, Torch-cunn,
Theano-CorrMM and (with implicit on-chip unrolling) cuDNN.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .common import add_bias, check_conv_args
from .im2col import col2im, im2col


def _square_kernel(w: np.ndarray) -> int:
    if w.shape[2] != w.shape[3]:
        raise ShapeError(f"unrolled strategy expects square kernels, got {w.shape[2:]}" )
    return w.shape[2]


def forward(x: np.ndarray, w: np.ndarray, bias=None,
            stride: int = 1, padding: int = 0) -> np.ndarray:
    """Forward pass: ``y = W_mat @ im2col(x)`` per image."""
    oh, ow = check_conv_args(x, w, stride, padding)
    k = _square_kernel(w)
    b = x.shape[0]
    f, c = w.shape[0], w.shape[1]

    col = im2col(x, k, stride, padding)            # (b, c*k*k, oh*ow)
    w_mat = w.reshape(f, c * k * k)                 # filters unrolled to rows
    # One GEMM per image, batched by einsum/matmul broadcasting:
    y = np.matmul(w_mat[None, :, :], col)           # (b, f, oh*ow)
    y = y.reshape(b, f, oh, ow)
    return add_bias(y, bias)


def backward_input(dy: np.ndarray, w: np.ndarray, input_hw,
                   stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient w.r.t. the input: ``col2im(W_mat^T @ dy)``."""
    f, c, kh, kw = w.shape
    k = _square_kernel(w)
    b, _, oh, ow = dy.shape
    w_mat = w.reshape(f, c * k * k)
    dy_mat = dy.reshape(b, f, oh * ow)
    dcol = np.matmul(w_mat.T[None, :, :], dy_mat)   # (b, c*k*k, oh*ow)
    return col2im(dcol, input_hw, k, stride, padding)


def backward_weights(dy: np.ndarray, x: np.ndarray, kernel_hw,
                     stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient w.r.t. the filters: accumulate ``dy_mat @ col^T`` over
    the batch."""
    kh, kw = kernel_hw
    if kh != kw:
        raise ShapeError(f"unrolled strategy expects square kernels, got {kernel_hw}")
    b, f, oh, ow = dy.shape
    c = x.shape[1]
    col = im2col(x, kh, stride, padding)            # (b, c*k*k, oh*ow)
    dy_mat = dy.reshape(b, f, oh * ow)
    # Sum of per-image GEMMs: (f, oh*ow) @ (oh*ow, c*k*k).
    dw_mat = np.einsum("bfo,bko->fk", dy_mat, col, optimize=True)
    return dw_mat.reshape(f, c, kh, kw)


def backward_bias(dy: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the per-filter bias."""
    return dy.sum(axis=(0, 2, 3))
