"""Winograd fast convolution — F(2x2, 3x3).

The paper's closing discussion points at "convolution optimization on
GPUs" beyond its seven subjects; Winograd's minimal filtering
algorithms (Lavin & Gray, 2015) were the next strategy to land in
cuDNN (v5) right after the paper's study window.  This module
implements the classic F(2x2, 3x3) variant as a fourth numerical
strategy so the library can explore that future-work direction:

* the input is cut into 4x4 tiles overlapping by 2;
* input tiles are transformed with ``B^T d B``, filters with
  ``G g G^T`` (both 4x4 in the transform domain);
* per-tile elementwise products replace the 3x3 dot products — 16
  multiplies produce 4 outputs where direct convolution needs 36, a
  2.25x multiplication reduction;
* outputs come back through ``A^T m A``.

Only stride 1 and 3x3 kernels are supported — exactly the regime the
paper's small-kernel observations (cuDNN winning for k < 7) make
interesting.  The backward passes reuse the other strategies'
mathematics via the adjoint identities, as production libraries did
before dedicated Winograd gradient kernels existed.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeError
from .common import add_bias, check_conv_args, pad_input
from . import direct as _direct

# Winograd F(2x2, 3x3) transform matrices (Lavin & Gray 2015, eq. 10).
B_T = np.array([
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
])
G = np.array([
    [1.0, 0.0, 0.0],
    [0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5],
    [0.0, 0.0, 1.0],
])
A_T = np.array([
    [1.0, 1.0, 1.0, 0.0],
    [0.0, 1.0, -1.0, -1.0],
])

#: Output tile size (m) and input tile size (m + r - 1).
TILE_OUT = 2
TILE_IN = 4
KERNEL = 3


def transform_filters(w: np.ndarray) -> np.ndarray:
    """``U = G g G^T`` for every (filter, channel) pair.

    Input ``(f, c, 3, 3)`` -> output ``(f, c, 4, 4)``.
    """
    if w.ndim != 4 or w.shape[2:] != (KERNEL, KERNEL):
        raise ShapeError(
            f"Winograd F(2x2,3x3) requires (f, c, 3, 3) filters, got {w.shape}"
        )
    return np.einsum("ij,fcjk,lk->fcil", G, w, G, optimize=True)


def _tile_input(xp: np.ndarray, tiles_h: int, tiles_w: int) -> np.ndarray:
    """Cut the (padded) input into overlapping 4x4 tiles.

    Returns ``(b, c, tiles_h, tiles_w, 4, 4)``.
    """
    b, c, H, W = xp.shape
    out = np.empty((b, c, tiles_h, tiles_w, TILE_IN, TILE_IN), dtype=xp.dtype)
    for th in range(tiles_h):
        for tw in range(tiles_w):
            r, s = th * TILE_OUT, tw * TILE_OUT
            out[:, :, th, tw] = xp[:, :, r:r + TILE_IN, s:s + TILE_IN]
    return out


def forward(x: np.ndarray, w: np.ndarray, bias=None,
            stride: int = 1, padding: int = 0) -> np.ndarray:
    """Winograd F(2x2, 3x3) forward convolution.

    Semantics identical to the other strategies' ``forward`` for
    ``kernel_size == 3`` and ``stride == 1`` (any padding); raises
    :class:`ShapeError` otherwise.
    """
    if stride != 1:
        raise ShapeError(f"Winograd convolution requires stride 1, got {stride}")
    oh, ow = check_conv_args(x, w, stride, padding)
    if w.shape[2:] != (KERNEL, KERNEL):
        raise ShapeError(
            f"Winograd F(2x2,3x3) requires 3x3 kernels, got {w.shape[2:]}"
        )
    xp = pad_input(x, padding)
    b, c = xp.shape[0], xp.shape[1]
    f = w.shape[0]

    tiles_h = math.ceil(oh / TILE_OUT)
    tiles_w = math.ceil(ow / TILE_OUT)
    # Pad on the bottom/right so every output tile is full.
    need_h = tiles_h * TILE_OUT + KERNEL - 1
    need_w = tiles_w * TILE_OUT + KERNEL - 1
    xp = np.pad(xp, ((0, 0), (0, 0),
                     (0, need_h - xp.shape[2]),
                     (0, need_w - xp.shape[3])))

    d = _tile_input(xp, tiles_h, tiles_w)          # (b,c,th,tw,4,4)
    # V = B^T d B per tile.
    V = np.einsum("ij,bcTWjk,lk->bcTWil", B_T, d, B_T, optimize=True)
    U = transform_filters(w)                        # (f,c,4,4)
    # Transform-domain contraction over channels (the batched GEMM of
    # a real Winograd kernel).
    M = np.einsum("fcil,bcTWil->bfTWil", U, V, optimize=True)
    # Y = A^T M A per tile.
    Y = np.einsum("ij,bfTWjk,lk->bfTWil", A_T, M, A_T, optimize=True)
    # Reassemble tiles and crop the ragged edge.
    y = Y.transpose(0, 1, 2, 4, 3, 5).reshape(
        b, f, tiles_h * TILE_OUT, tiles_w * TILE_OUT)[:, :, :oh, :ow]
    return add_bias(np.ascontiguousarray(y), bias)


def backward_input(dy: np.ndarray, w: np.ndarray, input_hw,
                   stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient w.r.t. the input (delegates to the direct adjoint —
    the standard practice before dedicated Winograd dgrad kernels)."""
    if stride != 1:
        raise ShapeError(f"Winograd convolution requires stride 1, got {stride}")
    if w.shape[2:] != (KERNEL, KERNEL):
        raise ShapeError(
            f"Winograd F(2x2,3x3) requires 3x3 kernels, got {w.shape[2:]}"
        )
    return _direct.backward_input(dy, w, input_hw, stride, padding)


def backward_weights(dy: np.ndarray, x: np.ndarray, kernel_hw,
                     stride: int = 1, padding: int = 0) -> np.ndarray:
    """Gradient w.r.t. the filters (direct adjoint)."""
    if stride != 1:
        raise ShapeError(f"Winograd convolution requires stride 1, got {stride}")
    if tuple(kernel_hw) != (KERNEL, KERNEL):
        raise ShapeError(
            f"Winograd F(2x2,3x3) requires 3x3 kernels, got {kernel_hw}"
        )
    return _direct.backward_weights(dy, x, kernel_hw, stride, padding)


def multiplication_reduction() -> float:
    """Arithmetic advantage of F(2x2, 3x3) over direct convolution:
    36 multiplies -> 16 per output tile."""
    direct_muls = (TILE_OUT * TILE_OUT) * (KERNEL * KERNEL)
    winograd_muls = TILE_IN * TILE_IN
    return direct_muls / winograd_muls


def forward_multiplies(b: int, c: int, f: int, oh: int, ow: int) -> int:
    """Transform-domain multiplies of one forward pass."""
    tiles = math.ceil(oh / TILE_OUT) * math.ceil(ow / TILE_OUT)
    return b * f * c * tiles * TILE_IN * TILE_IN
