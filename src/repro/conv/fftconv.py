"""FFT-based convolution.

Section II-B's third strategy, used by fbfft and Theano-fft: transform
inputs and filters to the Fourier domain, multiply pointwise (a batch
of small complex GEMMs over frequencies), transform back.  Because the
spatial convolution is a *correlation* in CNN convention, the filter
spectrum enters conjugated.

Geometry: for a valid correlation of an ``i x i`` input with a
``k x k`` filter, a transform size ``n >= i`` suffices (no circular
wrap-around touches the first ``o = i - k + 1`` outputs).  The
backward-input pass is a full convolution whose result length is
exactly ``i``, so the same ``n`` works for all three passes — one
reason FFT implementations keep every operand padded to a common
transform size.  Like the real fbfft, transform sizes round up to a
cheap FFT length (:func:`fast_len`: powers of two for fbfft, the cause
of the Fig. 5 memory fluctuations, else cuFFT's 2/3/5/7-smooth
lengths).  The performance model
(:mod:`repro.frameworks.fft_model`) charges transforms of the same
sizes through the same function.

Stride: FFT convolution computes every output position, so strides
other than 1 are rejected — the shape limitation of Fig. 3(e).
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from ..errors import ShapeError
from .common import add_bias, check_conv_args, pad_input, unpad_input


def _check_stride(stride: int) -> None:
    if stride != 1:
        raise ShapeError(
            f"FFT-based convolution only supports stride 1, got {stride}"
        )


def fast_len(n: int, pow2: bool = False) -> int:
    """Smallest cheap FFT length >= ``n``: the next power of two with
    ``pow2`` (fbfft), else the next 2/3/5/7-smooth length (cuFFT's
    fast radices, used by Theano-fft)."""
    if pow2:
        return 1 << (n - 1).bit_length()
    while True:
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def transform_size(input_size: int, kernel_size: int,
                   pow2: bool = False) -> int:
    """FFT size used for an ``i x i`` input and ``k x k`` kernel."""
    if input_size <= 0 or kernel_size <= 0:
        raise ShapeError("sizes must be positive")
    if kernel_size > input_size:
        raise ShapeError(
            f"kernel {kernel_size} larger than input {input_size}"
        )
    return fast_len(input_size, pow2)


# ---------------------------------------------------------------------------
# rfft2 plan workspaces
#
# ``rfft2(x, s=(n, n))`` allocates a fresh (n, n)-padded staging buffer
# on every call; a training step calls it with the same handful of
# operand shapes over and over (input, filter and gradient spectra of
# the three passes).  The workspaces are cached per (operand shape,
# transform size, dtype) — the pad geometry — so repeated FFT-strategy
# calls reuse the scratch instead of re-allocating it.  Zero-filling a
# cached buffer and transforming it is numerically identical to the
# ``s=`` padding path.
#
# The cache is process-wide; the lock only guards the dict (the
# numeric conv layer runs single-threaded, and the analytic model never
# calls this).
# ---------------------------------------------------------------------------

_WS_LOCK = threading.Lock()
_WORKSPACES: Dict[tuple, np.ndarray] = {}


def _spectra(x: np.ndarray, n: int) -> np.ndarray:
    """2-D real FFT of the last two axes, zero-padded to (n, n)."""
    h, w = x.shape[-2:]
    if h == n and w == n:
        return np.fft.rfft2(x)
    key = (x.shape, n, x.dtype.str)
    with _WS_LOCK:
        buf = _WORKSPACES.get(key)
        if buf is None:
            buf = np.zeros(x.shape[:-2] + (n, n), dtype=x.dtype)
            _WORKSPACES[key] = buf
    # The buffer never escapes this function, and only the operand
    # region is ever written, so the pad region stays zero across
    # reuses — no re-clearing needed.
    buf[..., :h, :w] = x
    return np.fft.rfft2(buf)


def forward(x: np.ndarray, w: np.ndarray, bias=None,
            stride: int = 1, padding: int = 0,
            pow2: bool = False) -> np.ndarray:
    """FFT forward pass (valid cross-correlation)."""
    _check_stride(stride)
    oh, ow = check_conv_args(x, w, stride, padding)
    xp = pad_input(x, padding)
    ih = xp.shape[2]
    k = w.shape[2]
    if w.shape[2] != w.shape[3] or xp.shape[2] != xp.shape[3]:
        raise ShapeError("FFT strategy expects square inputs and kernels")
    n = transform_size(ih, k, pow2=pow2)

    xf = _spectra(xp, n)                       # (b, c, n, nf)
    wf = _spectra(w, n)                        # (f, c, n, nf)
    # Pointwise over frequencies, contracted over channels: the
    # batched CGEMM of fbfft.  conj(wf) turns convolution into
    # correlation.
    yf = np.einsum("bcxy,fcxy->bfxy", xf, np.conj(wf), optimize=True)
    y = np.fft.irfft2(yf, s=(n, n))[:, :, :oh, :ow]
    y = np.ascontiguousarray(y.astype(np.result_type(x, w), copy=False))
    return add_bias(y, bias)


def backward_input(dy: np.ndarray, w: np.ndarray, input_hw: Tuple[int, int],
                   stride: int = 1, padding: int = 0,
                   pow2: bool = False) -> np.ndarray:
    """Gradient w.r.t. the input: a full *convolution* of ``dy`` with
    the filters (no conjugate), cropped to the input size."""
    _check_stride(stride)
    ih, iw = input_hw
    if ih != iw:
        raise ShapeError("FFT strategy expects square inputs")
    k = w.shape[2]
    ph = ih + 2 * padding
    n = transform_size(ph, k, pow2=pow2)

    dyf = _spectra(dy, n)                      # (b, f, n, nf)
    wf = _spectra(w, n)                        # (f, c, n, nf)
    dxf = np.einsum("bfxy,fcxy->bcxy", dyf, wf, optimize=True)
    dxp = np.fft.irfft2(dxf, s=(n, n))[:, :, :ph, :ph]
    dxp = dxp.astype(np.result_type(dy, w), copy=False)
    return np.ascontiguousarray(unpad_input(dxp, padding))


def backward_weights(dy: np.ndarray, x: np.ndarray, kernel_hw: Tuple[int, int],
                     stride: int = 1, padding: int = 0,
                     pow2: bool = False) -> np.ndarray:
    """Gradient w.r.t. the filters: valid correlation of the input with
    the output gradient, cropped to ``k x k``."""
    _check_stride(stride)
    kh, kw = kernel_hw
    if kh != kw:
        raise ShapeError("FFT strategy expects square kernels")
    xp = pad_input(x, padding)
    ih = xp.shape[2]
    n = transform_size(ih, kh, pow2=pow2)

    xf = _spectra(xp, n)                       # (b, c, n, nf)
    dyf = _spectra(dy, n)                      # (b, f, n, nf)
    dwf = np.einsum("bcxy,bfxy->fcxy", xf, np.conj(dyf), optimize=True)
    dw = np.fft.irfft2(dwf, s=(n, n))[:, :, :kh, :kw]
    return np.ascontiguousarray(dw.astype(np.result_type(dy, x), copy=False))


def backward_bias(dy: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the per-filter bias."""
    return dy.sum(axis=(0, 2, 3))
