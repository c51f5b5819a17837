"""Numerical convolution strategies.

The three strategies section II-B of the paper describes, implemented
with NumPy and validated against a naive reference:

* :mod:`~repro.conv.direct` — direct (sliding-window) convolution, the
  strategy of cuda-convnet2 and Theano-legacy;
* :mod:`~repro.conv.unrolled` — unrolling-based convolution
  (im2col + GEMM + col2im), the strategy of Caffe, Torch-cunn,
  Theano-CorrMM and cuDNN;
* :mod:`~repro.conv.fftconv` — FFT-based convolution (transform,
  pointwise complex product, inverse transform), the strategy of fbfft
  and Theano-fft.

All functions use the deep-learning convention: "convolution" is
cross-correlation (no kernel flip), tensors are NCHW ``float``/
``float32``, filters are ``(f, c, k, k)``.  Each strategy provides the
three passes of one training iteration: ``forward``,
``backward_input`` and ``backward_weights``.
"""

from .reference import conv2d_reference
from .direct import forward as direct_forward
from .direct import backward_input as direct_backward_input
from .direct import backward_weights as direct_backward_weights
from .unrolled import forward as unrolled_forward
from .unrolled import backward_input as unrolled_backward_input
from .unrolled import backward_weights as unrolled_backward_weights
from .fftconv import forward as fft_forward
from .fftconv import backward_input as fft_backward_input
from .fftconv import backward_weights as fft_backward_weights
from .im2col import im2col, col2im
from .winograd import forward as winograd_forward

__all__ = [
    "winograd_forward",
    "conv2d_reference",
    "direct_forward",
    "direct_backward_input",
    "direct_backward_weights",
    "unrolled_forward",
    "unrolled_backward_input",
    "unrolled_backward_weights",
    "fft_forward",
    "fft_backward_input",
    "fft_backward_weights",
    "im2col",
    "col2im",
]
