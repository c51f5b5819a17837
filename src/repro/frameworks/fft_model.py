"""FFT work and memory model for the FFT-based implementations.

Counts the transforms, FLOPs and frequency-domain buffer sizes of one
training iteration of the FFT strategy (section II-B step structure:
transform inputs and filters, pointwise complex product, inverse
transform), given a transform-size rule (powers of two for fbfft,
next-fast-len composites for cuFFT/Theano-fft).

Key consequences the paper observes, and which fall out of this
arithmetic:

* runtime is nearly independent of kernel size — only the (tiny)
  filter transforms see ``k`` (Fig. 3(d), "the runtime of fbfft tends
  to be a constant value");
* memory explodes: three complex spectra of the *padded* size must
  live at once, b*c + f*c + b*f transforms (the 1.6-10.9 GB of
  Fig. 5), and the pow-2 rule makes the footprint jump discontinuously
  with input size (the "dramatic fluctuations" of Fig. 5(b)/(d)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import ConvConfig
from ..conv.fftconv import fast_len
from .calibration import COMPLEX_ITEMSIZE, FftCalibration


def transform_size(cal: FftCalibration, padded_input: int) -> int:
    """Transform size for a padded input of the given spatial size.

    A valid correlation needs ``n >= i`` (no wrap-around reaches the
    first ``o`` outputs); fbfft rounds to the next power of two, cuFFT
    to the next 2/3/5/7-smooth length — the rule the numerics
    (:func:`repro.conv.fftconv.fast_len`) transform at.
    """
    if padded_input <= 0:
        raise ValueError(f"padded_input must be positive, got {padded_input}")
    return fast_len(padded_input, cal.pow2_padding)


def fft2_flops(n: int) -> float:
    """FLOPs of one 2-D real-to-complex FFT of size n x n.

    A complex n-point FFT costs ~5 n log2 n; a 2-D transform is 2n
    1-D transforms; the real-to-complex optimisation halves it.  A
    1-point transform is the identity and costs nothing.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return 5.0 * n * n * math.log2(n * n) / 2.0


@dataclass(frozen=True)
class FftWorkload:
    """Transforms / FLOPs / bytes of one training iteration."""

    transform_n: int
    freq_bins: int
    forward_transforms: int
    inverse_transforms: int
    fft_flops: float
    cgemm_flops: float
    spectrum_bytes: int  # all resident frequency-domain buffers
    transpose_bytes: float  # layout shuffles around the CGEMM


def iteration_workload(cal: FftCalibration, config: ConvConfig) -> FftWorkload:
    """Work of forward + backward-input + backward-weights.

    Spectra computed per iteration (input, filter and output-gradient
    spectra are each reused by two of the three passes, as fbfft does):

    * input spectra:    b*c transforms
    * filter spectra:   f*c transforms
    * output spectra:   b*f  (inverse, forward result)
    * dy spectra:       b*f  (forward transform of the gradient)
    * dx spectra:       b*c  (inverse)
    * dw spectra:       f*c  (inverse)
    """
    b, i, f, k, s = config.tuple5
    c = config.channels
    padded = i + 2 * config.padding
    if cal.full_pad:
        padded += k - 1
    n = transform_size(cal, padded)
    freq = n * (n // 2 + 1)  # real-to-complex bins

    fwd_t = b * c + f * c + b * f
    inv_t = b * f + b * c + f * c
    flops_fft = (fwd_t + inv_t) * fft2_flops(n)

    # One complex (b x c) @ (c x f)-shaped contraction per frequency
    # bin and per pass; 8 real FLOPs per complex MAC.
    cgemm = 3 * 8.0 * b * f * c * freq

    spectra_elems = (b * c + f * c + b * f) * freq
    spectrum = int(spectra_elems * COMPLEX_ITEMSIZE * cal.buffer_residency)

    # BDHW <-> HWBD transposes before and after each CGEMM (Fig. 4(f)):
    # each moves the input and output spectra once per pass.
    transpose = 3 * 2.0 * (b * c + b * f) * freq * COMPLEX_ITEMSIZE

    return FftWorkload(
        transform_n=n,
        freq_bins=freq,
        forward_transforms=fwd_t,
        inverse_transforms=inv_t,
        fft_flops=flops_fft,
        cgemm_flops=cgemm,
        spectrum_bytes=spectrum,
        transpose_bytes=transpose,
    )
