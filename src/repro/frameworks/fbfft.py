"""fbfft adapter (Vasilache et al., ICLR 2015).

Facebook's FFT convolution, the overall fastest implementation in the
paper's sweeps.  The Fig. 4(f) pipeline is modelled kernel by kernel:

1. ``decimateInFrequency`` — DIF FFTs of inputs and filters
   (spatial -> Fourier);
2. ``transpose`` — BDHW -> HWBD so frequencies are contiguous for the
   batched complex GEMM;
3. ``Cgemm`` — per-frequency (b x c) @ (c x f) complex products;
4. ``transpose`` back and ``decimateInFrequencyInverse``.

Transform sizes round up to powers of two (the memory fluctuations of
Fig. 5(b)), and all frequency-domain buffer sets for the three passes
stay resident — the 1.6-10.9 GB appetite of Fig. 5.  Stride must be 1
(Fig. 3(e) plots fbfft as a single point).
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ConvConfig
from ..conv import fftconv
from ..gpusim.kernels import KernelRole, KernelSpec, LaunchConfig
from ._plans import fft_spec, gemm_spec, transpose_spec
from .base import ConvImplementation, Strategy
from .calibration import FBFFT_CGEMM, FFT_CALIBRATION, TABLE2_RESOURCES
from .fft_model import iteration_workload

#: fbfft pre-allocates a buffer pool for spectra and cuFFT-free plans;
#: this floor reproduces the ~1.6 GB minimum footprint of Fig. 5.
_BUFFER_POOL_BYTES = 1200 * 2**20


class Fbfft(ConvImplementation):
    """fbfft inside Torch, as benchmarked by the paper."""

    name = "fbfft"
    paper_name = "fbfft"
    framework = "Torch"
    strategy = Strategy.FFT
    separate_gradient_buffers = False

    def check_config(self, config: ConvConfig) -> None:
        if config.stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {config.stride}")

    # -- numerics -----------------------------------------------------------

    def forward(self, x, w, bias=None, stride=1, padding=0):
        if stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {stride}")
        return fftconv.forward(x, w, bias, stride, padding, pow2=True)

    def backward_input(self, dy, w, input_hw, stride=1, padding=0):
        if stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {stride}")
        return fftconv.backward_input(dy, w, input_hw, stride, padding, pow2=True)

    def backward_weights(self, dy, x, kernel_hw, stride=1, padding=0):
        if stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {stride}")
        return fftconv.backward_weights(dy, x, kernel_hw, stride, padding, pow2=True)

    # -- performance --------------------------------------------------------

    def kernel_plan(self, config: ConvConfig) -> List[KernelSpec]:
        self.check_config(config)
        res = TABLE2_RESOURCES[self.name]
        cal = FFT_CALIBRATION[self.name]
        work = iteration_workload(cal, config)
        b, _, f, _, _ = config.tuple5
        c = config.channels

        spectra_bytes = float(work.spectrum_bytes) / cal.buffer_residency

        fwd = fft_spec("decimateInFrequency", res,
                       flops=work.fft_flops / 2.0,
                       nbytes=spectra_bytes,
                       transforms=work.forward_transforms,
                       efficiency=cal.efficiency)
        inv = fft_spec("decimateInFrequencyInverse", res,
                       flops=work.fft_flops / 2.0,
                       nbytes=spectra_bytes,
                       transforms=work.inverse_transforms,
                       efficiency=cal.efficiency, inverse=True)
        # Per-frequency complex GEMM, batched over all bins and the
        # three passes; modelled as one launch with the per-bin shape.
        cgemm = gemm_spec("Cgemm", res, FBFFT_CGEMM, b, f, c,
                          role=KernelRole.CGEMM,
                          shared_key="fbfft", load_key="fbfft_load",
                          store_key="fbfft_store", complex_=True)
        cgemm = cgemm.scaled(flops=work.cgemm_flops,
                             gmem_read_bytes=spectra_bytes,
                             gmem_write_bytes=spectra_bytes / 3.0)
        # fbfft fuses half the layout shuffling into the FFT kernels'
        # shared-memory stages; only the BDHW <-> HWBD halves around
        # the CGEMM remain as standalone transposes.
        trans = transpose_spec("transpose", res, work.transpose_bytes / 4.0,
                               shared_key="fbfft", timing_fraction=0.85,
                               repeats=2)
        # Twiddle-factor / bit-reversal table preparation: O(n^2) work
        # per transform plan, independent of batch content.  This is
        # the fixed cost that keeps small kernels on cuDNN's side of
        # the Fig. 3(d) crossover.
        n2 = float(work.transform_n ** 2)
        setup = KernelSpec(
            name="fbfft_plan_setup",
            role=KernelRole.OTHER,
            flops=n2 * (b + f) * 4.0,
            gmem_read_bytes=n2 * (b + f) * 6.0,
            gmem_write_bytes=n2 * (b + f) * 6.0,
            launch=LaunchConfig(grid_blocks=max((b + f) // 4, 1),
                                block_threads=res.block_threads),
            regs_per_thread=32,
            shared_per_block=0,
            compute_efficiency=0.3,
            timing_bandwidth_fraction=0.15,
        )
        return [setup, fwd, trans, cgemm, inv]

    def workspace_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        cal = FFT_CALIBRATION[self.name]
        work = iteration_workload(cal, config)
        return [
            ("frequency_spectra", work.spectrum_bytes),
            ("buffer_pool", _BUFFER_POOL_BYTES),
        ]
