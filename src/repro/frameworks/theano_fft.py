"""Theano-fft adapter (``theano.sandbox.cuda.fftconv``).

Same mathematics as fbfft — "fbfft and Theano-fft share the similar
convolution strategy, but they present a clear difference in
performance" (section IV-B) — with the implementation pathologies the
paper's profiling pins down:

* **host-side data preparation and transfer** dominate its runtime
  (Fig. 4(g)): the graph pads/reshapes operands with generic Theano
  ops and round-trips activations through host memory each iteration;
* **bank conflicts**: its transpose/elementwise kernels use unpadded
  even strides — shared efficiency 8-20 % (Fig. 6, section V-C-3);
* **warp divergence**: control-flow-heavy generic kernels — WEE
  66-81 % (section V-C-4);
* **2 registers/thread** (Table II): no unrolling at all, so high
  occupancy (39-59 %) yet the worst performance — the paper's
  counter-example that occupancy does not imply speed;
* cuFFT-style 2/3/5/7-smooth transform sizes
  (:func:`~repro.conv.fftconv.fast_len`), so its memory fluctuates
  with kernel size in Fig. 5(d);
* stride must be 1, like every FFT convolution.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ConvConfig
from ..conv import fftconv
from ..gpusim.kernels import KernelRole, KernelSpec, LaunchConfig, grid_for
from ._plans import fft_spec, gemm_spec, transpose_spec
from .base import ConvImplementation, Strategy
from .calibration import (ACCESS_PATTERNS, DIVERGENCE, FFT_CALIBRATION,
                          ITEMSIZE, SHARED_PATTERNS, TABLE2_RESOURCES,
                          THEANO_FFT_CGEMM)
from .fft_model import iteration_workload


class TheanoFft(ConvImplementation):
    """Theano's conv2d_fft."""

    name = "theano-fft"
    paper_name = "Theano-fft"
    framework = "Theano"
    strategy = Strategy.FFT
    separate_gradient_buffers = True

    def check_config(self, config: ConvConfig) -> None:
        if config.stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {config.stride}")

    # -- numerics -----------------------------------------------------------

    def forward(self, x, w, bias=None, stride=1, padding=0):
        if stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {stride}")
        return fftconv.forward(x, w, bias, stride, padding, pow2=False)

    def backward_input(self, dy, w, input_hw, stride=1, padding=0):
        if stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {stride}")
        return fftconv.backward_input(dy, w, input_hw, stride, padding, pow2=False)

    def backward_weights(self, dy, x, kernel_hw, stride=1, padding=0):
        if stride != 1:
            self._reject(f"FFT convolution requires stride 1, got {stride}")
        return fftconv.backward_weights(dy, x, kernel_hw, stride, padding, pow2=False)

    # -- performance --------------------------------------------------------

    def kernel_plan(self, config: ConvConfig) -> List[KernelSpec]:
        self.check_config(config)
        res = TABLE2_RESOURCES[self.name]
        cal = FFT_CALIBRATION[self.name]
        work = iteration_workload(cal, config)
        b, i, f, k, _ = config.tuple5
        c = config.channels

        spectra_bytes = float(work.spectrum_bytes) / cal.buffer_residency
        x_bytes = float(b * c * i * i * ITEMSIZE)
        y_bytes = float(b * f * config.output_size ** 2 * ITEMSIZE)

        # Generic zero-padding / reshaping elementwise graph ops — the
        # "data preparation" block of Fig. 4(g).  Theano materialises a
        # fresh intermediate for every pad/reshape/dimshuffle node, so
        # each pass rewrites the padded operands *and* copies the
        # spectra once more.
        pad_bytes = float(
            3 * (b * c + f * c) * work.transform_n ** 2 * ITEMSIZE
            + 4.0 * spectra_bytes)
        prep = KernelSpec(
            name="GpuElemwise_pad_and_reshape",
            role=KernelRole.DATA_PREP,
            flops=pad_bytes / ITEMSIZE,
            gmem_read_bytes=pad_bytes,
            gmem_write_bytes=pad_bytes,
            launch=LaunchConfig(grid_blocks=grid_for(int(pad_bytes / ITEMSIZE), 128),
                                block_threads=res.block_threads),
            regs_per_thread=res.registers_per_thread,
            shared_per_block=res.shared_per_block,
            compute_efficiency=0.15,
            load_pattern=ACCESS_PATTERNS["theano_fft_load"],
            store_pattern=ACCESS_PATTERNS["theano_fft_store"],
            shared_accesses=SHARED_PATTERNS["theano-fft"],
            divergence=DIVERGENCE["theano-fft"],
            shared_traffic_bytes=pad_bytes,
        )

        fwd = fft_spec("cufft_r2c_radix", res,
                       flops=work.fft_flops / 2.0, nbytes=spectra_bytes,
                       transforms=work.forward_transforms,
                       efficiency=cal.efficiency,
                       load_key="theano_fft_load", store_key="theano_fft_store",
                       shared_key="theano-fft", divergence_key="theano-fft")
        inv = fft_spec("cufft_c2r_radix", res,
                       flops=work.fft_flops / 2.0, nbytes=spectra_bytes,
                       transforms=work.inverse_transforms,
                       efficiency=cal.efficiency, inverse=True,
                       load_key="theano_fft_load", store_key="theano_fft_store",
                       shared_key="theano-fft", divergence_key="theano-fft")
        cgemm = gemm_spec("GpuBatchedDot_complex", res, THEANO_FFT_CGEMM,
                          b, f, c, role=KernelRole.CGEMM,
                          shared_key="theano-fft",
                          load_key="theano_fft_load",
                          store_key="theano_fft_store",
                          divergence_key="theano-fft", complex_=True)
        cgemm = cgemm.scaled(flops=work.cgemm_flops,
                             gmem_read_bytes=spectra_bytes,
                             gmem_write_bytes=spectra_bytes / 3.0)
        trans = transpose_spec("GpuDimShuffle_transpose", res,
                               work.transpose_bytes / 2.0,
                               shared_key="theano-fft",
                               divergence_key="theano-fft",
                               timing_fraction=0.3, repeats=2)
        return [prep, fwd, trans, cgemm, inv]

    def workspace_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        cal = FFT_CALIBRATION[self.name]
        work = iteration_workload(cal, config)
        b, i, f, k, _ = config.tuple5
        c = config.channels
        padded = (b * c + f * c) * work.transform_n ** 2 * ITEMSIZE
        return [
            ("frequency_spectra", work.spectrum_bytes),
            ("padded_operands", padded),
        ]

    def transfer_ops(self, config: ConvConfig):
        """Theano keeps graph inputs host-resident: beyond loading the
        batch it round-trips the activations every iteration."""
        from ..gpusim.transfer import TransferKind
        from .base import TransferOp

        ops = super().transfer_ops(config)
        b, i, f, _, _ = config.tuple5
        y_bytes = b * f * config.output_size ** 2 * ITEMSIZE
        ops.append(TransferOp(kind=TransferKind.D2H, bytes=y_bytes,
                              pinned=False, async_=False,
                              label="output copy-back"))
        return ops
