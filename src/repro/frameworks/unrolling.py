"""Shared adapter for the explicit-unrolling implementations.

Caffe, Torch-cunn and Theano-CorrMM all follow the same structure the
paper's Fig. 4(a-c) shows: per image, an ``im2col`` gather, one cuBLAS
GEMM per pass, and a ``col2im`` scatter on the backward-input path —
GEMM taking ~80-87 % of the runtime.  They differ in GEMM calibration,
buffer policy and kernel naming, which the three concrete subclasses
pin down.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ConvConfig
from ..conv import unrolled
from ..gpusim.kernels import KernelSpec
from ._plans import col2im_spec, gemm_spec, im2col_spec, pointwise_spec
from .base import ConvImplementation, Strategy
from .calibration import GEMM_CALIBRATION, ITEMSIZE, TABLE2_RESOURCES


class UnrollingImplementation(ConvImplementation):
    """im2col + GEMM + col2im, one image at a time."""

    strategy = Strategy.UNROLLING

    #: Kernel names (overridden to match each framework's symbols).
    gemm_kernel = "sgemm"
    im2col_kernel = "im2col_gpu_kernel"
    col2im_kernel = "col2im_gpu_kernel"

    # -- numerics --------------------------------------------------------

    def forward(self, x, w, bias=None, stride=1, padding=0):
        return unrolled.forward(x, w, bias, stride, padding)

    def backward_input(self, dy, w, input_hw, stride=1, padding=0):
        return unrolled.backward_input(dy, w, input_hw, stride, padding)

    def backward_weights(self, dy, x, kernel_hw, stride=1, padding=0):
        return unrolled.backward_weights(dy, x, kernel_hw, stride, padding)

    # -- performance --------------------------------------------------------

    def _gemm_dims(self, config: ConvConfig) -> Tuple[int, int, int]:
        """(m, n, k) of the per-image forward GEMM:
        ``(f) x (c*k^2) @ (c*k^2) x (o^2)``."""
        f = config.filters
        ck2 = config.channels * config.kernel_size ** 2
        o2 = config.output_size ** 2
        return f, o2, ck2

    def _col_bytes(self, config: ConvConfig) -> int:
        ck2 = config.channels * config.kernel_size ** 2
        return ck2 * config.output_size ** 2 * ITEMSIZE

    def kernel_plan(self, config: ConvConfig) -> List[KernelSpec]:
        self.check_config(config)
        res = TABLE2_RESOURCES[self.name]
        cal = GEMM_CALIBRATION[self.name]
        b = config.batch
        m, n, k = self._gemm_dims(config)
        col = float(self._col_bytes(config))
        image = float(config.channels * config.input_size ** 2 * ITEMSIZE)
        out_bytes = float(config.batch * config.filters
                          * config.output_size ** 2 * ITEMSIZE)

        plan = [
            # forward: unroll + y = W @ col
            im2col_spec(self.im2col_kernel, res, col, image, repeats=b),
            gemm_spec(f"{self.gemm_kernel}_fwd", res, cal, m, n, k, repeats=b),
            pointwise_spec("add_bias", res, out_bytes),
            # backward input: dcol = W^T @ dy, then fold
            gemm_spec(f"{self.gemm_kernel}_bgrad", res, cal, k, n, m, repeats=b),
            col2im_spec(self.col2im_kernel, res, col, image, repeats=b),
            # backward weights: dW += dy @ col^T (im2col recomputed)
            im2col_spec(self.im2col_kernel, res, col, image, repeats=b),
            gemm_spec(f"{self.gemm_kernel}_wgrad", res, cal, m, k, n, repeats=b),
        ]
        return plan

    def workspace_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        """One column buffer, reused image-by-image."""
        return [("col_buffer", self._col_bytes(config))]


class Caffe(UnrollingImplementation):
    """Caffe's spatial convolution (Jia et al. 2014).

    Separate data/diff blobs double the activation footprint — the
    ~3.8 GB ceiling of Fig. 5 — and a background prefetch thread hides
    the input transfer (Fig. 7 shows ~0 %)."""

    name = "caffe"
    paper_name = "Caffe"
    framework = "Caffe"
    separate_gradient_buffers = True
    gemm_kernel = "sgemm"
    im2col_kernel = "im2col_gpu_kernel"
    col2im_kernel = "col2im_gpu_kernel"


class TorchCunn(UnrollingImplementation):
    """Torch's cunn SpatialConvolutionMM.

    Shares gradient storage with the activations (in-place
    accumulation), making it the leanest unrolling implementation in
    Fig. 5 (170 MB - 2.1 GB)."""

    name = "torch-cunn"
    paper_name = "Torch-cunn"
    framework = "Torch"
    separate_gradient_buffers = False
    gemm_kernel = "sgemm"
    im2col_kernel = "im2col_kernel"
    col2im_kernel = "col2im_kernel"


class TheanoCorrMM(UnrollingImplementation):
    """Theano's GpuCorrMM op.

    Plain cuBLAS GEMM with a slightly higher large-matrix asymptote
    than its peers — it edges out cuDNN beyond ~160 filters in
    Fig. 3(c) — but Theano's host-resident graph execution stages the
    unrolled buffer through the host when it outgrows the workspace,
    producing the Conv2 transfer anomaly of Fig. 7."""

    name = "theano-corrmm"
    paper_name = "Theano-CorrMM"
    framework = "Theano"
    separate_gradient_buffers = True
    gemm_kernel = "sgemm"
    im2col_kernel = "im2col_kernel"
    col2im_kernel = "col2im_kernel"

    def transfer_ops(self, config: ConvConfig):
        from ..gpusim.transfer import TransferKind
        from .base import TransferOp
        from .calibration import TRANSFER_BEHAVIOUR

        ops = super().transfer_ops(config)
        beh = TRANSFER_BEHAVIOUR[self.name]
        full_col = self._col_bytes(config) * config.batch
        # Colour inputs (c <= 3) take CorrMM's fused small-channel path
        # and never batch the unroll; the staging fallback only exists
        # on the generic multi-channel path.  Among every configuration
        # the paper tests, only Table I's Conv2 trips this — the >60 %
        # Fig. 7 anomaly.
        multi_channel = config.channels >= 16
        if (beh.host_staging_threshold and multi_channel
                and full_col > beh.host_staging_threshold):
            # Full-batch unrolled buffer exceeds the device workspace:
            # stage it through host memory, one chunk per image.
            ops.append(TransferOp(
                kind=TransferKind.D2H, bytes=full_col // 2,
                pinned=False, async_=False, chunks=config.batch,
                label="col host staging (out)"))
            ops.append(TransferOp(
                kind=TransferKind.H2D, bytes=full_col // 2,
                pinned=False, async_=False, chunks=config.batch,
                label="col host staging (in)"))
        return ops
