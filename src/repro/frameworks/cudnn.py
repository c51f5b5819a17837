"""cuDNN v3 adapter.

cuDNN performs the unrolling *implicitly*: receptive fields are
gathered into shared-memory tiles inside the GEMM kernel itself, so no
column buffer ever touches global memory (section V-A's analysis of
the ``wgrad_alg0_engine`` and ``cudnn_gemm`` hotspots).  Consequences
modelled here:

* one batched GEMM per pass over all images (N = b * o^2), far better
  tile utilisation than the per-image loops of Caffe/Torch/CorrMM;
* top kernels run almost entirely out of shared memory with wide
  8-byte accesses (shared efficiency >100 % in Fig. 6) and their
  global-access efficiency reads low because little global traffic is
  *requested* at all;
* a modest workspace (staging + precomputed indices) instead of the
  column buffer, but dedicated gradient buffers — net memory sits at
  the top of the unrolling family in Fig. 5.
"""

from __future__ import annotations

from typing import List, Tuple

from ..config import ConvConfig
from ..conv import unrolled
from ..gpusim.kernels import KernelRole, KernelSpec, LaunchConfig, grid_for
from ._plans import gemm_spec, pointwise_spec
from .base import ConvImplementation, Strategy
from .calibration import (ACCESS_PATTERNS, DIVERGENCE, GEMM_CALIBRATION,
                          ITEMSIZE, TABLE2_RESOURCES)


class CuDNN(ConvImplementation):
    """cuDNN v3 (evaluated inside Caffe, as in the paper)."""

    name = "cudnn"
    paper_name = "cuDNN"
    framework = "Caffe"
    strategy = Strategy.UNROLLING
    separate_gradient_buffers = True

    # -- numerics: same mathematics as explicit unrolling ---------------

    def forward(self, x, w, bias=None, stride=1, padding=0):
        return unrolled.forward(x, w, bias, stride, padding)

    def backward_input(self, dy, w, input_hw, stride=1, padding=0):
        return unrolled.backward_input(dy, w, input_hw, stride, padding)

    def backward_weights(self, dy, x, kernel_hw, stride=1, padding=0):
        return unrolled.backward_weights(dy, x, kernel_hw, stride, padding)

    # -- performance --------------------------------------------------------

    def _implicit_gemm_spec(self, config: ConvConfig, name: str,
                            m: int, n: int, k: int,
                            role: KernelRole = KernelRole.GEMM) -> KernelSpec:
        res = TABLE2_RESOURCES[self.name]
        cal = GEMM_CALIBRATION[self.name]
        spec = gemm_spec(name, res, cal, m, n, k, role=role,
                         shared_key="cudnn", load_key="cudnn_load",
                         store_key="cudnn_store")
        # Implicit unrolling: global traffic is just the real tensors,
        # not the virtual column matrix.
        x_bytes = float(config.batch * config.channels
                        * config.input_size ** 2 * ITEMSIZE)
        w_bytes = float(config.weight_shape[0] * config.weight_shape[1]
                        * config.kernel_size ** 2 * ITEMSIZE)
        y_bytes = float(config.batch * config.filters
                        * config.output_size ** 2 * ITEMSIZE)
        return spec.scaled(gmem_read_bytes=x_bytes + w_bytes,
                           gmem_write_bytes=y_bytes)

    def kernel_plan(self, config: ConvConfig) -> List[KernelSpec]:
        self.check_config(config)
        res = TABLE2_RESOURCES[self.name]
        b = config.batch
        f = config.filters
        ck2 = config.channels * config.kernel_size ** 2
        o2 = config.output_size ** 2
        y_bytes = float(b * f * o2 * ITEMSIZE)

        # Small index-precomputation kernels run on global memory with
        # poor patterns — they are what pulls cuDNN's *aggregate* gld
        # efficiency down in Fig. 6 even though the GEMM kernels barely
        # touch global memory.
        precompute = KernelSpec(
            name="cudnn_precomputed_convolve_setup",
            role=KernelRole.DATA_PREP,
            flops=0.0,
            gmem_read_bytes=float(b * config.channels
                                  * config.input_size ** 2 * ITEMSIZE) * 0.15,
            gmem_write_bytes=float(o2 * ck2) * 0.05,
            launch=LaunchConfig(grid_blocks=grid_for(o2, 256), block_threads=256),
            regs_per_thread=32,
            shared_per_block=0,
            compute_efficiency=0.3,
            load_pattern=ACCESS_PATTERNS["im2col_load"],
            store_pattern=ACCESS_PATTERNS["im2col_store"],
            divergence=DIVERGENCE["default"],
            timing_bandwidth_fraction=0.5,
        )

        return [
            precompute,
            # forward: one implicit GEMM over the whole batch.
            self._implicit_gemm_spec(config, "cudnn_gemm_fwd", f, b * o2, ck2),
            pointwise_spec("cudnn_add_bias", res, y_bytes),
            # backward input.
            self._implicit_gemm_spec(config, "cudnn_gemm_bgrad", ck2, b * o2, f),
            # backward weights: the wgrad_alg0_engine of Fig. 4(d).
            self._implicit_gemm_spec(config, "wgrad_alg0_engine",
                                     f, ck2, b * o2),
        ]

    def workspace_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        """IMPLICIT_PRECOMP_GEMM workspace: precomputed offsets plus a
        tile-staging area — a slice of the virtual column matrix, far
        smaller than the explicit buffer but not free (cuDNN "consumes
        more memory than other unrolling-based implementations to
        achieve a better performance", section V-B)."""
        ck2 = config.channels * config.kernel_size ** 2
        o2 = config.output_size ** 2
        indices = o2 * ck2 // 8
        staging = ck2 * o2 * ITEMSIZE  # one image worth of columns
        return [("cudnn_workspace", indices + 2 * staging)]
