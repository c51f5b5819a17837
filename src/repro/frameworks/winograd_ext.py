"""Extension: a Winograd implementation on the device model.

The paper closes by pointing researchers at "convolution optimization
on GPUs"; the optimisation that landed next (cuDNN v5, 2016) was
Lavin & Gray's Winograd minimal filtering.  This adapter projects that
future onto the paper's K40c testbed: numerics via
:mod:`repro.conv.winograd`, and a kernel plan whose transform-domain
GEMM carries 1/2.25 of the direct multiplications for 3x3 stride-1
layers.

It deliberately is **not** part of the paper's seven (the registry
keeps it under :data:`EXTENSION_IMPLEMENTATIONS`): every Fig. 3-7
reproduction stays faithful, and the what-if analysis lives in
``benchmarks/bench_winograd_whatif.py`` / the examples.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from ..config import ConvConfig
from ..conv import winograd
from ..conv.winograd import TILE_IN, TILE_OUT, forward_multiplies
from ..gpusim.kernels import KernelRole, KernelSpec, LaunchConfig, grid_for
from ._plans import gemm_spec, pointwise_spec
from .base import ConvImplementation, Strategy
from .calibration import GEMM_CALIBRATION, ITEMSIZE, TABLE2_RESOURCES


class CuDNNWinograd(ConvImplementation):
    """Hypothetical cuDNN-v5-style Winograd F(2x2, 3x3) path."""

    name = "cudnn-winograd"
    paper_name = "cuDNN-Winograd (what-if)"
    framework = "Caffe"
    strategy = Strategy.UNROLLING  # transform-domain batched GEMM
    separate_gradient_buffers = True

    def check_config(self, config: ConvConfig) -> None:
        if config.kernel_size != 3:
            self._reject(
                f"Winograd F(2x2,3x3) requires 3x3 kernels, got "
                f"{config.kernel_size}")
        if config.stride != 1:
            self._reject(f"Winograd requires stride 1, got {config.stride}")

    # -- numerics -----------------------------------------------------------

    def forward(self, x, w, bias=None, stride=1, padding=0):
        return winograd.forward(x, w, bias, stride, padding)

    def backward_input(self, dy, w, input_hw, stride=1, padding=0):
        return winograd.backward_input(dy, w, input_hw, stride, padding)

    def backward_weights(self, dy, x, kernel_hw, stride=1, padding=0):
        return winograd.backward_weights(dy, x, kernel_hw, stride, padding)

    # -- performance --------------------------------------------------------

    def kernel_plan(self, config: ConvConfig) -> List[KernelSpec]:
        self.check_config(config)
        res = TABLE2_RESOURCES[self.name]
        cal = GEMM_CALIBRATION["cudnn"]
        b, i, f, k, _ = config.tuple5
        c = config.channels
        o = config.output_size
        tiles = math.ceil(o / TILE_OUT) ** 2

        x_bytes = float(b * c * i * i * ITEMSIZE)
        y_bytes = float(b * f * o * o * ITEMSIZE)
        # Transform-domain tensors: 16 values per tile and channel.
        v_bytes = float(b * c * tiles * TILE_IN * TILE_IN * ITEMSIZE)
        u_bytes = float(f * c * TILE_IN * TILE_IN * ITEMSIZE)
        m_bytes = float(b * f * tiles * TILE_IN * TILE_IN * ITEMSIZE)

        # Input/filter transforms: a handful of adds per element.
        in_transform = KernelSpec(
            name="winograd_input_transform",
            role=KernelRole.DATA_PREP,
            flops=v_bytes / ITEMSIZE * 8.0,
            gmem_read_bytes=x_bytes,
            gmem_write_bytes=v_bytes,
            launch=LaunchConfig(grid_for(int(v_bytes / ITEMSIZE), 256), 256),
            regs_per_thread=48,
            shared_per_block=4096,
            compute_efficiency=0.4,
            timing_bandwidth_fraction=0.8,
        )
        filter_transform = KernelSpec(
            name="winograd_filter_transform",
            role=KernelRole.DATA_PREP,
            flops=u_bytes / ITEMSIZE * 8.0,
            gmem_read_bytes=float(f * c * 9 * ITEMSIZE),
            gmem_write_bytes=u_bytes,
            launch=LaunchConfig(grid_for(max(f * c, 256), 256), 256),
            regs_per_thread=32,
            shared_per_block=0,
            compute_efficiency=0.3,
            timing_bandwidth_fraction=0.8,
        )
        # 16 independent batched GEMMs, one per transform-domain point:
        # (f x c) @ (c x b*tiles).  The multiply count is the 2.25x
        # reduction; a fused-multiply-add pipe cannot pair them, which
        # the per-element efficiency already reflects.
        per_pass_muls = forward_multiplies(b, c, f, o, o)
        gemm = gemm_spec("winograd_batched_gemm", res, cal,
                         m=f, n=b * tiles, k=c,
                         role=KernelRole.GEMM, shared_key="cudnn",
                         load_key="cudnn_load", store_key="cudnn_store")
        gemm = gemm.scaled(flops=3.0 * 2.0 * per_pass_muls,
                           gmem_read_bytes=(v_bytes + u_bytes) * 3.0,
                           gmem_write_bytes=m_bytes * 3.0)
        out_transform = KernelSpec(
            name="winograd_output_transform",
            role=KernelRole.POINTWISE,
            flops=m_bytes / ITEMSIZE * 6.0,
            gmem_read_bytes=m_bytes,
            gmem_write_bytes=y_bytes,
            launch=LaunchConfig(grid_for(int(m_bytes / ITEMSIZE), 256), 256),
            regs_per_thread=40,
            shared_per_block=4096,
            compute_efficiency=0.4,
            timing_bandwidth_fraction=0.8,
        )
        bias = pointwise_spec("winograd_add_bias", res, y_bytes)
        # Backward passes reuse the transforms (one extra input/output
        # transform pair each); modelled by the x3 on the GEMM plus one
        # more transform round.
        return [filter_transform, in_transform, gemm, out_transform, bias,
                in_transform.scaled(name="winograd_input_transform_bwd",
                                    repeats=2)]

    def workspace_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        b, i, f, k, _ = config.tuple5
        c = config.channels
        tiles = math.ceil(config.output_size / TILE_OUT) ** 2
        per_point = TILE_IN * TILE_IN * ITEMSIZE
        return [
            ("winograd_V", b * c * tiles * per_point),
            ("winograd_U", f * c * per_point),
            ("winograd_M", b * f * tiles * per_point),
        ]


#: Extension adapters — intentionally not in the paper's registry.
EXTENSION_IMPLEMENTATIONS = (CuDNNWinograd,)
