"""Framework-implementation interface.

Each of the seven implementations the paper benchmarks is modelled as a
:class:`ConvImplementation` with three faces:

* **numerics** — ``forward`` / ``backward_input`` / ``backward_weights``
  delegate to the matching strategy in :mod:`repro.conv` (with the
  implementation's native tensor layout round-trips), so every adapter
  computes real, reference-checked convolutions;
* **shape constraints** — ``check_config`` raises
  :class:`~repro.errors.UnsupportedConfigError` exactly where section
  IV-B reports a restriction (cuda-convnet2's square/multiple rules,
  stride 1 for the FFT pair);
* **performance** — ``kernel_plan`` emits the implementation's kernel
  launches (named as in Fig. 4) for one training iteration,
  ``memory_plan`` its peak-resident device buffers (Fig. 5), and
  ``transfer_ops`` its host<->device traffic (Fig. 7).  The
  :mod:`repro.gpusim` substrate turns those into runtimes, metrics and
  footprints.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ConvConfig
from ..errors import UnsupportedConfigError
from ..gpusim.allocator import replay
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.kernels import KernelSpec
from ..gpusim.profiler import Profiler
from ..gpusim.transfer import TransferKind, exposed_transfer_time
from .calibration import CONTEXT_BYTES, ITEMSIZE, TABLE2_RESOURCES


class Strategy(Enum):
    """The three convolution strategies of section II-B."""

    DIRECT = "direct"
    UNROLLING = "unrolling"
    FFT = "fft"


@dataclass(frozen=True)
class TransferOp:
    """One host<->device copy per training iteration."""

    kind: TransferKind
    bytes: int
    pinned: bool
    async_: bool
    chunks: int = 1
    label: str = ""


@dataclass(frozen=True)
class IterationProfile:
    """Simulated cost of one training iteration (fwd + both bwd)."""

    implementation: str
    config: ConvConfig
    profiler: Profiler
    gpu_time_s: float
    transfer_time_s: float       # raw copy time
    exposed_transfer_s: float    # the part that extends the iteration
    total_time_s: float


class ConvImplementation(abc.ABC):
    """Base class for the seven benchmarked implementations."""

    #: Registry key / short name (e.g. ``"cudnn"``).
    name: str = ""
    #: Name as printed in the paper's figures.
    paper_name: str = ""
    #: Hosting framework in the paper's test setup.
    framework: str = ""
    strategy: Strategy

    #: Gradients get dedicated device buffers (Caffe-style blobs with
    #: separate diff storage) rather than reusing activation buffers
    #: in place (Torch / cuda-convnet2).  Drives the ~2x memory split
    #: seen in Fig. 5.
    separate_gradient_buffers: bool = True

    def __init__(self) -> None:
        if not self.name:
            raise TypeError("ConvImplementation subclasses must set `name`")
        res = TABLE2_RESOURCES[self.name]
        self.registers_per_thread = res.registers_per_thread
        self.shared_per_block = res.shared_per_block
        self.block_threads = res.block_threads

    # ------------------------------------------------------------------
    # shape constraints
    # ------------------------------------------------------------------

    def check_config(self, config: ConvConfig) -> None:
        """Raise :class:`UnsupportedConfigError` if this implementation
        cannot run ``config``.  Default: anything goes (the unrolling
        implementations "support any possible shapes", section IV-B)."""

    def supports(self, config: ConvConfig) -> bool:
        try:
            self.check_config(config)
            return True
        except UnsupportedConfigError:
            return False

    def _reject(self, reason: str) -> None:
        raise UnsupportedConfigError(self.paper_name or self.name, reason)

    # ------------------------------------------------------------------
    # numerics
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def forward(self, x: np.ndarray, w: np.ndarray, bias=None,
                stride: int = 1, padding: int = 0) -> np.ndarray:
        """Numerically exact forward convolution."""

    @abc.abstractmethod
    def backward_input(self, dy: np.ndarray, w: np.ndarray, input_hw,
                       stride: int = 1, padding: int = 0) -> np.ndarray:
        """Gradient w.r.t. the input."""

    @abc.abstractmethod
    def backward_weights(self, dy: np.ndarray, x: np.ndarray, kernel_hw,
                         stride: int = 1, padding: int = 0) -> np.ndarray:
        """Gradient w.r.t. the filters."""

    # ------------------------------------------------------------------
    # performance model
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def kernel_plan(self, config: ConvConfig) -> List[KernelSpec]:
        """Kernel launches of one training iteration, Fig. 4 naming."""

    @abc.abstractmethod
    def workspace_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        """Strategy-specific device workspaces live at the peak
        (unrolled column buffers, frequency-domain spectra, ...)."""

    def memory_plan(self, config: ConvConfig) -> List[Tuple[str, int]]:
        """All device buffers live at the memory peak of one training
        iteration: activations, parameters, gradients (per the buffer
        policy) and the strategy workspaces."""
        self.check_config(config)
        b, i, f, k, s = config.tuple5
        c = config.channels
        o = config.output_size
        x_bytes = b * c * i * i * ITEMSIZE
        w_bytes = f * c * k * k * ITEMSIZE
        y_bytes = b * f * o * o * ITEMSIZE
        plan = [
            ("input", x_bytes),
            ("weights", w_bytes),
            ("bias", f * ITEMSIZE),
            ("output", y_bytes),
            ("weight_grad", w_bytes),
            ("bias_grad", f * ITEMSIZE),
        ]
        if self.separate_gradient_buffers:
            plan.append(("input_grad", x_bytes))
            plan.append(("output_grad", y_bytes))
        plan.extend(self.workspace_plan(config))
        return plan

    def peak_memory_bytes(self, config: ConvConfig,
                          device: DeviceSpec = K40C) -> int:
        """Peak device footprint (the Fig. 5 / nvidia-smi quantity).

        The memory plan allocated through the allocation rule
        (:func:`~repro.gpusim.allocator.replay`) on top of the CUDA
        context; raises :class:`~repro.errors.DeviceOOMError` at the
        first buffer that does not fit the device.
        """
        return replay(self.memory_plan(config), CONTEXT_BYTES,
                      device.global_memory_bytes)

    def transfer_ops(self, config: ConvConfig) -> List[TransferOp]:
        """Host<->device copies of one training iteration.  Default:
        load the input batch with the implementation's transfer
        behaviour; subclasses extend."""
        self.check_config(config)
        return [self._input_load_op(config)]

    def _input_load_op(self, config: ConvConfig) -> TransferOp:
        from .calibration import TRANSFER_BEHAVIOUR

        beh = TRANSFER_BEHAVIOUR[self.name]
        b, i, _, _, _ = config.tuple5
        nbytes = b * config.channels * i * i * ITEMSIZE
        return TransferOp(kind=TransferKind.H2D, bytes=nbytes,
                          pinned=beh.pinned, async_=beh.async_,
                          chunks=beh.chunks, label="input batch")

    # ------------------------------------------------------------------
    # simulation driver
    # ------------------------------------------------------------------

    def profile_iteration(self, config: ConvConfig,
                          device: DeviceSpec = K40C) -> IterationProfile:
        """Run one training iteration through the device model.

        Analyses read the result through
        :func:`repro.core.evalcache.evaluate`, which calls this once per
        point."""
        self.check_config(config)
        prof = Profiler(device)
        with prof.session():
            prof.launch(self.kernel_plan(config))
            for op in self.transfer_ops(config):
                prof.record_transfer(op.kind, op.bytes, pinned=op.pinned,
                                     async_=op.async_, chunks=op.chunks)
        gpu = prof.gpu_time()
        sync_t = prof.transfers.synchronous_time()
        async_t = prof.transfers.asynchronous_time()
        exposed = exposed_transfer_time(sync_t, async_t, gpu)
        return IterationProfile(
            implementation=self.name,
            config=config,
            profiler=prof,
            gpu_time_s=gpu,
            transfer_time_s=prof.transfers.total_time,
            exposed_transfer_s=exposed,
            total_time_s=gpu + exposed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.paper_name or self.name}>"
