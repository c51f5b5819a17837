"""Calibration constants for the seven implementation models.

This is the single place where per-implementation behavioural
parameters live.  Three kinds of numbers appear here:

1. **Measured facts quoted from the paper** — Table II register and
   shared-memory usage, shape restrictions, kernel names.
2. **Public micro-architecture knowledge** — e.g. cuBLAS sgemm
   sustains ~60-75 % of Kepler peak on large matrices; FFT kernels are
   memory-bound and sustain far less.
3. **Fitted constants** — efficiency asymptotes and saturation sizes
   tuned so the *shape* of every figure in the paper holds (who wins,
   crossover locations, fluctuation patterns).  Each fitted constant
   carries a comment naming the observation it reproduces.

Nothing outside this module hard-codes implementation-specific
magic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..gpusim.banks import SharedAccess
from ..gpusim.coalescing import WarpAccess
from ..gpusim.divergence import DivergenceProfile, UNIFORM


@dataclass(frozen=True)
class ResourceUsage:
    """Paper Table II: per-thread registers and per-block shared memory."""

    registers_per_thread: int
    shared_per_block: int
    block_threads: int



#: Table II of the paper, plus the dominant block size of each
#: implementation's top kernels (block sizes are not in the paper; they
#: are the documented launch shapes of the respective kernels —
#: cuBLAS/cuDNN tiles use 256 threads, cuda-convnet2's filterActs uses
#: 32x12=384, Theano-fft's elementwise kernels 128).  The last entry is
#: not the paper's: it belongs to the what-if adapter of
#: :mod:`repro.frameworks.winograd_ext`, which Table II does not list.
TABLE2_RESOURCES = {
    "caffe": ResourceUsage(86, 8704, 256),           # 8.5 KB
    "cudnn": ResourceUsage(80, 8602, 256),           # 8.4 KB
    "torch-cunn": ResourceUsage(84, 8294, 256),      # 8.1 KB
    "theano-corrmm": ResourceUsage(72, 7168, 256),   # 7.0 KB
    "cuda-convnet2": ResourceUsage(116, 16384, 384), # 16 KB
    "fbfft": ResourceUsage(106, 10240, 256),         # 10 KB
    "theano-fft": ResourceUsage(2, 4608, 128),       # 4.5 KB
    # cuDNN v5's Winograd kernels are register-heavy, like every
    # transform-domain kernel (public figures, not the paper's).
    "cudnn-winograd": ResourceUsage(96, 12288, 256), # 12 KB
}


@dataclass(frozen=True)
class GemmCalibration:
    """Efficiency curve of an implementation's GEMM kernels.

    Sustained fraction of device peak =
    ``asymptote * m/(m+m_half) * n/(n+n_half) * k/(k+k_half)``,
    additionally derated by tile-quantisation waste.
    """

    asymptote: float
    m_half: float = 24.0
    n_half: float = 96.0
    k_half: float = 48.0
    tile_m: int = 64
    tile_n: int = 64
    #: cuBLAS switches to a higher-throughput kernel variant once M
    #: crosses ``m_switch`` (blended linearly over the next 64 rows);
    #: ``asymptote_large`` is that variant's asymptote.  ``None``
    #: disables the switch.
    asymptote_large: float = None
    m_switch: int = 128



#: GEMM efficiency per unrolling implementation.
#: cuBLAS sgemm on GK110 sustains ~65-75 % of peak for large shapes;
#: cuDNN v3's shared-memory tiled implicit GEMM is the best of the
#: unrolling family (Fig. 3/6), Theano-CorrMM's plain cuBLAS call
#: saturates slightly *higher* for very large M — the fitted
#: (asymptote, m_half) pair reproduces the f>160 crossover of
#: Fig. 3(c).
GEMM_CALIBRATION = {
    # k_half = 8 keeps efficiency nearly flat in the reduction
    # dimension: the K panels of unrolled convolutions (c*k^2) are
    # redundant data streamed through L2, so cuBLAS reaches its tiled
    # steady state quickly.  This preserves the ~k^2 runtime spread of
    # Fig. 3(d).
    "caffe": GemmCalibration(asymptote=0.68, k_half=8.0),
    "torch-cunn": GemmCalibration(asymptote=0.70, k_half=8.0),
    # The m_switch/asymptote_large pair models cuBLAS's large-M sgemm
    # variant and produces the f > ~160 crossover of Fig. 3(c).
    "theano-corrmm": GemmCalibration(asymptote=0.68, asymptote_large=0.94,
                                     m_switch=96, k_half=8.0),
    "cudnn": GemmCalibration(asymptote=0.72, m_half=14.0, n_half=24.0,
                             k_half=8.0),
}

#: fbfft's batched complex GEMM over frequency bins: many small
#: matrices → lower sustained fraction than one big sgemm, but the
#: per-bin reduction (over channels) amortises almost immediately
#: (k_half = 2) because all bins of one (b x c x f) slice share the
#: operand tiles.
FBFFT_CGEMM = GemmCalibration(asymptote=0.55, m_half=16.0, n_half=16.0, k_half=2.0,
                              tile_m=16, tile_n=16)
#: Theano-fft multiplies spectra with generic elementwise/batched-dot
#: kernels — far from peak (its 2 registers/thread in Table II show no
#: unrolling at all).
THEANO_FFT_CGEMM = GemmCalibration(asymptote=0.18, m_half=16.0, n_half=16.0,
                                   k_half=8.0, tile_m=16, tile_n=16)


@dataclass(frozen=True)
class FftCalibration:
    """FFT-kernel behaviour of an FFT-based implementation."""

    #: Sustained fraction of peak FLOPs inside the butterfly kernels.
    efficiency: float
    #: Pad transform sizes to powers of two (fbfft) or to
    #: next-fast-len composites (cuFFT / Theano-fft).
    pow2_padding: bool
    #: Multiplier on resident frequency-domain buffers: fbfft keeps the
    #: forward *and* backward frequency buffers alive across the whole
    #: iteration (fitted to the 1.6-10.9 GB range of Fig. 5);
    #: Theano-fft re-allocates per pass.
    buffer_residency: float
    #: Pad transforms to ``i + k - 1`` (Theano's generic full-mode
    #: padding — this is what makes its footprint fluctuate with kernel
    #: size in Fig. 5(d)) rather than the minimal ``n >= i``.
    full_pad: bool = False


FFT_CALIBRATION = {
    # decimateInFrequency is a hand-tuned register FFT: good but the
    # transpose passes are bandwidth-bound.
    "fbfft": FftCalibration(efficiency=0.50, pow2_padding=True,
                            buffer_residency=3.0),
    # Theano-fft composes cuFFT with generic Theano ops and host-side
    # data preparation (Fig. 4(g)): low sustained efficiency.
    "theano-fft": FftCalibration(efficiency=0.12, pow2_padding=False,
                                 buffer_residency=1.25, full_pad=True),
}


@dataclass(frozen=True)
class DirectCalibration:
    """cuda-convnet2's direct-kernel behaviour."""

    #: Sustained fraction of peak when the batch is a multiple of 128
    #: (its kernels are hand-unrolled for 128-image tiles, the
    #: optimisation note of section IV-B).
    efficiency_b128: float = 0.74
    #: Sustained fraction otherwise (32-image tiles, less reuse).
    efficiency_b32: float = 0.50
    #: Image tile width along the batch dimension.
    batch_tile: int = 128
    #: Inner-loop amortisation: efficiency scales with
    #: ``ck2 / (ck2 + work_half)`` where ``ck2 = c * k^2`` is the MACs
    #: per output element — small kernels cannot amortise the tile
    #: prologue, keeping cuda-convnet2 "very close" to cuDNN across all
    #: kernel sizes (Fig. 3(d)) instead of unrealistically fast at k=2.
    work_half: float = 32.0


DIRECT_CALIBRATION = DirectCalibration()


@dataclass(frozen=True)
class TransferBehaviour:
    """How an implementation moves training data each iteration."""

    pinned: bool
    async_: bool
    #: Number of chunks the input batch is split into (1 = one big copy).
    chunks: int = 1
    #: Extra host<->device round-trips of the activations per
    #: iteration beyond loading the input (Theano's host-resident
    #: graph execution).
    activation_roundtrips: float = 0.0
    #: Host-staging threshold: when the full-batch unrolled column
    #: buffer exceeds this many bytes the implementation stages it
    #: through host memory (fitted rule reproducing Theano-CorrMM's
    #: >60 % overhead at Conv2 only, Fig. 7).
    host_staging_threshold: int = 0


TRANSFER_BEHAVIOUR = {
    # Caffe uses a data-prefetching thread with pinned buffers
    # (section V-D analysis): fully hidden.
    "caffe": TransferBehaviour(pinned=True, async_=True),
    "cudnn": TransferBehaviour(pinned=True, async_=True),
    "fbfft": TransferBehaviour(pinned=True, async_=True),
    # Torch's default loader copies synchronously from pageable memory.
    "torch-cunn": TransferBehaviour(pinned=False, async_=False),
    # The Torch wrapper around cuda-convnet2 copies synchronously but
    # through a pinned staging buffer, in layout-sized chunks.
    "cuda-convnet2": TransferBehaviour(pinned=True, async_=False, chunks=4),
    # Theano keeps graph inputs host-resident: input + output gradient
    # round-trip every iteration.
    "theano-fft": TransferBehaviour(pinned=False, async_=False,
                                    activation_roundtrips=1.0),
    "theano-corrmm": TransferBehaviour(pinned=False, async_=False,
                                       activation_roundtrips=0.0,
                                       host_staging_threshold=3 * 2**30),
    # The Winograd what-if adapter moves data as cuDNN does.
    "cudnn-winograd": TransferBehaviour(pinned=True, async_=True),
}


#: Global-memory access patterns of the characteristic kernels.
#: NOTE: patterns drive the nvprof-style gld/gst *metrics*; kernels
#: whose requests are served out of L1/L2/texture carry an explicit
#: ``timing_bandwidth_fraction`` so the metric and the DRAM time can
#: differ, as they do on real hardware.
ACCESS_PATTERNS = {
    # cuBLAS sgemm_nn loads walk the leading dimension of the unrolled
    # operand: strided requests (the 11-16 % gld efficiency Fig. 6
    # reports for Caffe/Torch-cunn/Theano-CorrMM) largely served by L2.
    "gemm_load": WarpAccess(word_bytes=4, stride_words=6),
    "gemm_store": WarpAccess(word_bytes=4, stride_words=2),
    # Plain streaming kernels (bias, activations, pooling): coalesced.
    "stream_load": WarpAccess(word_bytes=4, stride_words=1),
    "stream_store": WarpAccess(word_bytes=4, stride_words=1),
    # im2col gathers strided rows of the image: lanes hit addresses a
    # kernel-row apart → badly coalesced (the 11-16 % gld efficiency of
    # Caffe/Torch/CorrMM in Fig. 6).
    "im2col_load": WarpAccess(word_bytes=4, stride_words=8),
    "im2col_store": WarpAccess(word_bytes=4, stride_words=1),
    # col2im scatters with the same geometry.
    "col2im_load": WarpAccess(word_bytes=4, stride_words=1),
    "col2im_store": WarpAccess(word_bytes=4, stride_words=8),
    # cuDNN's top kernels compute out of shared memory and issue very
    # few global requests, which nvprof scores near 0 % (section
    # V-C-2: "the global access efficiency of those top kernels is
    # 0%"); a broadcast pattern reproduces that reading.
    "cudnn_load": WarpAccess(word_bytes=4, stride_words=0),
    "cudnn_store": WarpAccess(word_bytes=4, stride_words=2),
    # cuda-convnet2 streams images along the batch dimension (CHWN):
    # perfectly coalesced.
    "ccn2_load": WarpAccess(word_bytes=4, stride_words=1),
    "ccn2_store": WarpAccess(word_bytes=4, stride_words=1),
    # fbfft butterflies read bit-reversed strides.
    "fbfft_load": WarpAccess(word_bytes=8, stride_words=2),
    "fbfft_store": WarpAccess(word_bytes=8, stride_words=1),
    # Theano-fft elementwise kernels walk generic strided views.
    "theano_fft_load": WarpAccess(word_bytes=4, stride_words=4),
    "theano_fft_store": WarpAccess(word_bytes=4, stride_words=2),
}

#: Shared-memory access patterns (→ shared efficiency, Fig. 6).
SHARED_PATTERNS = {
    # cuBLAS tiles pad their leading dimension: conflict-free 4-byte.
    "gemm": (SharedAccess(stride_words=1, word_bytes=4),),
    # cuDNN uses 8-byte conflict-free accesses in 64-bit bank mode →
    # efficiency above 100 % (Fig. 6 shows >130 %).
    "cudnn": (SharedAccess(stride_words=1, word_bytes=8),
              SharedAccess(stride_words=1, word_bytes=4)),
    "ccn2": (SharedAccess(stride_words=1, word_bytes=4),),
    "fbfft": (SharedAccess(stride_words=1, word_bytes=8),
              SharedAccess(stride_words=3, word_bytes=4)),
    # Theano-fft's transpose tiles use an unpadded even stride → heavy
    # bank conflicts (the 8-20 % shared efficiency of Fig. 6).
    "theano-fft": (SharedAccess(stride_words=8, word_bytes=4),),
}

#: Divergence profiles (→ warp execution efficiency, Fig. 6: everyone
#: above 97 % except Theano-fft at 66-81 %).
DIVERGENCE = {
    "default": DivergenceProfile(divergent_fraction=0.01, branch_paths=2.0,
                                 tail_fraction=0.05, tail_active_lanes=24.0),
    "theano-fft": DivergenceProfile(divergent_fraction=0.35, branch_paths=2.2,
                                    tail_fraction=0.10, tail_active_lanes=20.0),
}

#: Baseline device-memory footprint before the workload allocates
#: anything (CUDA context + framework runtime), bytes.
CONTEXT_BYTES = 60 * 2**20

#: Bytes per element everywhere (the paper benchmarks fp32).
ITEMSIZE = 4
#: Bytes per complex frequency-domain element (complex64).
COMPLEX_ITEMSIZE = 8
