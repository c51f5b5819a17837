"""Global-memory access coalescing model.

nvprof's ``gld_efficiency`` / ``gst_efficiency`` metrics are the ratio
of *requested* to *required* global memory throughput: a warp of 32
threads requests some bytes, and the memory system must move whole
128-byte transactions to satisfy it.  Perfectly coalesced, aligned
accesses need exactly ``requested / 128`` transactions (100 %);
strided or misaligned patterns touch more segments and the efficiency
drops — the replay behaviour section V-C-2 of the paper attributes the
low efficiencies of Caffe/Torch-cunn/Theano-CorrMM to.

The model below computes, for a warp-wide access described by an
element size, an element stride and an alignment offset, how many
128-byte transactions are touched, exactly as the hardware's address
coalescer does for the L1 path on Kepler.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec


@dataclass(frozen=True)
class WarpAccess:
    """One warp-wide global memory access pattern.

    Attributes
    ----------
    word_bytes:
        Bytes accessed by each lane (4 for float, 8 for float2/double,
        16 for float4 vectorized loads).
    stride_words:
        Distance between consecutive lanes' addresses, in units of
        ``word_bytes``.  1 = fully coalesced, 0 = broadcast (all lanes
        read the same word), larger = strided.
    offset_bytes:
        Misalignment of lane 0's address relative to a transaction
        boundary.
    active_lanes:
        Number of lanes actually performing the access (predication /
        divergence reduces this).
    """

    word_bytes: int = 4
    stride_words: int = 1
    offset_bytes: int = 0
    active_lanes: int = 32

    def __post_init__(self) -> None:
        if self.word_bytes not in (1, 2, 4, 8, 16):
            raise ValueError(f"word_bytes must be 1/2/4/8/16, got {self.word_bytes}")
        if self.stride_words < 0:
            raise ValueError(f"stride_words must be >= 0, got {self.stride_words}")
        if self.offset_bytes < 0:
            raise ValueError(f"offset_bytes must be >= 0, got {self.offset_bytes}")
        if not (1 <= self.active_lanes <= 32):
            raise ValueError(f"active_lanes must be in [1,32], got {self.active_lanes}")


def transactions_per_access(device: DeviceSpec, access: WarpAccess) -> int:
    """Number of ``device.transaction_bytes`` segments one warp access
    touches."""
    seg = device.transaction_bytes
    segments = set()
    for lane in range(access.active_lanes):
        addr = access.offset_bytes + lane * access.stride_words * access.word_bytes
        first = addr // seg
        last = (addr + access.word_bytes - 1) // seg
        segments.update(range(first, last + 1))
    return len(segments)


def access_efficiency(device: DeviceSpec, access: WarpAccess) -> float:
    """nvprof-style efficiency: requested bytes / transferred bytes.

    Returns a value in (0, 1].  A broadcast (stride 0) counts the
    single requested word against one transaction, so it is *low*
    efficiency in nvprof terms even though the hardware handles it
    cheaply — this matches how nvprof reports such kernels.
    """
    requested = access.active_lanes * access.word_bytes
    if access.stride_words == 0:
        requested = access.word_bytes
    transferred = transactions_per_access(device, access) * device.transaction_bytes
    return min(requested / transferred, 1.0)


def effective_bandwidth_fraction(device: DeviceSpec, access: WarpAccess) -> float:
    """Fraction of peak DRAM bandwidth usable under this pattern.

    Unlike :func:`access_efficiency` (an accounting metric), this is
    the *timing* impact: the kernel must move ``1 / efficiency`` times
    the requested bytes.  A floor keeps fully random patterns from
    collapsing to zero (the L2 still short-circuits some traffic).
    """
    eff = access_efficiency(device, access)
    return max(eff, 0.03125)


# -- common named patterns -------------------------------------------------

#: Fully coalesced float loads (cuBLAS-style tiled GEMM body).
COALESCED_FLOAT = WarpAccess(word_bytes=4, stride_words=1)

#: Vectorized float4 loads (cuDNN, fbfft inner loops).
COALESCED_FLOAT4 = WarpAccess(word_bytes=16, stride_words=1)

#: im2col gather: lanes walk a row of the input but successive lanes
#: read elements ``stride`` apart in the source image.
def strided_float(stride_words: int, offset_bytes: int = 0) -> WarpAccess:
    """Strided 4-byte access with the given element stride."""
    return WarpAccess(word_bytes=4, stride_words=stride_words, offset_bytes=offset_bytes)
