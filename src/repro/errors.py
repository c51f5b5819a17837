"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError` so
callers can catch one type.  The more specific subclasses mirror the
failure modes the paper discusses: implementations rejecting tensor
shapes (section IV-B, "shape limitations"), the device running out of
memory (section V-B, "abnormal memory usage can lead to program crush"),
and misuse of the simulator API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError, ValueError):
    """A tensor shape is malformed or inconsistent (e.g. kernel larger
    than the padded input, negative sizes, mismatched channel counts)."""


class UnsupportedConfigError(ReproError, ValueError):
    """A convolution implementation rejects a configuration it cannot
    run, mirroring the paper's shape limitations: cuda-convnet2 needs
    square inputs/kernels, batch % 32 == 0 and filters % 16 == 0; the
    FFT implementations only support stride 1."""

    def __init__(self, implementation: str, reason: str):
        self.implementation = implementation
        self.reason = reason
        super().__init__(f"{implementation}: unsupported configuration: {reason}")


class DeviceOOMError(ReproError, MemoryError):
    """The simulated device ran out of global memory.

    Carries the requested size and the allocator state at failure so
    the memory-comparison harness can report *why* a configuration is
    infeasible (paper Fig. 5 observes fbfft exceeding the K40c's 12 GB
    on some shapes).
    """

    def __init__(self, requested: int, in_use: int, capacity: int):
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"device OOM: requested {requested} B with {in_use} B in use "
            f"of {capacity} B capacity"
        )


class MemoryPressureError(DeviceOOMError):
    """An allocation failed only because an injected memory-pressure
    window has reserved part of the device (the request would have fit
    the unpressured card).

    Subclasses :class:`DeviceOOMError` so every existing OOM handler
    keeps working; carries the reserved size so resilient callers can
    tell "degrade and retry later" (pressure) apart from "will never
    fit" (true OOM).
    """

    def __init__(self, requested: int, in_use: int, capacity: int,
                 reserved: int):
        super().__init__(requested, in_use, capacity)
        self.reserved = reserved
        # Rewrite the message with the pressure context.
        self.args = (
            f"memory pressure: requested {requested} B with {in_use} B in "
            f"use and {reserved} B reserved of {capacity} B capacity",
        )


class TransientKernelError(ReproError, RuntimeError):
    """A simulated kernel launch faulted transiently (the ECC
    single-bit-error / replay class of failure: the launch is safe to
    retry after the device scrubs and replays).

    Carries the implementation that faulted, the simulated time of the
    fault and the simulated cost of detection + replay, so a resilient
    scheduler can charge the retry to the virtual clock.
    """

    def __init__(self, implementation: str, at_s: float, retry_cost_s: float):
        self.implementation = implementation
        self.at_s = at_s
        self.retry_cost_s = retry_cost_s
        super().__init__(
            f"{implementation}: transient kernel fault at t={at_s:.6f}s "
            f"(replay cost {retry_cost_s * 1e6:.0f} us)"
        )


class ServerClosedError(ReproError, RuntimeError):
    """An operation was attempted on a serving component after it was
    closed (e.g. offering a request to a drained admission queue)."""


class AllocationError(ReproError, ValueError):
    """Misuse of the device allocator (a negative baseline, or one
    larger than the device)."""


class ProfilerError(ReproError, RuntimeError):
    """Misuse of the profiler session (e.g. recording a kernel outside
    an active session, nested sessions on one profiler)."""


class TraceSchemaError(ReproError, ValueError):
    """A saved observability artifact (JSONL event log, metrics
    snapshot) could not be loaded: unknown schema version, malformed
    records, or dangling span references."""


class ProfileValidationError(ReproError, ValueError):
    """A device-profile document failed validation (a shipped one at
    import, see :mod:`repro.gpusim.device`, or any one through
    :func:`repro.devices.ensure_valid`).

    ``profile`` names the document (its file, when it has one) and
    ``errors`` holds one ``path: problem`` string per violation.
    """

    def __init__(self, name: str, errors):
        self.profile = name
        self.errors = list(errors)
        joined = "; ".join(self.errors)
        super().__init__(f"profile {name!r} invalid: {joined}")


class UnknownDeviceError(ReproError, ValueError, KeyError):
    """A slug or display name matches no profile in the device
    catalogue.  A ``ValueError`` so the CLI reports it as a usage
    error, and a ``KeyError`` because it is a failed lookup."""

    # KeyError's str() would quote the whole message.
    __str__ = ValueError.__str__
