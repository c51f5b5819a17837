"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (AllocationError, DeviceOOMError, ProfilerError,
                          ReproError, ShapeError, UnsupportedConfigError)


def test_all_derive_from_repro_error():
    for exc in (ShapeError("x"), UnsupportedConfigError("impl", "why"),
                DeviceOOMError(1, 2, 3), AllocationError("x"),
                ProfilerError("x")):
        assert isinstance(exc, ReproError)


def test_shape_error_is_value_error():
    assert isinstance(ShapeError("x"), ValueError)


def test_oom_is_memory_error_and_carries_state():
    e = DeviceOOMError(requested=100, in_use=200, capacity=250)
    assert isinstance(e, MemoryError)
    assert e.requested == 100 and e.in_use == 200 and e.capacity == 250
    assert "100" in str(e)


def test_unsupported_config_message():
    e = UnsupportedConfigError("cuda-convnet2", "batch must be a multiple of 32")
    assert "cuda-convnet2" in str(e)
    assert e.reason.startswith("batch")


def test_memory_pressure_is_an_oom_with_reserved_context():
    from repro.errors import MemoryPressureError
    e = MemoryPressureError(requested=100, in_use=200, capacity=1000,
                            reserved=700)
    assert isinstance(e, DeviceOOMError)
    assert isinstance(e, ReproError)
    assert e.reserved == 700
    assert e.requested == 100 and e.in_use == 200 and e.capacity == 1000
    assert "pressure" in str(e)


def test_transient_kernel_error_carries_retry_cost():
    from repro.errors import TransientKernelError
    e = TransientKernelError("cuDNN", at_s=1.25, retry_cost_s=500e-6)
    assert isinstance(e, ReproError)
    assert isinstance(e, RuntimeError)
    assert e.implementation == "cuDNN"
    assert e.at_s == 1.25
    assert e.retry_cost_s == 500e-6
    assert "cuDNN" in str(e)


def test_server_closed_error_is_a_repro_error():
    from repro.errors import ServerClosedError
    e = ServerClosedError("queue is closed")
    assert isinstance(e, ReproError)
    assert isinstance(e, RuntimeError)


def test_pressure_error_caught_by_plain_oom_handlers():
    from repro.errors import MemoryPressureError
    try:
        raise MemoryPressureError(1, 2, 3, 4)
    except DeviceOOMError as caught:
        assert caught.reserved == 4


def test_unknown_device_is_a_value_and_key_error_printed_plainly():
    from repro.devices import get_profile
    from repro.errors import UnknownDeviceError
    with pytest.raises(UnknownDeviceError) as exc:
        get_profile("nope")
    e = exc.value
    assert isinstance(e, ReproError)
    assert isinstance(e, ValueError) and isinstance(e, KeyError)
    assert str(e).startswith("unknown device profile 'nope' (known: ")
