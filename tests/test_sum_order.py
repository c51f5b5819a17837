"""Pinned digests under CPython 3.12's compensated ``sum()``.

CPython 3.12 made the built-in ``sum()`` of floats compensated
(Neumaier), which can move a float total in its last bit relative to
3.11 and earlier.  The model and the reports sum simulated times with
:func:`repro.obs.hist.ordered_sum` instead, so the pinned digests hold
on every interpreter.  These tests swap ``builtins.sum`` for an
emulation of 3.12's and rerun three of the pins, so a float total that
goes back to ``sum()`` fails here on any interpreter.
"""

import builtins
import math

import pytest

from repro.obs.hist import ordered_sum

from .core.test_evalcache import SWEEP_STORE_SHA256, sweep_store_sha256
from .serve.test_fastpath import (FLEET_DIGESTS, SERVER_DIGESTS,
                                  fleet_chaos_digests, server_digests)

_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum()``: exact while the total is an int, then
    Neumaier-compensated over exact floats; ints add plainly, and any
    other item flushes the compensation and falls back to ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is not float:
        for item in items:
            total = total + item
            if type(total) is float:
                break
        else:
            return total
    comp = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif type(item) is int:
            total += float(item)
        else:
            if comp and math.isfinite(comp):
                total += comp
            return _BUILTIN_SUM(items, total + item)
    if comp and math.isfinite(comp):
        total += comp
    return total


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_emulation_compensates_where_ordered_sum_does_not():
    values = [1.0, 1e100, 1.0, -1e100]
    assert compensated_sum(values) == 2.0
    assert ordered_sum(values) == 0.0
    assert compensated_sum([0.1] * 10) == 1.0
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert type(compensated_sum([])) is int
    assert compensated_sum([1, 2, 3]) == 6


def test_fig3_store_pin(compensated, tmp_path):
    assert sweep_store_sha256(tmp_path) == SWEEP_STORE_SHA256


def test_server_digest(compensated):
    assert server_digests("none", 64) == SERVER_DIGESTS[("none", 64)]


def test_fleet_chaos_digest(compensated):
    assert fleet_chaos_digests(1) == FLEET_DIGESTS[1]
