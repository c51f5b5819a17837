"""Invariant tests over the calibration tables.

Calibration is the single source of implementation-specific constants;
these tests pin its structural contract so a careless edit cannot
orphan an implementation or smuggle in an out-of-range efficiency.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.frameworks.calibration import (ACCESS_PATTERNS, CONTEXT_BYTES,
                                          DIRECT_CALIBRATION, DIVERGENCE,
                                          FBFFT_CGEMM, FFT_CALIBRATION,
                                          GEMM_CALIBRATION, ITEMSIZE,
                                          SHARED_PATTERNS, TABLE2_RESOURCES,
                                          THEANO_FFT_CGEMM,
                                          TRANSFER_BEHAVIOUR)
from repro.frameworks.registry import all_implementations

PAPER_SEVEN = {"caffe", "torch-cunn", "theano-corrmm", "theano-fft",
               "cudnn", "cuda-convnet2", "fbfft"}


class TestCoverage:
    def test_every_implementation_has_resources(self):
        assert PAPER_SEVEN <= set(TABLE2_RESOURCES)

    def test_every_implementation_has_transfer_behaviour(self):
        assert PAPER_SEVEN <= set(TRANSFER_BEHAVIOUR)

    def test_unrolling_family_has_gemm_calibration(self):
        assert set(GEMM_CALIBRATION) == {"caffe", "torch-cunn",
                                         "theano-corrmm", "cudnn"}

    def test_fft_family_has_fft_calibration(self):
        assert set(FFT_CALIBRATION) == {"fbfft", "theano-fft"}

    def test_registry_and_tables_agree(self):
        for impl in all_implementations():
            assert impl.name in TABLE2_RESOURCES
            assert impl.name in TRANSFER_BEHAVIOUR


class TestRanges:
    def test_gemm_asymptotes_physical(self):
        for cal in list(GEMM_CALIBRATION.values()) + [FBFFT_CGEMM,
                                                      THEANO_FFT_CGEMM]:
            assert 0.0 < cal.asymptote <= 1.0
            if cal.asymptote_large is not None:
                assert cal.asymptote < cal.asymptote_large <= 1.0
            assert cal.m_half > 0 and cal.n_half > 0 and cal.k_half > 0
            assert cal.tile_m > 0 and cal.tile_n > 0

    def test_fft_efficiencies_physical(self):
        for cal in FFT_CALIBRATION.values():
            assert 0.0 < cal.efficiency <= 1.0
            assert cal.buffer_residency >= 1.0

    def test_direct_calibration(self):
        assert 0 < DIRECT_CALIBRATION.efficiency_b32 \
            < DIRECT_CALIBRATION.efficiency_b128 <= 1.0
        assert DIRECT_CALIBRATION.batch_tile == 128

    def test_resources_fit_the_device(self):
        from repro.gpusim.device import K40C
        for name, res in TABLE2_RESOURCES.items():
            assert 0 < res.registers_per_thread <= K40C.max_registers_per_thread
            assert 0 < res.shared_per_block <= K40C.max_shared_per_block
            assert 0 < res.block_threads <= K40C.max_threads_per_block

    def test_constants(self):
        assert ITEMSIZE == 4
        assert CONTEXT_BYTES > 0


class TestPatternTables:
    def test_required_access_patterns_present(self):
        required = {"gemm_load", "gemm_store", "stream_load", "stream_store",
                    "im2col_load", "im2col_store", "col2im_load",
                    "col2im_store", "cudnn_load", "cudnn_store",
                    "ccn2_load", "ccn2_store", "fbfft_load", "fbfft_store",
                    "theano_fft_load", "theano_fft_store"}
        assert required <= set(ACCESS_PATTERNS)

    def test_required_shared_patterns_present(self):
        assert {"gemm", "cudnn", "ccn2", "fbfft", "theano-fft"} <= set(
            SHARED_PATTERNS)

    def test_divergence_profiles_valid(self):
        for prof in DIVERGENCE.values():
            assert 0.0 <= prof.divergent_fraction <= 1.0

    def test_fitted_occupancy_bands_documented(self):
        """The Table II numbers must be the paper's (guard against a
        'helpful' retuning): spot-check the extremes."""
        assert TABLE2_RESOURCES["cuda-convnet2"].registers_per_thread == 116
        assert TABLE2_RESOURCES["theano-fft"].registers_per_thread == 2


class TestTransferBehaviour:
    def test_prefetchers_are_async_pinned(self):
        for name in ("caffe", "cudnn", "fbfft"):
            beh = TRANSFER_BEHAVIOUR[name]
            assert beh.pinned and beh.async_

    def test_synchronous_family(self):
        for name in ("torch-cunn", "theano-corrmm", "theano-fft"):
            assert not TRANSFER_BEHAVIOUR[name].async_

    def test_only_corrmm_stages_through_host(self):
        stagers = [n for n, b in TRANSFER_BEHAVIOUR.items()
                   if b.host_staging_threshold]
        assert stagers == ["theano-corrmm"]


class TestImportOrder:
    def test_winograd_ext_import_leaves_the_tables_alone(self):
        """Importing the what-if adapter must not add table entries, or
        what a test over the tables checks depends on test order.  A
        fresh interpreter sees the key sets before any other test has
        imported the adapter."""
        code = (
            "import json\n"
            "from repro.frameworks import calibration as c\n"
            "keys = lambda: [sorted(c.TABLE2_RESOURCES),"
            " sorted(c.TRANSFER_BEHAVIOUR)]\n"
            "before = keys()\n"
            "import repro.frameworks.winograd_ext\n"
            "print(json.dumps([before, keys()]))\n")
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert before == after
