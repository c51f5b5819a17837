"""FFT-strategy-specific tests (transform sizing, pow2 mode)."""

import numpy as np
import pytest

from repro.conv import fft_forward
from repro.conv.fftconv import transform_size
from repro.conv.reference import conv2d_reference
from repro.errors import ShapeError


class TestTransformSize:
    def test_at_least_input(self):
        assert transform_size(100, 5) >= 100

    def test_pow2_mode(self):
        assert transform_size(100, 5, pow2=True) == 128
        assert transform_size(128, 11, pow2=True) == 128
        assert transform_size(129, 3, pow2=True) == 256

    def test_fast_len_mode_smooth(self):
        """The smallest 2/3/5/7-smooth length >= i, for every i."""
        def smooth(n):
            for p in (2, 3, 5, 7):
                while n % p == 0:
                    n //= p
            return n == 1

        for i in range(1, 600):
            n = transform_size(i, 1)
            assert n >= i and smooth(n), i
            assert not any(smooth(m) for m in range(i, n)), i

    @pytest.mark.parametrize("name", ["fbfft", "theano-fft"])
    def test_numerics_transform_at_the_modelled_size(self, name):
        """The numerics and the performance model share one rule."""
        from repro.frameworks import fft_model
        from repro.frameworks.calibration import FFT_CALIBRATION

        cal = FFT_CALIBRATION[name]
        for i in range(1, 600):
            assert (transform_size(i, 1, pow2=cal.pow2_padding)
                    == fft_model.transform_size(cal, i)), i

    def test_rejects_kernel_bigger_than_input(self):
        with pytest.raises(ShapeError):
            transform_size(4, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            transform_size(0, 1)


class TestPow2ModeNumerics:
    """fbfft pads to powers of two — results must not change."""

    @pytest.mark.parametrize("i,k", [(8, 3), (11, 4), (13, 5), (16, 1)])
    def test_pow2_matches_reference(self, i, k, rng):
        x = rng.standard_normal((2, 2, i, i))
        w = rng.standard_normal((3, 2, k, k))
        expected = conv2d_reference(x, w)
        got = fft_forward(x, w, pow2=True)
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-8)

    def test_pow2_and_fast_len_agree(self, rng):
        x = rng.standard_normal((1, 3, 10, 10))
        w = rng.standard_normal((2, 3, 3, 3))
        np.testing.assert_allclose(fft_forward(x, w, pow2=True),
                                   fft_forward(x, w, pow2=False),
                                   rtol=1e-8, atol=1e-8)


class TestShapeRules:
    def test_non_square_input_rejected(self, rng):
        x = rng.standard_normal((1, 1, 8, 10))
        w = rng.standard_normal((1, 1, 3, 3))
        with pytest.raises(ShapeError):
            fft_forward(x, w)

    def test_non_square_kernel_rejected(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 3, 2))
        with pytest.raises(ShapeError):
            fft_forward(x, w)

    def test_output_dtype_follows_inputs(self, rng):
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        assert fft_forward(x, w).dtype == np.float32
