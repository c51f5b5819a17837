"""Tests for the Winograd F(2x2, 3x3) strategy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conv.reference import (conv2d_reference,
                                  conv2d_reference_backward_input,
                                  conv2d_reference_backward_weights)
from repro.conv.winograd import (G, A_T, B_T, forward, backward_input,
                                 backward_weights, forward_multiplies,
                                 multiplication_reduction, transform_filters)
from repro.errors import ShapeError


class TestTransforms:
    def test_filter_transform_shape(self, rng):
        w = rng.standard_normal((4, 3, 3, 3))
        assert transform_filters(w).shape == (4, 3, 4, 4)

    def test_transform_identity_on_delta(self):
        """A centre-delta filter's transform, pushed through the
        pipeline on a constant input, must reproduce the input."""
        x = np.full((1, 1, 6, 6), 2.5)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        y = forward(x, w, padding=1)
        assert np.allclose(y, 2.5)

    def test_algebraic_identity(self):
        """F(2,3) exactness in 1-D: A^T ((G g) * (B^T d)) equals the
        two valid correlation outputs of d (len 4) with g (len 3)."""
        rng = np.random.default_rng(5)
        d = rng.standard_normal(4)
        g = rng.standard_normal(3)
        m = (G @ g) * (B_T @ d)
        y = A_T @ m
        expect = np.array([d[0:3] @ g, d[1:4] @ g])
        assert np.allclose(y, expect)

    def test_rejects_wrong_kernel(self, rng):
        with pytest.raises(ShapeError):
            transform_filters(rng.standard_normal((2, 2, 5, 5)))


class TestForward:
    @settings(max_examples=40, deadline=None)
    @given(b=st.integers(1, 3), c=st.integers(1, 3), f=st.integers(1, 3),
           i=st.integers(3, 12), p=st.integers(0, 2),
           seed=st.integers(0, 999))
    def test_matches_reference(self, b, c, f, i, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((b, c, i, i))
        w = rng.standard_normal((f, c, 3, 3))
        got = forward(x, w, None, 1, p)
        want = conv2d_reference(x, w, None, 1, p)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_bias(self, rng):
        x = rng.standard_normal((1, 1, 6, 6))
        w = rng.standard_normal((2, 1, 3, 3))
        bias = np.array([1.0, -1.0])
        np.testing.assert_allclose(forward(x, w, bias),
                                   conv2d_reference(x, w, bias),
                                   rtol=1e-9, atol=1e-9)

    def test_odd_output_sizes_cropped(self, rng):
        """Outputs that are not multiples of the 2x2 tile are cropped
        correctly."""
        x = rng.standard_normal((1, 1, 7, 7))  # output 5x5
        w = rng.standard_normal((1, 1, 3, 3))
        got = forward(x, w)
        assert got.shape == (1, 1, 5, 5)
        np.testing.assert_allclose(got, conv2d_reference(x, w),
                                   rtol=1e-9, atol=1e-9)

    def test_rejects_stride(self, rng):
        with pytest.raises(ShapeError):
            forward(np.ones((1, 1, 8, 8)), np.ones((1, 1, 3, 3)), stride=2)

    def test_rejects_non_3x3(self):
        with pytest.raises(ShapeError):
            forward(np.ones((1, 1, 8, 8)), np.ones((1, 1, 5, 5)))


class TestBackward:
    def test_backward_input_matches_reference(self, rng):
        w = rng.standard_normal((2, 3, 3, 3))
        dy = rng.standard_normal((2, 2, 6, 6))
        got = backward_input(dy, w, (8, 8))
        want = conv2d_reference_backward_input(dy, w, (8, 8))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_backward_weights_matches_reference(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        dy = rng.standard_normal((2, 2, 6, 6))
        got = backward_weights(dy, x, (3, 3))
        want = conv2d_reference_backward_weights(dy, x, (3, 3))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_backward_rejects_bad_geometry(self, rng):
        with pytest.raises(ShapeError):
            backward_input(np.ones((1, 1, 4, 4)), np.ones((1, 1, 5, 5)), (8, 8))
        with pytest.raises(ShapeError):
            backward_weights(np.ones((1, 1, 4, 4)), np.ones((1, 1, 8, 8)),
                             (5, 5))


class TestArithmetic:
    def test_reduction_is_2_25(self):
        assert multiplication_reduction() == pytest.approx(2.25)

    def test_forward_multiplies_vs_direct(self):
        """The transform-domain multiply count must be direct / 2.25
        for tile-aligned outputs."""
        b, c, f, oh, ow = 2, 3, 4, 8, 8
        direct = b * f * c * oh * ow * 9
        assert forward_multiplies(b, c, f, oh, ow) == pytest.approx(
            direct / 2.25)

    def test_multiplies_round_up_partial_tiles(self):
        full = forward_multiplies(1, 1, 1, 4, 4)
        ragged = forward_multiplies(1, 1, 1, 5, 5)
        assert ragged > full

