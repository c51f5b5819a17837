"""Behavioural tests for individual layers: geometry and validation."""

import pytest

from repro.errors import ShapeError
from repro.nn import (Conv2d, Dropout, Linear, LocalResponseNorm, MaxPool2d)


class TestConv2d:
    def test_output_shape(self):
        layer = Conv2d(3, 8, 5, stride=2, padding=1)
        assert layer.output_shape((4, 3, 32, 32)) == (4, 8, 15, 15)

    def test_channel_mismatch(self):
        layer = Conv2d(3, 8, 3)
        with pytest.raises(ShapeError):
            layer.output_shape((1, 4, 8, 8))

    def test_conv_config_view(self):
        layer = Conv2d(3, 8, 5, stride=2)
        cfg = layer.conv_config((4, 3, 32, 32))
        assert cfg.tuple5 == (4, 32, 8, 5, 2)
        assert cfg.channels == 3

    def test_conv_config_requires_square(self):
        layer = Conv2d(3, 8, 5)
        with pytest.raises(ShapeError):
            layer.conv_config((4, 3, 32, 30))


class TestPooling:
    def test_ceil_mode_shape(self):
        pool = MaxPool2d(3, 2, ceil_mode=True)
        assert pool.output_shape((1, 1, 112, 112)) == (1, 1, 56, 56)

    def test_invalid_construction(self):
        with pytest.raises(ShapeError):
            MaxPool2d(0)
        with pytest.raises(ShapeError):
            MaxPool2d(3, padding=3)


class TestLinear:
    def test_rejects_wrong_features(self):
        with pytest.raises(ShapeError):
            Linear(4, 2).output_shape((1, 5))

    def test_rejects_4d_input(self):
        with pytest.raises(ShapeError):
            Linear(4, 2).output_shape((1, 4, 1, 1))


class TestDropout:
    def test_invalid_p(self):
        with pytest.raises(ShapeError):
            Dropout(1.0)


class TestLRN:
    def test_invalid_params(self):
        with pytest.raises(ShapeError):
            LocalResponseNorm(size=4)
        with pytest.raises(ShapeError):
            LocalResponseNorm(alpha=-1.0)
