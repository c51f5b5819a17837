"""Tests for batch normalisation."""

import pytest

from repro.errors import ShapeError
from repro.nn.batchnorm import BatchNorm2d


class TestForward:
    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            BatchNorm2d(3).output_shape((2, 4, 3, 3))

    @pytest.mark.parametrize("kwargs", [
        dict(channels=0), dict(channels=2, eps=0.0),
        dict(channels=2, momentum=0.0), dict(channels=2, momentum=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ShapeError):
            BatchNorm2d(**kwargs)


class TestInNetwork:
    def test_parameters_exposed(self):
        bn = BatchNorm2d(5)
        assert len(bn.parameters()) == 2
        assert bn.parameter_count() == 10
