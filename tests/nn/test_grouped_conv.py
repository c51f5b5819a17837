"""Tests for grouped convolution (AlexNet's two-tower split)."""

import pytest

from repro.errors import ShapeError
from repro.nn import Conv2d
from repro.nn.models import alexnet


class TestGroupedConv:
    def test_weight_shape_shrinks_per_group(self):
        layer = Conv2d(8, 4, 3, groups=2)
        assert layer.weight.shape == (4, 4, 3, 3)

    def test_depthwise_extreme(self):
        """groups == channels: depthwise convolution."""
        layer = Conv2d(4, 4, 3, groups=4)
        assert layer.weight.shape == (4, 1, 3, 3)
        assert layer.output_shape((1, 4, 6, 6)) == (1, 4, 4, 4)

    @pytest.mark.parametrize("cin,cout,g", [(3, 4, 2), (4, 3, 2), (4, 4, 0)])
    def test_invalid_grouping(self, cin, cout, g):
        with pytest.raises(ShapeError):
            Conv2d(cin, cout, 3, groups=g)


class TestGroupedAlexNet:
    def test_original_parameter_count(self):
        """Krizhevsky's grouped AlexNet has ~61 M parameters (the
        single-tower variant has ~62.4 M)."""
        grouped = alexnet(grouped=True).parameter_count()
        single = alexnet(grouped=False).parameter_count()
        assert grouped < single
        assert 58e6 < grouped < 62e6

    def test_same_output_shape(self):
        g = alexnet(grouped=True)
        assert g.output_shape((2, 3, 227, 227)) == (2, 1000)
