"""Tests for the Fig. 2 model-runtime simulator."""

import pytest

from repro.nn import (Add, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d,
                      ReLU, Sequential)
from repro.nn.models import lenet5
from repro.nn.simulate import (breakdown_by_type, layer_time,
                               layer_time_split, model_breakdown)
from repro.frameworks.registry import get_implementation


class TestLayerTime:
    def test_conv_dominates_relu(self):
        impl = get_implementation("cudnn")
        conv = Conv2d(64, 128, 3)
        relu = ReLU()
        shape = (32, 64, 56, 56)
        out = conv.output_shape(shape)
        t_conv = layer_time(conv, shape, out, impl)
        t_relu = layer_time(relu, out, out, impl)
        assert t_conv > 5 * t_relu

    def test_flatten_is_free(self):
        impl = get_implementation("cudnn")
        assert layer_time(Flatten(), (8, 4, 4, 4), (8, 64), impl) == 0.0

    def test_fc_layer_timed_as_gemms(self):
        impl = get_implementation("cudnn")
        t = layer_time(Linear(4096, 4096), (128, 4096), (128, 4096),
                       impl)
        assert t > 0

    def test_pool_scales_with_size(self):
        impl = get_implementation("cudnn")
        pool = MaxPool2d(2, 2)
        small = layer_time(pool, (8, 16, 16, 16), (8, 16, 8, 8), impl)
        big = layer_time(pool, (8, 16, 128, 128), (8, 16, 64, 64), impl)
        assert big > small

    @pytest.mark.parametrize("base,args", [(BatchNorm2d, (64,)), (Add, ())])
    def test_subclass_costs_like_its_base(self, base, args):
        """A layer is costed by what it is, not by its class name."""
        impl = get_implementation("cudnn")
        sub = type(f"My{base.__name__}", (base,), {})
        shape = (32, 64, 28, 28)
        assert layer_time_split(sub(*args, name="x"), shape, shape, impl) \
            == layer_time_split(base(*args, name="x"), shape, shape, impl)


class TestModelBreakdown:
    def test_lenet_breakdown_covers_all_layers(self):
        m = lenet5()
        costs = model_breakdown(m, (64, 1, 32, 32))
        assert len(costs) == len(m.layers)
        assert all(c.time_s >= 0 for c in costs)

    def test_shares_sum_to_one(self):
        m = lenet5()
        shares = breakdown_by_type(model_breakdown(m, (64, 1, 32, 32)))
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_conv_share_grows_with_depth(self):
        shallow = Sequential(Conv2d(3, 8, 3), ReLU())
        costs = model_breakdown(shallow, (16, 3, 32, 32))
        shares = breakdown_by_type(costs)
        assert shares["Conv"] > 0.5

    def test_implementation_changes_conv_time(self):
        m = lenet5()
        fast = sum(c.time_s for c in
                   model_breakdown(m, (64, 1, 32, 32), "cudnn"))
        slow = sum(c.time_s for c in
                   model_breakdown(m, (64, 1, 32, 32), "theano-fft"))
        assert slow > fast
