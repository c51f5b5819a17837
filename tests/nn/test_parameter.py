"""First-use allocation of layer weights and gradients.

A weight built from a seed is drawn the first time it is read, and a
gradient is zero-filled the first time it is read, so walking a
model's shapes (Fig. 2, summaries, training-cost tables) allocates no
weights.  The arrays, once read, are the ones an immediate draw gives.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.full_report import generate_report
from repro.nn import Conv2d, Linear
from repro.rng import make_rng

MB = 2 ** 20


def eager(rng, shape, fan_in):
    """The He-normal draw as the constructors made it up front."""
    return make_rng(rng).standard_normal(shape) * np.sqrt(2.0 / fan_in)


def build(rng):
    """(layer, weight shape, fan-in) for a dense, a conv and a grouped
    conv layer, all seeded by ``rng``."""
    return [
        (Linear(20, 7, rng=rng), (7, 20), 20),
        (Conv2d(6, 4, 3, rng=rng), (4, 6, 3, 3), 54),
        (Conv2d(6, 4, 3, groups=2, rng=rng), (4, 3, 3, 3), 27),
    ]


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def traced_peak(fn):
    """Peak bytes Python allocated while running ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeededWeights:
    @pytest.mark.parametrize("seed", [0, 7, None])
    def test_bit_identical_to_an_immediate_draw_in_any_order(self, seed):
        layers = build(seed)
        for layer, shape, fan_in in reversed(layers):
            assert_bit_identical(layer.weight.value,
                                 eager(seed, shape, fan_in))
            assert layer.weight.value is layer.weight.value  # drawn once

    def test_shapes_and_counts_allocate_nothing(self):
        def inspect():
            layer = Linear(2048, 2048, rng=0)  # 32 MB of weights
            assert layer.weight.shape == (2048, 2048)
            assert layer.parameter_count() == 2048 * 2048 + 2048
            layer.zero_grad()
        assert traced_peak(inspect) < 1 * MB

    def test_unread_weight_pickles(self):
        layer = pickle.loads(pickle.dumps(Linear(20, 7, rng=3)))
        assert_bit_identical(layer.weight.value, eager(3, (7, 20), 20))

    @pytest.mark.parametrize("bad", ["x", 1.5])
    def test_bad_seed_raises_at_construction(self, bad):
        with pytest.raises(TypeError):
            Conv2d(3, 4, 3, rng=bad)
        with pytest.raises(TypeError):
            Linear(3, 4, rng=bad)


class TestSharedGenerator:
    def test_drawn_at_construction_in_construction_order(self):
        gen, ref = np.random.default_rng(5), np.random.default_rng(5)
        fc, conv = Linear(20, 7, rng=gen), Conv2d(6, 4, 3, rng=gen)
        want_fc = eager(ref, (7, 20), 20)
        want_conv = eager(ref, (4, 6, 3, 3), 54)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert_bit_identical(conv.weight.value, want_conv)
        assert_bit_identical(fc.weight.value, want_fc)
        assert gen.bit_generator.state == ref.bit_generator.state


class TestGradients:
    @pytest.mark.parametrize("read_grad_first", [False, True])
    def test_grad_follows_an_assigned_value(self, read_grad_first):
        p = Linear(3, 4, rng=0).weight
        if read_grad_first:
            p.grad[...] = 1.0
        x = np.ones((2, 5))
        p.value = x
        assert p.grad.shape == x.shape == p.shape


def test_regenerating_every_figure_allocates_no_weights():
    """The full report builds the Fig. 2 models (VGG-19's weights alone
    are 1.15 GB) but reads only their shapes."""
    assert traced_peak(generate_report) < 64 * MB
