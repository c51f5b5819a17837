"""Models are shapes: building one allocates no weights.

A layer's parameters are names and shapes, so walking a model's
shapes (Fig. 2, summaries, training-cost tables) costs no weight
memory, however large the model.
"""

import tracemalloc

from repro.core.full_report import generate_report
from repro.nn import Linear

MB = 2 ** 20


def traced_peak(fn):
    """Peak bytes Python allocated while running ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeededWeights:
    def test_shapes_and_counts_allocate_nothing(self):
        def inspect():
            layer = Linear(2048, 2048)  # 32 MB of weights, if drawn
            assert layer.weight.shape == (2048, 2048)
            assert layer.parameter_count() == 2048 * 2048 + 2048
        assert traced_peak(inspect) < 1 * MB


def test_regenerating_every_figure_allocates_no_weights():
    """The full report builds the Fig. 2 models (VGG-19's weights alone
    would be 1.15 GB) but reads only their shapes."""
    assert traced_peak(generate_report) < 64 * MB
