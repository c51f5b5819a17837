"""Tests for the model summary printer."""

import pytest

from repro.nn.models import alexnet, googlenet, lenet5
from repro.nn.summary import parameter_breakdown, summarize


class TestSummarize:
    def test_lenet_table(self):
        out = summarize(lenet5(), (1, 1, 32, 32))
        assert "conv1" in out and "fc5" in out
        assert "total parameters:" in out

    def test_alexnet_param_total_in_footer(self):
        out = summarize(alexnet(), (1, 3, 227, 227))
        total = alexnet().parameter_count()
        assert f"{total:,}" in out

    def test_graph_models_supported(self):
        out = summarize(googlenet(), (1, 3, 224, 224))
        assert "inc3a/output" in out
        # Concat rows show the fan-in shapes.
        assert "+" in out

    def test_activation_memory_scales_with_batch(self):
        small = summarize(lenet5(), (1, 1, 32, 32))
        big = summarize(lenet5(), (64, 1, 32, 32))
        def act_mb(s):
            line = next(l for l in s.splitlines()
                        if l.startswith("forward activations"))
            return float(line.split(":")[1].split("MB")[0])
        assert act_mb(big) > 10 * act_mb(small)


class TestParameterBreakdown:
    def test_sorted_descending(self):
        bd = parameter_breakdown(alexnet())
        sizes = [s for _, s in bd]
        assert sizes == sorted(sizes, reverse=True)

    def test_alexnet_fc6_is_largest(self):
        """AlexNet's famous parameter hog: fc6 (9216 x 4096)."""
        name, size = parameter_breakdown(alexnet())[0]
        assert "fc6" in name
        assert size == 9216 * 4096
