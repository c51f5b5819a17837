"""Tests for the Add layer and the ResNet extension models."""

import pytest

from repro.errors import ShapeError
from repro.nn import Conv2d
from repro.nn.add import Add
from repro.nn.models.resnet import resnet18, resnet34


class TestAddLayer:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Add().output_shape([(1, 1, 2, 2), (1, 1, 3, 3)])

    def test_output_shape(self):
        assert Add().output_shape([(1, 2, 3, 3), (1, 2, 3, 3)]) == (1, 2, 3, 3)
        with pytest.raises(ShapeError):
            Add().output_shape([(1, 2, 3, 3), (1, 3, 3, 3)])


class TestResNets:
    def test_canonical_parameter_counts(self):
        assert 11.4e6 < resnet18().parameter_count() < 12.0e6
        assert 21.4e6 < resnet34().parameter_count() < 22.2e6

    def test_output_shape(self):
        m = resnet18(num_classes=10)
        assert m.output_shape((4, 3, 224, 224)) == (4, 10)

    def test_all_convs_are_small_kernels(self):
        """ResNet lives in the paper's small-kernel regime: everything
        is 7x7 (stem) or 3x3/1x1."""
        m = resnet34()
        ks = {l.kernel_size for l, _, _ in m.shape_walk((1, 3, 224, 224))
              if isinstance(l, Conv2d)}
        assert ks == {7, 3, 1}

    def test_simulated_breakdown_conv_dominates(self):
        """Conv still dominates a simulated ResNet iteration, with
        BatchNorm visible — the extension composes with the Fig. 2
        machinery."""
        from repro.nn.simulate import breakdown_by_type, model_breakdown
        m = resnet18()
        shares = breakdown_by_type(model_breakdown(m, (64, 3, 224, 224)))
        assert shares["Conv"] > 0.7
        assert "BatchNorm" in shares and "Add" in shares

    def test_registered_in_model_registry(self):
        from repro.nn.models import FIG2_MODELS, model_registry
        reg = model_registry()
        assert "ResNet-18" in reg and "ResNet-34" in reg
        # But NOT in the paper's Fig. 2 set.
        assert "ResNet-18" not in FIG2_MODELS

    def test_training_cost_estimable(self):
        from repro.core.training_cost import estimate_training
        from repro.workloads.datasets import CIFAR10
        est = estimate_training("ResNet-18", CIFAR10, batch=64, epochs=1)
        assert est.total_time_s > 0
