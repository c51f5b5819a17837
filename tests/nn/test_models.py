"""Tests for the reference CNN architectures.

The paper quotes specific structural facts about these models
(section I); they are asserted here.
"""

import pytest

from repro.nn import Conv2d, Linear
from repro.nn.models import (FIG2_MODELS, alexnet, googlenet, lenet5,
                             model_registry, overfeat, vgg16, vgg19)


def count(model, cls):
    if hasattr(model, "layers"):
        return sum(isinstance(l, cls) for l in model.layers)
    return sum(isinstance(l, cls) for l, _, _ in
               model.shape_walk((1, 3, 224, 224)))


class TestStructuralClaims:
    def test_alexnet_paper_claims(self):
        """AlexNet: 5 conv + 3 FC layers, >60M parameters."""
        m = alexnet()
        assert count(m, Conv2d) == 5
        assert count(m, Linear) == 3
        assert m.parameter_count() > 60e6

    def test_vgg19_paper_claims(self):
        """VGG: 16 conv + 3 FC layers, ~144M parameters."""
        m = vgg19()
        assert count(m, Conv2d) == 16
        assert count(m, Linear) == 3
        assert 140e6 < m.parameter_count() < 148e6

    def test_vgg16_structure(self):
        m = vgg16()
        assert count(m, Conv2d) == 13
        assert 134e6 < m.parameter_count() < 142e6

    def test_googlenet_paper_claims(self):
        """GoogLeNet: ~6.8M parameters, 9 inception modules."""
        m = googlenet()
        assert 6.0e6 < m.parameter_count() < 7.5e6
        convs = count(m, Conv2d)
        # 9 modules x 6 convs + 3 stem convs = 57
        assert convs == 57

    def test_overfeat_structure(self):
        m = overfeat()
        assert count(m, Conv2d) == 5
        assert count(m, Linear) == 3

    def test_lenet5_structure(self):
        m = lenet5()
        assert count(m, Conv2d) == 2
        assert count(m, Linear) == 3
        assert m.parameter_count() < 1e5


class TestShapes:
    @pytest.mark.parametrize("name", list(FIG2_MODELS))
    def test_fig2_models_classify_1000(self, name):
        ctor, shape = FIG2_MODELS[name]
        m = ctor()
        assert m.output_shape((2,) + shape) == (2, 1000)

    def test_lenet_output(self):
        m = lenet5()
        assert m.output_shape((4, 1, 32, 32)) == (4, 10)

    def test_registry_complete(self):
        reg = model_registry()
        assert set(reg) >= {"LeNet-5", "AlexNet", "VGG", "OverFeat",
                            "GoogLeNet"}

