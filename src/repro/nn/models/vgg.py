"""VGG (Simonyan & Zisserman 2014).

The paper quotes VGG-19: "19 layers (16 convolutional layers and 3
fully-connected layers) and over 144 million parameters" — both
figures are asserted in the test suite.  VGG-16 is provided as well.
"""

from __future__ import annotations

from typing import Sequence

from ..conv_layer import Conv2d
from ..dropout import Dropout
from ..fc import Linear
from ..flatten import Flatten
from ..network import Sequential
from ..pooling import MaxPool2d
from ..relu import ReLU

#: Channel plan per block: (convs in block, out channels).
_VGG16_PLAN = ((2, 64), (2, 128), (3, 256), (3, 512), (3, 512))
_VGG19_PLAN = ((2, 64), (2, 128), (4, 256), (4, 512), (4, 512))


def _vgg(plan: Sequence, num_classes: int, name: str) -> Sequential:
    model = Sequential(name=name)
    in_ch = 3
    for block, (convs, out_ch) in enumerate(plan, start=1):
        for i in range(1, convs + 1):
            model.add(Conv2d(in_ch, out_ch, 3, padding=1, name=f"conv{block}_{i}"))
            model.add(ReLU(name=f"relu{block}_{i}"))
            in_ch = out_ch
        model.add(MaxPool2d(2, 2, name=f"pool{block}"))
    model.add(Flatten(name="flatten"))
    model.add(Linear(512 * 7 * 7, 4096, name="fc6"))
    model.add(ReLU(name="relu6"))
    model.add(Dropout(0.5, name="drop6"))
    model.add(Linear(4096, 4096, name="fc7"))
    model.add(ReLU(name="relu7"))
    model.add(Dropout(0.5, name="drop7"))
    model.add(Linear(4096, num_classes, name="fc8"))
    return model


def vgg16(num_classes: int = 1000) -> Sequential:
    """VGG-16 (configuration D) for 224x224x3 inputs."""
    return _vgg(_VGG16_PLAN, num_classes, "VGG-16")


def vgg19(num_classes: int = 1000) -> Sequential:
    """VGG-19 (configuration E) for 224x224x3 inputs — the variant the
    paper cites."""
    return _vgg(_VGG19_PLAN, num_classes, "VGG-19")
