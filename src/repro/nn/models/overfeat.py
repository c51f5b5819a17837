"""OverFeat (Sermanet et al. 2013), "fast" model.

Five convolutional stages and three fully-connected layers over
231x231x3 inputs.
"""

from __future__ import annotations

from ..conv_layer import Conv2d
from ..dropout import Dropout
from ..fc import Linear
from ..flatten import Flatten
from ..network import Sequential
from ..pooling import MaxPool2d
from ..relu import ReLU


def overfeat(num_classes: int = 1000) -> Sequential:
    """Build the OverFeat fast model."""
    return Sequential(
        Conv2d(3, 96, 11, stride=4, name="conv1"),
        ReLU(name="relu1"),
        MaxPool2d(2, 2, ceil_mode=False, name="pool1"),
        Conv2d(96, 256, 5, name="conv2"),
        ReLU(name="relu2"),
        MaxPool2d(2, 2, ceil_mode=False, name="pool2"),
        Conv2d(256, 512, 3, padding=1, name="conv3"),
        ReLU(name="relu3"),
        Conv2d(512, 1024, 3, padding=1, name="conv4"),
        ReLU(name="relu4"),
        Conv2d(1024, 1024, 3, padding=1, name="conv5"),
        ReLU(name="relu5"),
        MaxPool2d(2, 2, ceil_mode=False, name="pool5"),
        Flatten(name="flatten"),
        Linear(1024 * 6 * 6, 3072, name="fc6"),
        ReLU(name="relu6"),
        Dropout(0.5, name="drop6"),
        Linear(3072, 4096, name="fc7"),
        ReLU(name="relu7"),
        Dropout(0.5, name="drop7"),
        Linear(4096, num_classes, name="fc8"),
        name="OverFeat",
    )
