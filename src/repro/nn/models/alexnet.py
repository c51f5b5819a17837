"""AlexNet (Krizhevsky et al. 2012), single-tower Caffe variant.

"8 layers (5 convolutional layers and 3 fully-connected layers) and
more than 60 million parameters" (section I) — the parameter count is
asserted in the test suite.
"""

from __future__ import annotations

from ..conv_layer import Conv2d
from ..dropout import Dropout
from ..fc import Linear
from ..flatten import Flatten
from ..lrn import LocalResponseNorm
from ..network import Sequential
from ..pooling import MaxPool2d
from ..relu import ReLU


def alexnet(num_classes: int = 1000, grouped: bool = False) -> Sequential:
    """Build AlexNet for 227x227x3 inputs.

    ``grouped=True`` restores the original paper's two-tower grouping
    (groups=2 on conv2/conv4/conv5 — the layers Krizhevsky split
    across his two GTX 580s); the default is the single-tower Caffe
    variant the ICPP paper's era benchmarked.
    """
    g = 2 if grouped else 1
    return Sequential(
        Conv2d(3, 96, 11, stride=4, name="conv1"),
        ReLU(name="relu1"),
        LocalResponseNorm(5, name="norm1"),
        MaxPool2d(3, 2, name="pool1"),
        Conv2d(96, 256, 5, padding=2, groups=g, name="conv2"),
        ReLU(name="relu2"),
        LocalResponseNorm(5, name="norm2"),
        MaxPool2d(3, 2, name="pool2"),
        Conv2d(256, 384, 3, padding=1, name="conv3"),
        ReLU(name="relu3"),
        Conv2d(384, 384, 3, padding=1, groups=g, name="conv4"),
        ReLU(name="relu4"),
        Conv2d(384, 256, 3, padding=1, groups=g, name="conv5"),
        ReLU(name="relu5"),
        MaxPool2d(3, 2, name="pool5"),
        Flatten(name="flatten"),
        Linear(256 * 6 * 6, 4096, name="fc6"),
        ReLU(name="relu6"),
        Dropout(0.5, name="drop6"),
        Linear(4096, 4096, name="fc7"),
        ReLU(name="relu7"),
        Dropout(0.5, name="drop7"),
        Linear(4096, num_classes, name="fc8"),
        name="AlexNet",
    )
