"""LeNet-5 (LeCun et al. 1998) — the paper's Fig. 1 example.

Convolution, pooling and two fully-connected layers, "stacked by
convolutional layer, pooling layer and two fully connected layers"
(section II-A).  Sized for 32x32 single-channel digit images.
"""

from __future__ import annotations

from ..conv_layer import Conv2d
from ..fc import Linear
from ..flatten import Flatten
from ..network import Sequential
from ..pooling import MaxPool2d
from ..relu import ReLU


def lenet5(num_classes: int = 10) -> Sequential:
    """Build LeNet-5 with ``num_classes`` outputs (10 for digits)."""
    return Sequential(
        Conv2d(1, 6, 5, name="conv1"),
        ReLU(name="relu1"),
        MaxPool2d(2, 2, name="pool1"),
        Conv2d(6, 16, 5, name="conv2"),
        ReLU(name="relu2"),
        MaxPool2d(2, 2, name="pool2"),
        Flatten(name="flatten"),
        Linear(16 * 5 * 5, 120, name="fc3"),
        ReLU(name="relu3"),
        Linear(120, 84, name="fc4"),
        ReLU(name="relu4"),
        Linear(84, num_classes, name="fc5"),
        name="LeNet-5",
    )
