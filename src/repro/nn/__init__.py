"""CNN model descriptions and whole-model runtime simulation.

This subpackage provides what the paper's "high-level workload
profiling" (section IV-A) needs: the layer types the four profiled
models are built from (convolution, pooling, ReLU, fully-connected,
LRN, concat, dropout), described by their geometry, ``layer_type``,
``output_shape`` and parameter shapes; the AlexNet / VGG / OverFeat /
GoogLeNet architectures themselves (with LeNet-5 and ResNet); and a
simulator that attributes device time to every layer of a training
iteration (Fig. 2's runtime breakdown).

A model holds no weights and runs no arithmetic: the convolution
numerics live in :mod:`repro.conv` and :mod:`repro.frameworks`.
"""

from .module import Layer, Parameter
from .conv_layer import Conv2d
from .pooling import MaxPool2d, AvgPool2d
from .relu import ReLU
from .fc import Linear
from .lrn import LocalResponseNorm
from .concat import Concat
from .add import Add
from .batchnorm import BatchNorm2d
from .dropout import Dropout
from .flatten import Flatten
from .network import Sequential, Graph
from .summary import parameter_breakdown, summarize

__all__ = [
    "Layer",
    "Parameter",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "ReLU",
    "Linear",
    "LocalResponseNorm",
    "Concat",
    "Add",
    "BatchNorm2d",
    "Dropout",
    "Flatten",
    "Sequential",
    "Graph",
    "summarize",
    "parameter_breakdown",
]
