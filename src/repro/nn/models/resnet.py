"""ResNet (He et al., CVPR 2016) — the next-generation extension model.

Published in the same year as the paper, ResNet is the architecture
the benchmarked frameworks had to carry next: all-3x3 convolutions
(squarely in the regime where the paper's small-kernel findings — and
the Winograd what-if — apply), batch normalisation after every
convolution, and residual ``Add`` merges.

Provided as an *extension* (not part of the Fig. 2 reproduction set):
``resnet18`` and ``resnet34`` built on the Graph container.
"""

from __future__ import annotations

from ..add import Add
from ..batchnorm import BatchNorm2d
from ..conv_layer import Conv2d
from ..fc import Linear
from ..flatten import Flatten
from ..network import Graph
from ..pooling import AvgPool2d, MaxPool2d
from ..relu import ReLU

#: (blocks per stage) for the two basic-block variants.
_PLANS = {
    18: (2, 2, 2, 2),
    34: (3, 4, 6, 3),
}
_STAGE_CHANNELS = (64, 128, 256, 512)


def _conv_bn(g: Graph, name: str, src: str, in_ch: int, out_ch: int,
             kernel: int, stride: int, padding: int,
             relu: bool = True) -> str:
    g.add(f"{name}_conv", Conv2d(in_ch, out_ch, kernel, stride=stride,
                                 padding=padding, bias=False,
                                 name=f"{name}/conv"), src)
    g.add(f"{name}_bn", BatchNorm2d(out_ch, name=f"{name}/bn"),
          f"{name}_conv")
    if not relu:
        return f"{name}_bn"
    g.add(f"{name}_relu", ReLU(name=f"{name}/relu"), f"{name}_bn")
    return f"{name}_relu"


def _basic_block(g: Graph, name: str, src: str, in_ch: int, out_ch: int,
                 stride: int) -> str:
    """Two 3x3 conv-bn stages plus the residual shortcut."""
    a = _conv_bn(g, f"{name}a", src, in_ch, out_ch, 3, stride, 1)
    b = _conv_bn(g, f"{name}b", a, out_ch, out_ch, 3, 1, 1, relu=False)
    shortcut = src
    if stride != 1 or in_ch != out_ch:
        shortcut = _conv_bn(g, f"{name}s", src, in_ch, out_ch, 1, stride, 0,
                            relu=False)
    g.add(f"{name}_add", Add(name=f"{name}/add"), [b, shortcut])
    g.add(f"{name}_out", ReLU(name=f"{name}/relu_out"), f"{name}_add")
    return f"{name}_out"


def _resnet(depth: int, num_classes: int) -> Graph:
    blocks = _PLANS[depth]
    g = Graph(name=f"ResNet-{depth}")
    node = _conv_bn(g, "stem", "input", 3, 64, 7, 2, 3)
    g.add("stem_pool", MaxPool2d(3, 2, padding=1, ceil_mode=False,
                                 name="stem/pool"), node)
    node = "stem_pool"
    in_ch = 64
    for stage, (n_blocks, out_ch) in enumerate(zip(blocks, _STAGE_CHANNELS),
                                               start=1):
        for block in range(n_blocks):
            stride = 2 if (stage > 1 and block == 0) else 1
            node = _basic_block(g, f"s{stage}b{block}", node, in_ch, out_ch,
                                stride)
            in_ch = out_ch
    g.add("head_pool", AvgPool2d(7, 1, name="head/pool"), node)
    g.add("head_flat", Flatten(name="head/flatten"), "head_pool")
    g.add("head_fc", Linear(512, num_classes, name="head/fc"),
          "head_flat")
    return g


def resnet18(num_classes: int = 1000) -> Graph:
    """ResNet-18 for 224x224x3 inputs (~11.7 M parameters)."""
    return _resnet(18, num_classes)


def resnet34(num_classes: int = 1000) -> Graph:
    """ResNet-34 for 224x224x3 inputs (~21.8 M parameters)."""
    return _resnet(34, num_classes)
