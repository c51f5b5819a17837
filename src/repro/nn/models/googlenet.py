"""GoogLeNet (Szegedy et al. 2015).

"22 layers with about 6.8 million parameters" (section I) — the
parameter count is asserted in the test suite.  Built on the
:class:`~repro.nn.network.Graph` container because inception modules
branch four ways and merge in a Concat layer (the Concat entries of
Fig. 2's breakdown).

The auxiliary classifier heads are omitted (they are training aids
the paper's runtime profile does not attribute) — the 6.8 M parameter
figure the paper quotes likewise excludes them.
"""

from __future__ import annotations

from ..concat import Concat
from ..conv_layer import Conv2d
from ..dropout import Dropout
from ..fc import Linear
from ..flatten import Flatten
from ..lrn import LocalResponseNorm
from ..network import Graph
from ..pooling import AvgPool2d, MaxPool2d
from ..relu import ReLU

#: Inception channel plans: (1x1, 3x3 reduce, 3x3, 5x5 reduce, 5x5,
#: pool proj) — Table 1 of the GoogLeNet paper.
_INCEPTION_PLAN = {
    "3a": (64, 96, 128, 16, 32, 32),
    "3b": (128, 128, 192, 32, 96, 64),
    "4a": (192, 96, 208, 16, 48, 64),
    "4b": (160, 112, 224, 24, 64, 64),
    "4c": (128, 128, 256, 24, 64, 64),
    "4d": (112, 144, 288, 32, 64, 64),
    "4e": (256, 160, 320, 32, 128, 128),
    "5a": (256, 160, 320, 32, 128, 128),
    "5b": (384, 192, 384, 48, 128, 128),
}


def _inception(g: Graph, tag: str, input_node: str, in_ch: int,
               plan) -> str:
    """Add one inception module; returns the concat node name."""
    c1, r3, c3, r5, c5, pp = plan
    # 1x1 branch
    g.add(f"inc{tag}_1x1", Conv2d(in_ch, c1, 1, name=f"inc{tag}/1x1"), input_node)
    g.add(f"inc{tag}_1x1_relu", ReLU(name=f"inc{tag}/relu_1x1"), f"inc{tag}_1x1")
    # 3x3 branch
    g.add(f"inc{tag}_3x3r", Conv2d(in_ch, r3, 1,
                                   name=f"inc{tag}/3x3_reduce"), input_node)
    g.add(f"inc{tag}_3x3r_relu", ReLU(name=f"inc{tag}/relu_3x3r"), f"inc{tag}_3x3r")
    g.add(f"inc{tag}_3x3", Conv2d(r3, c3, 3, padding=1, name=f"inc{tag}/3x3"),
          f"inc{tag}_3x3r_relu")
    g.add(f"inc{tag}_3x3_relu", ReLU(name=f"inc{tag}/relu_3x3"), f"inc{tag}_3x3")
    # 5x5 branch
    g.add(f"inc{tag}_5x5r", Conv2d(in_ch, r5, 1,
                                   name=f"inc{tag}/5x5_reduce"), input_node)
    g.add(f"inc{tag}_5x5r_relu", ReLU(name=f"inc{tag}/relu_5x5r"), f"inc{tag}_5x5r")
    g.add(f"inc{tag}_5x5", Conv2d(r5, c5, 5, padding=2, name=f"inc{tag}/5x5"),
          f"inc{tag}_5x5r_relu")
    g.add(f"inc{tag}_5x5_relu", ReLU(name=f"inc{tag}/relu_5x5"), f"inc{tag}_5x5")
    # pool-projection branch
    g.add(f"inc{tag}_pool", MaxPool2d(3, 1, padding=1, name=f"inc{tag}/pool"),
          input_node)
    g.add(f"inc{tag}_proj", Conv2d(in_ch, pp, 1,
                                   name=f"inc{tag}/pool_proj"), f"inc{tag}_pool")
    g.add(f"inc{tag}_proj_relu", ReLU(name=f"inc{tag}/relu_proj"), f"inc{tag}_proj")
    # merge
    g.add(f"inc{tag}", Concat(name=f"inc{tag}/output"),
          [f"inc{tag}_1x1_relu", f"inc{tag}_3x3_relu",
           f"inc{tag}_5x5_relu", f"inc{tag}_proj_relu"])
    return f"inc{tag}"


def googlenet(num_classes: int = 1000) -> Graph:
    """Build GoogLeNet for 224x224x3 inputs."""
    g = Graph(name="GoogLeNet")
    g.add("conv1", Conv2d(3, 64, 7, stride=2, padding=3, name="conv1/7x7_s2"))
    g.add("relu1", ReLU(name="conv1/relu"), "conv1")
    g.add("pool1", MaxPool2d(3, 2, name="pool1/3x3_s2"), "relu1")
    g.add("norm1", LocalResponseNorm(5, name="pool1/norm1"), "pool1")
    g.add("conv2r", Conv2d(64, 64, 1, name="conv2/3x3_reduce"), "norm1")
    g.add("relu2r", ReLU(name="conv2/relu_reduce"), "conv2r")
    g.add("conv2", Conv2d(64, 192, 3, padding=1, name="conv2/3x3"), "relu2r")
    g.add("relu2", ReLU(name="conv2/relu"), "conv2")
    g.add("norm2", LocalResponseNorm(5, name="conv2/norm2"), "relu2")
    g.add("pool2", MaxPool2d(3, 2, name="pool2/3x3_s2"), "norm2")

    node = "pool2"
    in_ch = 192
    for tag in ("3a", "3b"):
        node = _inception(g, tag, node, in_ch, _INCEPTION_PLAN[tag])
        p = _INCEPTION_PLAN[tag]
        in_ch = p[0] + p[2] + p[4] + p[5]
    g.add("pool3", MaxPool2d(3, 2, name="pool3/3x3_s2"), node)
    node = "pool3"
    for tag in ("4a", "4b", "4c", "4d", "4e"):
        node = _inception(g, tag, node, in_ch, _INCEPTION_PLAN[tag])
        p = _INCEPTION_PLAN[tag]
        in_ch = p[0] + p[2] + p[4] + p[5]
    g.add("pool4", MaxPool2d(3, 2, name="pool4/3x3_s2"), node)
    node = "pool4"
    for tag in ("5a", "5b"):
        node = _inception(g, tag, node, in_ch, _INCEPTION_PLAN[tag])
        p = _INCEPTION_PLAN[tag]
        in_ch = p[0] + p[2] + p[4] + p[5]

    g.add("pool5", AvgPool2d(7, 1, name="pool5/7x7_s1"), node)
    g.add("drop", Dropout(0.4, name="pool5/drop"), "pool5")
    g.add("flatten", Flatten(name="flatten"), "drop")
    g.add("fc", Linear(1024, num_classes, name="loss3/classifier"),
          "flatten")
    return g
