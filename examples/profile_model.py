#!/usr/bin/env python
"""Profile a full CNN model: hotspot layers and hotspot kernels.

The paper's two-level methodology on one model: first the Fig. 2
layer-type breakdown of a training iteration, then a Fig. 4 kernel
breakdown of the heaviest convolutional layer.

    python examples/profile_model.py                 # AlexNet, cuDNN
    python examples/profile_model.py GoogLeNet fbfft
    python examples/profile_model.py ResNet-18 cudnn
"""

import sys

from repro.core.hotspot_kernels import hotspot_kernel_analysis
from repro.frameworks.registry import get_implementation
from repro.nn.conv_layer import Conv2d
from repro.nn.models import model_registry
from repro.nn.simulate import breakdown_by_type, model_breakdown
from repro.core.report import bar_breakdown


def main(model_name: str = "AlexNet", impl_name: str = "cudnn") -> None:
    ctor, shape = model_registry()[model_name]
    model = ctor()
    batch = 128
    input_shape = (batch,) + shape

    print(f"=== {model_name}, batch {batch}, implementation {impl_name} ===\n")
    costs = model_breakdown(model, input_shape, implementation=impl_name)
    total = sum(c.time_s for c in costs)
    print(f"simulated training iteration: {total * 1000:.1f} ms on a K40c\n")
    print(bar_breakdown(breakdown_by_type(costs),
                        title="runtime by layer type (Fig. 2 view):"))

    # The single hottest convolutional layer, dissected kernel by
    # kernel.
    conv_costs = [c for c in costs if isinstance(c.layer, Conv2d)]
    hottest = max(conv_costs, key=lambda c: c.time_s)
    walk = model.shape_walk(input_shape)
    in_shape = next(s for l, s, _ in walk if l is hottest.layer)
    config = hottest.layer.conv_config(in_shape)
    print(f"\nhottest conv layer: {hottest.layer.name}  "
          f"({hottest.time_s * 1000:.1f} ms, config {config.tuple5}, "
          f"c={config.channels})\n")
    impl = get_implementation(impl_name)
    for bd in hotspot_kernel_analysis(config, implementations=[impl]):
        print(bd.render())


if __name__ == "__main__":
    args = sys.argv[1:]
    main(args[0] if args else "AlexNet",
         args[1] if len(args) > 1 else "cudnn")
