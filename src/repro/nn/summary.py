"""Model summary printer.

A torchsummary-style table — layer, type, output shape, parameter
count — for any container that implements ``shape_walk``, plus
aggregate statistics (total parameters, activation memory of one
forward pass).  Used by the examples; the paper's model-size claims in
section I ("more than 60 million parameters", "about 6.8 million
parameters") print straight out of this.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.report import table


def _shape_str(shape) -> str:
    if isinstance(shape, list):
        return " + ".join(str(tuple(s)) for s in shape)
    return str(tuple(shape))


def _elems(shape) -> int:
    if isinstance(shape, list):
        return sum(int(np.prod(s)) for s in shape)
    return int(np.prod(shape))


def summarize(model, input_shape: Tuple[int, ...],
              itemsize: int = 4) -> str:
    """Render the per-layer summary table of a model."""
    walk = model.shape_walk(input_shape)
    rows: List[List] = []
    total_params = 0
    activation_bytes = _elems(input_shape) * itemsize
    for layer, in_shape, out_shape in walk:
        params = layer.parameter_count()
        total_params += params
        activation_bytes += _elems(out_shape) * itemsize
        rows.append([layer.name, layer.layer_type, _shape_str(out_shape),
                     f"{params:,}"])
    body = table(["layer", "type", "output shape", "params"], rows,
                 title=f"{getattr(model, 'name', 'model')} on input "
                       f"{tuple(input_shape)}")
    footer = (
        f"\ntotal parameters: {total_params:,} "
        f"({total_params * itemsize / 2**20:.1f} MB fp32)\n"
        f"forward activations: {activation_bytes / 2**20:.1f} MB "
        f"(x2-3 with gradients during training)"
    )
    return body + footer


def parameter_breakdown(model) -> List[Tuple[str, int]]:
    """(parameter name, element count), largest first."""
    out = [(p.name or "unnamed", p.size) for p in model.parameters()]
    out.sort(key=lambda t: -t[1])
    return out
