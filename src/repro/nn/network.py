"""Network containers: a sequential stack and a DAG graph.

``Sequential`` covers LeNet-5 / AlexNet / VGG / OverFeat;
``Graph`` adds the branch-and-concat structure GoogLeNet's inception
modules need (layers are inserted with named inputs; ``Concat`` nodes
take several).  Both walk shapes only (``output_shape`` and
``shape_walk``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ShapeError
from .module import Layer, Parameter


def _multi_input(layer: Layer) -> bool:
    """Layers that consume a *list* of inputs (Concat, Add)."""
    return getattr(layer, "multi_input", False)


class Sequential(Layer):
    """A linear stack of layers."""

    layer_type = "Container"

    def __init__(self, *layers: Layer, name: str = ""):
        super().__init__(name or "sequential")
        self.layers: List[Layer] = list(layers)
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, Layer):
                raise TypeError(f"layer {i} is not a Layer: {layer!r}")

    def add(self, layer: Layer) -> "Sequential":
        if not isinstance(layer, Layer):
            raise TypeError(f"not a Layer: {layer!r}")
        self.layers.append(layer)
        return self

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def shape_walk(self, input_shape: Tuple[int, ...]) -> List[Tuple[Layer, Tuple[int, ...], Tuple[int, ...]]]:
        """(layer, in_shape, out_shape) for every layer — the model
        inventory the Fig. 2 simulator consumes."""
        walk = []
        shape = tuple(input_shape)
        for layer in self.layers:
            out = layer.output_shape(shape)
            walk.append((layer, shape, out))
            shape = out
        return walk

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class _Node:
    def __init__(self, name: str, layer: Layer, inputs: Sequence[str]):
        self.name = name
        self.layer = layer
        self.inputs = list(inputs)


INPUT = "input"


class Graph(Layer):
    """A DAG of layers.

    Nodes must be added after their inputs (insertion order is the
    topological order).  The special name ``"input"`` denotes the graph
    input; the last added node is the output unless ``set_output`` is
    called.
    """

    layer_type = "Container"

    def __init__(self, name: str = ""):
        super().__init__(name or "graph")
        self._nodes: Dict[str, _Node] = {}
        self._order: List[str] = []
        self._output: Optional[str] = None

    def add(self, name: str, layer: Layer,
            inputs: Union[str, Sequence[str]] = INPUT) -> "Graph":
        if name == INPUT or name in self._nodes:
            raise ShapeError(f"duplicate or reserved node name {name!r}")
        if isinstance(inputs, str):
            inputs = [inputs]
        if not inputs:
            raise ShapeError(f"node {name!r} needs at least one input")
        for src in inputs:
            if src != INPUT and src not in self._nodes:
                raise ShapeError(
                    f"node {name!r} consumes undefined node {src!r} "
                    f"(insertion order must be topological)"
                )
        if len(inputs) > 1 and not _multi_input(layer):
            raise ShapeError(
                f"node {name!r}: only multi-input layers (Concat, Add) "
                f"accept multiple inputs"
            )
        self._nodes[name] = _Node(name, layer, inputs)
        self._order.append(name)
        self._output = name
        return self

    def set_output(self, name: str) -> "Graph":
        if name not in self._nodes:
            raise ShapeError(f"unknown node {name!r}")
        self._output = name
        return self

    @property
    def output_node(self) -> str:
        if self._output is None:
            raise ShapeError("graph has no nodes")
        return self._output

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for name in self._order:
            params.extend(self._nodes[name].layer.parameters())
        return params

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shapes = self._shape_map(input_shape)
        return shapes[self.output_node]

    def _shape_map(self, input_shape: Tuple[int, ...]) -> Dict[str, Tuple[int, ...]]:
        shapes: Dict[str, Tuple[int, ...]] = {INPUT: tuple(input_shape)}
        for name in self._order:
            node = self._nodes[name]
            ins = [shapes[s] for s in node.inputs]
            if _multi_input(node.layer):
                shapes[name] = node.layer.output_shape(ins)
            else:
                shapes[name] = node.layer.output_shape(ins[0])
        return shapes

    def shape_walk(self, input_shape: Tuple[int, ...]) -> List[Tuple[Layer, Tuple[int, ...], Tuple[int, ...]]]:
        """(layer, in_shape, out_shape) per node, in topological order."""
        shapes = self._shape_map(input_shape)
        walk = []
        for name in self._order:
            node = self._nodes[name]
            in_shape = shapes[node.inputs[0]]
            if _multi_input(node.layer):
                in_shape = [shapes[s] for s in node.inputs]
            walk.append((node.layer, in_shape, shapes[name]))
        return walk

    def __len__(self) -> int:
        return len(self._order)
