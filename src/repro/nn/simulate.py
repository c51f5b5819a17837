"""Whole-model runtime simulation — the Fig. 2 substrate.

Walks a model's layers (via ``shape_walk``) and attributes simulated
K40c time to each one for a full training iteration (one forward plus
one backward propagation, as in section IV-A).  Convolution layers go
through a selected :mod:`repro.frameworks` implementation; the other
layer types get first-order kernel models:

* pooling / ReLU / LRN / dropout / concat are bandwidth-bound
  streaming kernels (so many bytes read and written per pass);
* FC layers are three cuBLAS GEMMs (forward, dgrad, wgrad).

This reproduces the paper's observation that convolution dominates
(86-94 %) because its FLOPs dwarf everything else while the streaming
layers move only a few activation-sized buffers.

The walk reports into the observability plane
(:func:`repro.obs.context.get_obs`): layer counters always, and — when
a tracer with an advanceable clock is active — one ``nn.iteration``
span containing per-layer ``nn.forward`` spans in layer order followed
by ``nn.backward`` spans in reverse, each sized by its simulated time,
so a model breakdown lands on the same timeline the serving spans use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.evalcache import evaluate
from ..errors import ShapeError
from ..frameworks.base import ConvImplementation
from ..frameworks.calibration import (FORWARD_FRACTION, GEMM_CALIBRATION,
                                      ITEMSIZE, TABLE2_RESOURCES)
from ..frameworks.registry import get_implementation
from ..frameworks._plans import gemm_spec, pointwise_spec
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.profiler import Profiler
from ..obs.context import get_obs
from .add import Add
from .batchnorm import BatchNorm2d
from .concat import Concat
from .conv_layer import Conv2d
from .dropout import Dropout
from .fc import Linear
from .flatten import Flatten
from .lrn import LocalResponseNorm
from .module import Layer
from .pooling import _Pool2d
from .relu import ReLU


@dataclass(frozen=True)
class LayerCost:
    """Simulated time of one layer for one training iteration."""

    layer: Layer
    layer_type: str
    time_s: float
    #: Forward / backward split of :attr:`time_s` (they sum to it).
    forward_s: float = 0.0
    backward_s: float = 0.0


def _elems(shape) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _streaming_time(prof: Profiler, name: str, passes_bytes: float) -> None:
    """Launch a bandwidth-bound kernel moving ``passes_bytes`` each way."""
    res = TABLE2_RESOURCES["caffe"]  # generic framework kernels
    prof.launch([pointwise_spec(name, res, passes_bytes)])


def _fc_time(fwd: Profiler, bwd: Profiler, layer: Linear,
             batch: int) -> None:
    """Three GEMMs of an FC layer's training iteration."""
    res = TABLE2_RESOURCES["caffe"]
    cal = GEMM_CALIBRATION["caffe"]
    m, k = layer.out_features, layer.in_features
    fwd.launch([gemm_spec("sgemm_fc_fwd", res, cal, m, batch, k)])
    bwd.launch([gemm_spec("sgemm_fc_bgrad", res, cal, k, batch, m),
                gemm_spec("sgemm_fc_wgrad", res, cal, m, k, batch)])


def layer_time_split(layer: Layer, in_shape, out_shape,
                     conv_impl: ConvImplementation,
                     device: DeviceSpec = K40C) -> Tuple[float, float]:
    """Simulated (forward, backward) time of a single layer, seconds.

    Convolutions run as whole-iteration kernel plans, so their split
    applies :data:`~repro.frameworks.calibration.FORWARD_FRACTION`;
    every other layer type launches its forward- and backward-pass
    kernels into separate profilers and reports the exact split.
    """
    if isinstance(layer, Conv2d):
        config = layer.conv_config(in_shape)
        if not conv_impl.supports(config):
            # Real frameworks fall back to their general-purpose conv
            # op where the selected one cannot run (e.g. Theano-fft on
            # AlexNet's stride-4 conv1 falls back to CorrMM).
            conv_impl = get_implementation("theano-corrmm")
        total = evaluate(conv_impl, config, device).gpu_time_s
        forward = total * FORWARD_FRACTION
        return forward, total - forward

    fwd, bwd = Profiler(device), Profiler(device)
    in_bytes = float(_elems(in_shape)) * ITEMSIZE
    out_bytes = float(_elems(out_shape)) * ITEMSIZE

    if isinstance(layer, Linear):
        _fc_time(fwd, bwd, layer, in_shape[0])
    elif isinstance(layer, _Pool2d):
        # fwd: read x, write y; bwd: read dy, scatter dx.
        _streaming_time(fwd, f"{layer.name}_fwd", in_bytes + out_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", in_bytes + out_bytes)
    elif isinstance(layer, ReLU):
        _streaming_time(fwd, f"{layer.name}_fwd", 2 * in_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", 2 * in_bytes)
    elif isinstance(layer, LocalResponseNorm):
        # LRN makes several sweeps over the activations per pass.
        _streaming_time(fwd, f"{layer.name}_fwd", 3 * in_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", 4 * in_bytes)
    elif isinstance(layer, Concat):
        _streaming_time(fwd, f"{layer.name}_fwd", 2 * out_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", 2 * out_bytes)
    elif isinstance(layer, BatchNorm2d):
        # Two statistics/normalise sweeps forward, three backward
        # (xhat, reductions, dx) — all bandwidth-bound.
        _streaming_time(fwd, f"{layer.name}_fwd", 2 * in_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", 3 * in_bytes)
    elif isinstance(layer, Add):
        _streaming_time(fwd, f"{layer.name}_fwd", 2 * out_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", out_bytes)
    elif isinstance(layer, Dropout):
        _streaming_time(fwd, f"{layer.name}_fwd", 2 * in_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", 2 * in_bytes)
    elif isinstance(layer, Flatten):
        return 0.0, 0.0  # a reshape is free on device
    else:
        # Unknown layer type: charge one streaming pass each way.
        _streaming_time(fwd, f"{layer.name}_fwd", in_bytes + out_bytes)
        _streaming_time(bwd, f"{layer.name}_bwd", in_bytes + out_bytes)
    return fwd.gpu_time(), bwd.gpu_time()


def layer_time(layer: Layer, in_shape, out_shape,
               conv_impl: ConvImplementation,
               device: DeviceSpec = K40C) -> float:
    """Simulated training-iteration time of a single layer, seconds."""
    forward, backward = layer_time_split(layer, in_shape, out_shape,
                                         conv_impl, device)
    return forward + backward


def model_breakdown(model, input_shape: Tuple[int, ...],
                    implementation: str = "cudnn",
                    device: DeviceSpec = K40C) -> List[LayerCost]:
    """Per-layer simulated times of one training iteration.

    ``model`` must provide ``shape_walk`` (both containers do).
    Concat inputs arrive as a list of shapes; its cost uses the output.
    """
    impl = get_implementation(implementation)
    walk = model.shape_walk(input_shape)
    obs = get_obs()
    costs: List[LayerCost] = []
    for layer, in_shape, out_shape in walk:
        if isinstance(in_shape, list):  # Concat
            first = in_shape[0]
        else:
            first = in_shape
        forward, backward = layer_time_split(layer, first, out_shape,
                                             impl, device)
        obs.registry.counter("nn_layers_total",
                             type=layer.layer_type).inc()
        obs.registry.histogram("nn_layer_time_seconds").observe(
            forward + backward)
        costs.append(LayerCost(layer=layer, layer_type=layer.layer_type,
                               time_s=forward + backward,
                               forward_s=forward, backward_s=backward))
    obs.registry.counter("nn_iterations_total").inc()
    _trace_iteration(obs.tracer, costs, type(model).__name__,
                     impl.paper_name)
    return costs


def _trace_iteration(tracer, costs: Sequence[LayerCost], model: str,
                     implementation: str) -> None:
    """Record one training iteration as a span tree: ``nn.iteration``
    containing per-layer ``nn.forward`` spans in layer order, then
    ``nn.backward`` spans in reverse (the BP order).

    Needs a tracer whose clock can ``advance`` (a
    :class:`~repro.gpusim.timing.SimClock`); the simulated layer times
    are consumed from that clock, so the spans land back-to-back on
    the session's timeline.  A disabled tracer skips all of it.
    """
    if not tracer.enabled or not hasattr(tracer.clock, "advance"):
        return
    clock = tracer.clock
    with tracer.span("nn.iteration", cat="nn", model=model,
                     implementation=implementation, layers=len(costs)):
        for cost in costs:
            with tracer.span("nn.forward", cat="nn",
                             layer=cost.layer.name, type=cost.layer_type):
                clock.advance(cost.forward_s)
        for cost in reversed(costs):
            with tracer.span("nn.backward", cat="nn",
                             layer=cost.layer.name, type=cost.layer_type):
                clock.advance(cost.backward_s)


def breakdown_by_type(costs: Sequence[LayerCost]) -> Dict[str, float]:
    """Aggregate layer costs into Fig. 2's layer-type shares
    (fractions of total time, summing to 1)."""
    total = sum(c.time_s for c in costs)
    if total <= 0:
        raise ShapeError("model has no simulated runtime")
    shares: Dict[str, float] = {}
    for c in costs:
        if c.time_s == 0:
            continue
        shares[c.layer_type] = shares.get(c.layer_type, 0.0) + c.time_s / total
    return shares
