"""Deterministic traffic generation.

Arrival traces are a pure function of a :class:`TrafficSpec` — the
seed drives a single :func:`repro.rng.make_rng` generator, virtual
time never touches the wall clock, and two runs with the same spec are
byte-identical.  Two arrival processes:

* ``poisson`` — homogeneous Poisson arrivals at ``rate_rps``;
* ``bursty`` — an on/off modulated Poisson: within each
  ``burst_period_s`` the first half runs at ``rate_rps *
  burst_factor``, the second at ``rate_rps / burst_factor`` (the
  spiky diurnal shape that stresses admission control).

Each arrival requests one layer shape drawn from the model mix —
real conv geometries of the paper's Fig. 2 networks (AlexNet, VGG,
GoogLeNet), spanning the regimes where different implementations win:
large-kernel stem layers, strided stems (FFT-infeasible), and deep
small-kernel 3x3 layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

from ..config import ConvConfig
from ..rng import DEFAULT_SEED, make_rng
from .request import ShapeKey, shape_key

#: model -> [(layer name, batch-1 conv geometry)].  Shapes follow the
#: reference models in :mod:`repro.nn.models` (AlexNet 227 input, VGG
#: 224, GoogLeNet 224 with its 7x7/2 stem).  Each model contributes
#: its stem plus the deep small-spatial layers that make up the bulk
#: of a real network — the regime where batching amortizes best (a
#: 224x224 stem fills the simulated GPU even at batch 1; a 13x13
#: layer does not).
MODEL_SHAPES: Dict[str, List[Tuple[str, ConvConfig]]] = {
    "AlexNet": [
        ("conv1", ConvConfig(batch=1, input_size=227, filters=96,
                             kernel_size=11, stride=4, channels=3)),
        ("conv2", ConvConfig(batch=1, input_size=27, filters=256,
                             kernel_size=5, stride=1, channels=96, padding=2)),
        ("conv3", ConvConfig(batch=1, input_size=13, filters=384,
                             kernel_size=3, stride=1, channels=256, padding=1)),
        ("conv4", ConvConfig(batch=1, input_size=13, filters=384,
                             kernel_size=3, stride=1, channels=384, padding=1)),
        ("conv5", ConvConfig(batch=1, input_size=13, filters=256,
                             kernel_size=3, stride=1, channels=384, padding=1)),
    ],
    "VGG": [
        ("conv1_1", ConvConfig(batch=1, input_size=224, filters=64,
                               kernel_size=3, stride=1, channels=3, padding=1)),
        ("conv3_1", ConvConfig(batch=1, input_size=56, filters=256,
                               kernel_size=3, stride=1, channels=128, padding=1)),
        ("conv4_1", ConvConfig(batch=1, input_size=28, filters=512,
                               kernel_size=3, stride=1, channels=256, padding=1)),
        ("conv5_1", ConvConfig(batch=1, input_size=14, filters=512,
                               kernel_size=3, stride=1, channels=512, padding=1)),
    ],
    "GoogLeNet": [
        ("conv1", ConvConfig(batch=1, input_size=224, filters=64,
                             kernel_size=7, stride=2, channels=3, padding=3)),
        ("inception3a_3x3", ConvConfig(batch=1, input_size=28, filters=128,
                                       kernel_size=3, stride=1, channels=96,
                                       padding=1)),
        ("inception4a_3x3", ConvConfig(batch=1, input_size=14, filters=208,
                                       kernel_size=3, stride=1, channels=96,
                                       padding=1)),
        ("inception4a_5x5", ConvConfig(batch=1, input_size=14, filters=48,
                                       kernel_size=5, stride=1, channels=16,
                                       padding=2)),
        ("inception5a_3x3", ConvConfig(batch=1, input_size=7, filters=320,
                                       kernel_size=3, stride=1, channels=160,
                                       padding=1)),
    ],
}


class Arrival(NamedTuple):
    """One single-sample inference request: an immutable record.

    Built once per arrival by :func:`generate_trace` and served as
    is, so it is a ``NamedTuple``: built in one call, with no
    instance ``__dict__``, and assigning to a field raises.  Like any
    tuple it compares equal to a plain tuple of the same fields.

    Attributes
    ----------
    rid:
        Monotonic request id (trace order).
    t_s:
        Simulated arrival time.
    model / layer:
        Provenance labels ("VGG", "conv1_1") — reporting only.
    key:
        The layer shape; the batching identity.
    """

    rid: int
    t_s: float
    model: str
    layer: str
    key: ShapeKey


@dataclass(frozen=True)
class TrafficSpec:
    """Parameters of one deterministic traffic trace."""

    duration_s: float = 60.0
    rate_rps: float = 200.0
    pattern: str = "poisson"          # 'poisson' | 'bursty'
    seed: int = DEFAULT_SEED
    models: Tuple[str, ...] = ("AlexNet", "VGG", "GoogLeNet")
    burst_factor: float = 4.0
    burst_period_s: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.pattern not in ("poisson", "bursty"):
            raise ValueError(f"pattern must be 'poisson' or 'bursty', "
                             f"got {self.pattern!r}")
        if self.burst_factor < 1:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        for model in self.models:
            if model not in MODEL_SHAPES:
                raise KeyError(f"unknown model {model!r}; "
                               f"options: {sorted(MODEL_SHAPES)}")


def _instant_rate(spec: TrafficSpec, t_s: float) -> float:
    if spec.pattern == "poisson":
        return spec.rate_rps
    in_burst = (t_s % spec.burst_period_s) < spec.burst_period_s / 2
    return spec.rate_rps * spec.burst_factor if in_burst \
        else spec.rate_rps / spec.burst_factor


def generate_trace(spec: TrafficSpec = TrafficSpec()) -> List[Arrival]:
    """Materialise the arrival trace for ``spec`` (sorted by time).

    Three draws per arrival, in this order: the exponential gap, the
    model, the layer.  Drawing them in bulk would change the stream,
    and with it every trace and report digest.
    """
    rng = make_rng(spec.seed)
    exponential, integers = rng.exponential, rng.integers
    mix = [(model, [(layer, shape_key(config))
                    for layer, config in MODEL_SHAPES[model]])
           for model in spec.models]
    n_models = len(mix)
    gap = 1.0 / spec.rate_rps if spec.pattern == "poisson" else None
    duration_s = spec.duration_s
    arrivals: List[Arrival] = []
    t = 0.0
    rid = 0
    while True:
        t += exponential(gap if gap is not None
                         else 1.0 / _instant_rate(spec, t))
        if t >= duration_s:
            break
        model, layers = mix[int(integers(n_models))]
        layer, key = layers[int(integers(len(layers)))]
        arrivals.append(Arrival(rid, t, model, layer, key))
        rid += 1
    return arrivals


def check_order(trace: Sequence[Arrival]) -> None:
    """Raise :class:`ValueError` naming the first arrival of ``trace``
    that is out of ``(t_s, rid)`` order, the order
    :func:`generate_trace` emits.  One pass; nothing is sorted."""
    last_t, last_rid = float("-inf"), 0
    for a in trace:
        t = a.t_s
        if t < last_t or (t == last_t and a.rid < last_rid):
            raise ValueError(
                f"trace is not in arrival order: rid {a.rid} "
                f"(t_s={t!r}) follows rid {last_rid} (t_s={last_t!r})")
        last_t, last_rid = t, a.rid


def trace_summary(trace: Sequence[Arrival], spec: TrafficSpec) -> str:
    """Human-readable description of a generated trace."""
    per_model: Dict[str, int] = {}
    for a in trace:
        per_model[a.model] = per_model.get(a.model, 0) + 1
    shapes = len({a.key for a in trace})
    lines = [
        f"trace: {len(trace)} arrivals over {spec.duration_s:.1f} simulated s "
        f"({spec.pattern}, seed {spec.seed})",
        f"mean offered rate     {len(trace) / spec.duration_s:10.1f} req/s",
        f"distinct layer shapes {shapes:6d}",
    ]
    for model in sorted(per_model):
        lines.append(f"  {model:12s} {per_model[model]:6d} requests")
    return "\n".join(lines)
