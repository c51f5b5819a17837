"""Tests for the nn layer's observability instrumentation."""

import pytest

from repro.gpusim.timing import SimClock
from repro.nn.models import lenet5
from repro.nn.simulate import model_breakdown
from repro.obs.context import Observability, obs_session
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SimTracer


SHAPE = (64, 1, 32, 32)


def traced_obs():
    return Observability(tracer=SimTracer(SimClock()),
                         registry=MetricsRegistry())


def iteration_root(tracer):
    (root,) = [s for s in tracer.roots if s.name == "nn.iteration"]
    return root


class TestModelBreakdownTracing:
    def test_iteration_span_tree(self):
        obs = traced_obs()
        with obs_session(obs):
            costs = model_breakdown(lenet5(), SHAPE)
        root = iteration_root(obs.tracer)
        assert root.attrs["model"] == "Sequential"
        assert root.attrs["implementation"] == "cuDNN"
        assert root.attrs["layers"] == len(costs)
        fwd = [s for s in root.children if s.name == "nn.forward"]
        bwd = [s for s in root.children if s.name == "nn.backward"]
        assert len(fwd) == len(bwd) == len(costs)
        # forward spans in layer order, backward in BP (reverse) order
        assert [s.attrs["layer"] for s in fwd] == \
            [c.layer.name for c in costs]
        assert [s.attrs["layer"] for s in bwd] == \
            [c.layer.name for c in reversed(costs)]
        # Each conv layer's time is one evaluation through the cache;
        # nothing else sits beside the iteration tree.
        evals = [s for s in obs.tracer.roots if s.name == "evalcache.evaluate"]
        convs = [c for c in costs if c.layer_type == "Conv"]
        assert len(evals) == len(convs) == 2
        assert len(obs.tracer.roots) == 1 + len(evals)

    def test_spans_consume_simulated_time(self):
        obs = traced_obs()
        with obs_session(obs):
            costs = model_breakdown(lenet5(), SHAPE)
        root = iteration_root(obs.tracer)
        total = sum(c.time_s for c in costs)
        assert root.duration_s == pytest.approx(total)
        fwd = [s for s in root.children if s.name == "nn.forward"]
        assert [s.duration_s for s in fwd] == \
            pytest.approx([c.forward_s for c in costs])

    def test_costs_unchanged_by_tracing(self):
        untraced = model_breakdown(lenet5(), SHAPE)
        with obs_session(traced_obs()):
            traced = model_breakdown(lenet5(), SHAPE)
        assert [c.time_s for c in traced] == [c.time_s for c in untraced]

    def test_forward_backward_split_sums_to_total(self):
        for cost in model_breakdown(lenet5(), SHAPE):
            assert cost.forward_s + cost.backward_s == \
                pytest.approx(cost.time_s)
            assert cost.forward_s >= 0.0 and cost.backward_s >= 0.0

    def test_counters_and_histogram(self):
        obs = traced_obs()
        with obs_session(obs):
            costs = model_breakdown(lenet5(), SHAPE)
        registry = obs.registry
        assert registry.value("nn_iterations_total") == 1
        per_type = registry.series("nn_layers_total")
        assert sum(m.value for _, m in per_type) == len(costs)
        assert {labels["type"] for labels, _ in per_type} == \
            {c.layer_type for c in costs}
        hist = registry.histogram("nn_layer_time_seconds")
        assert hist.count == len(costs)

    def test_no_session_no_spans(self):
        from repro.obs.context import get_obs

        costs = model_breakdown(lenet5(), SHAPE)
        assert costs
        assert get_obs().tracer.span_count() == 0

