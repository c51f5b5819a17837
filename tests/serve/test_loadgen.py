"""Load generator: determinism, arrival processes, shape mix."""

import hashlib

import pytest

from repro.config import ConvConfig
from repro.serve.loadgen import (MODEL_SHAPES, Arrival, TrafficSpec,
                                 generate_trace, trace_summary)
from repro.serve.request import shape_key


class TestShapes:
    def test_all_shapes_are_batch_one(self):
        for layers in MODEL_SHAPES.values():
            for _, config in layers:
                assert config.batch == 1

    def test_shapes_are_valid_configs(self):
        for layers in MODEL_SHAPES.values():
            for _, config in layers:
                assert isinstance(config, ConvConfig)
                assert config.output_size >= 1


class TestSpec:
    def test_defaults(self):
        spec = TrafficSpec()
        assert spec.pattern == "poisson"

    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 0}, {"rate_rps": -1}, {"pattern": "diurnal"},
        {"burst_factor": 0.5}, {"models": ("ResNet-999",)}])
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, KeyError)):
            TrafficSpec(**kwargs)


class TestGeneration:
    def test_deterministic_per_seed(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=500, seed=7)
        assert generate_trace(spec) == generate_trace(spec)

    def test_different_seeds_differ(self):
        a = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=500, seed=1))
        b = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=500, seed=2))
        assert a != b

    def test_sorted_and_bounded(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=500, seed=3)
        trace = generate_trace(spec)
        times = [a.t_s for a in trace]
        assert times == sorted(times)
        assert all(0 < t < spec.duration_s for t in times)
        assert [a.rid for a in trace] == list(range(len(trace)))

    def test_rate_is_approximately_honoured(self):
        spec = TrafficSpec(duration_s=20.0, rate_rps=300, seed=11)
        trace = generate_trace(spec)
        mean_rate = len(trace) / spec.duration_s
        assert mean_rate == pytest.approx(300, rel=0.15)

    def test_mix_covers_all_requested_models(self):
        trace = generate_trace(TrafficSpec(duration_s=5.0, rate_rps=500, seed=5))
        assert {a.model for a in trace} == {"AlexNet", "VGG", "GoogLeNet"}

    def test_single_model_mix(self):
        trace = generate_trace(TrafficSpec(duration_s=2.0, rate_rps=500,
                                           models=("VGG",), seed=5))
        assert {a.model for a in trace} == {"VGG"}

    def test_keys_match_model_shapes(self):
        trace = generate_trace(TrafficSpec(duration_s=1.0, rate_rps=500, seed=5))
        valid = {shape_key(cfg) for layers in MODEL_SHAPES.values()
                 for _, cfg in layers}
        assert {a.key for a in trace} <= valid


class TestBursty:
    def test_bursty_clusters_in_burst_phase(self):
        spec = TrafficSpec(duration_s=10.0, rate_rps=300, pattern="bursty",
                           burst_factor=4.0, burst_period_s=1.0, seed=9)
        trace = generate_trace(spec)
        in_burst = sum(1 for a in trace
                       if (a.t_s % spec.burst_period_s) < 0.5)
        # Burst phase runs at 16x the off phase rate; well over half of
        # all arrivals must land there.
        assert in_burst / len(trace) > 0.7

    def test_bursty_deterministic(self):
        spec = TrafficSpec(duration_s=3.0, rate_rps=300, pattern="bursty", seed=4)
        assert generate_trace(spec) == generate_trace(spec)


class TestStreamPin:
    """The arrival stream itself is pinned, so a change to the order or
    number of draws fails here rather than in a report digest."""

    @staticmethod
    def trace_sha256(spec):
        h = hashlib.sha256()
        for a in generate_trace(spec):
            h.update(repr((a.rid, a.t_s, a.model, a.layer, a.key)).encode())
        return h.hexdigest()

    def test_poisson_stream(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=6000.0, seed=7)
        assert self.trace_sha256(spec) == (
            "d20f6378939a59b86f323404667258d193cd70bef0dc20df77a61b3682136a85")

    def test_bursty_stream(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=3000.0, seed=3,
                           pattern="bursty", burst_period_s=0.5)
        assert self.trace_sha256(spec) == (
            "ff72ac375844a9e2de9d599aab87e6a0bc682e79329ba3eafc647ff036777e36")


class TestSummary:
    def test_summary_mentions_counts(self):
        spec = TrafficSpec(duration_s=2.0, rate_rps=500, seed=7)
        trace = generate_trace(spec)
        text = trace_summary(trace, spec)
        assert f"{len(trace)} arrivals" in text
        assert "AlexNet" in text and "seed 7" in text
