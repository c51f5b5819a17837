"""Discrete-event timeline vs the closed-form overlap model.

The event simulation and the analytic formula are two independent
derivations of the same quantity — their agreement licenses using the
cheap formula throughout the harness.
"""

import pytest

from repro.config import BASE_CONFIG, TABLE1_CONFIGS
from repro.frameworks.registry import all_implementations, get_implementation

from .stream_oracle import iteration_timeline


class TestSteadyState:
    def test_prefetcher_iteration_equals_compute(self):
        """Caffe's prefetched copies hide completely: steady-state
        iteration time == kernel time."""
        impl = get_implementation("caffe")
        tp = iteration_timeline(impl, BASE_CONFIG)
        assert tp.iteration_time_s == pytest.approx(tp.compute_time_s,
                                                    rel=1e-6)
        assert tp.transfer_fraction == pytest.approx(0.0, abs=1e-9)

    def test_synchronous_copies_extend_iterations(self):
        impl = get_implementation("torch-cunn")
        tp = iteration_timeline(impl, BASE_CONFIG)
        assert tp.iteration_time_s > tp.compute_time_s

    def test_agrees_with_closed_form(self):
        """For every implementation and Table-I config, the event
        simulation's transfer fraction matches profile_iteration's
        within 3 percentage points."""
        for impl in all_implementations():
            for name, config in TABLE1_CONFIGS.items():
                if not impl.supports(config):
                    continue
                analytic = impl.profile_iteration(config).transfer_fraction
                simulated = iteration_timeline(impl, config).transfer_fraction
                assert simulated == pytest.approx(analytic, abs=0.03), (
                    impl.name, name, analytic, simulated)

    def test_more_iterations_do_not_change_steady_state(self):
        impl = get_implementation("cuda-convnet2")
        a = iteration_timeline(impl, BASE_CONFIG, iterations=3)
        b = iteration_timeline(impl, BASE_CONFIG, iterations=8)
        assert a.iteration_time_s == pytest.approx(b.iteration_time_s,
                                                   rel=1e-9)

    def test_makespan_grows_linearly(self):
        impl = get_implementation("cudnn")
        a = iteration_timeline(impl, BASE_CONFIG, iterations=2)
        b = iteration_timeline(impl, BASE_CONFIG, iterations=4)
        assert b.makespan_s > a.makespan_s

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_timeline(get_implementation("caffe"), BASE_CONFIG,
                               iterations=1)
