"""Completeness check for the Theano-CorrMM host-staging rule.

The rule was fitted to reproduce the Fig. 7 Conv2 anomaly; this test
sweeps *every* configuration the paper measures (all five Fig. 3/5
sweeps plus Table I) and asserts the staging fires at Conv2 and
nowhere else — the 'only there' half of the paper's observation.
"""

import pytest

from repro.config import SWEEPS, TABLE1_CONFIGS, sweep_configs
from repro.frameworks.registry import get_implementation
from repro.gpusim.transfer import TransferKind


def staging_ops(impl, config):
    return [op for op in impl.transfer_ops(config)
            if "staging" in op.label]


@pytest.fixture(scope="module")
def corrmm():
    return get_implementation("theano-corrmm")


class TestStagingGrid:
    def test_no_staging_on_any_sweep_point(self, corrmm):
        for sweep in SWEEPS:
            for config in sweep_configs(sweep):
                if corrmm.supports(config):
                    assert staging_ops(corrmm, config) == [], (sweep, config)

    def test_staging_exactly_at_conv2(self, corrmm):
        for name, config in TABLE1_CONFIGS.items():
            ops = staging_ops(corrmm, config)
            if name == "Conv2":
                assert len(ops) == 2
                kinds = {op.kind for op in ops}
                assert kinds == {TransferKind.H2D, TransferKind.D2H}
            else:
                assert ops == [], name

    def test_no_other_implementation_stages(self):
        from repro.frameworks.registry import all_implementations
        for impl in all_implementations():
            if impl.name == "theano-corrmm":
                continue
            for name, config in TABLE1_CONFIGS.items():
                if impl.supports(config):
                    assert staging_ops(impl, config) == [], (impl.name, name)


class TestDeterminism:
    def test_time_iteration_deterministic(self):
        impl = get_implementation("fbfft")
        from repro.config import BASE_CONFIG
        assert (impl.profile_iteration(BASE_CONFIG).total_time_s
                == impl.profile_iteration(BASE_CONFIG).total_time_s)

    def test_experiment_deterministic(self):
        from repro import run_experiment
        _, a = run_experiment("fig3e")
        _, b = run_experiment("fig3e")
        assert a == b

    def test_memory_deterministic(self):
        from repro.config import BASE_CONFIG
        impl = get_implementation("theano-fft")
        assert impl.peak_memory_bytes(BASE_CONFIG) == \
            impl.peak_memory_bytes(BASE_CONFIG)
