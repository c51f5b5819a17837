"""Tests for the implementation advisor."""

import pytest

from repro.config import BASE_CONFIG, SWEEPS, ConvConfig, sweep_configs
from repro.core.advisor import Advisor
from repro.frameworks.base import Strategy
from repro.frameworks.registry import all_implementations


@pytest.fixture(scope="module")
def advisor():
    return Advisor()


class TestEvaluate:
    def test_all_candidates_listed(self, advisor):
        cands = advisor.evaluate(BASE_CONFIG)
        assert len(cands) == 7

    def test_feasible_sorted_by_time(self, advisor):
        cands = [c for c in advisor.evaluate(BASE_CONFIG) if c.feasible]
        times = [c.time_s for c in cands]
        assert times == sorted(times)

    def test_unsupported_marked(self, advisor):
        cands = advisor.evaluate(BASE_CONFIG.scaled(stride=2))
        infeasible = {c.implementation for c in cands if not c.supported}
        assert infeasible == {"fbfft", "Theano-fft"}


class TestRecommend:
    def test_large_kernel_prefers_fft(self, advisor):
        """Paper summary: fbfft for large kernels."""
        rec = advisor.recommend(BASE_CONFIG)  # k = 11
        assert rec.best == "fbfft"
        assert "FFT" in rec.rationale or "fft" in rec.rationale

    def test_small_kernel_prefers_cudnn(self, advisor):
        """Paper summary: cuDNN for small kernels."""
        rec = advisor.recommend(BASE_CONFIG.scaled(kernel_size=3))
        assert rec.best == "cuDNN"

    def test_stride_rules_out_fft(self, advisor):
        rec = advisor.recommend(BASE_CONFIG.scaled(stride=2))
        assert rec.best not in ("fbfft", "Theano-fft")
        assert "stride" in rec.rationale

    def test_memory_budget_changes_pick(self, advisor):
        """Paper summary: cuda-convnet2 when memory is limited."""
        free = advisor.recommend(BASE_CONFIG)
        tight = advisor.recommend(BASE_CONFIG, memory_budget=400 * 2**20)
        assert free.best == "fbfft"
        assert tight.best == "cuda-convnet2"

    def test_impossible_budget(self, advisor):
        rec = advisor.recommend(BASE_CONFIG, memory_budget=1)
        assert rec.best is None

    def test_render(self, advisor):
        out = advisor.recommend(BASE_CONFIG).render()
        assert "Recommendation" in out
        assert "fbfft" in out


class TestPlan:
    """The cacheable ranking entry point used by repro.serve."""

    def test_plan_matches_recommend(self, advisor):
        plan = advisor.plan(BASE_CONFIG)
        rec = advisor.recommend(BASE_CONFIG)
        assert plan.implementation == rec.best
        best = [c for c in rec.candidates if c.feasible][0]
        assert plan.time_s == best.time_s
        assert plan.peak_memory_bytes == best.peak_memory_bytes

    def test_plan_respects_budget(self, advisor):
        plan = advisor.plan(BASE_CONFIG, memory_budget=400 * 2**20)
        assert plan.implementation == "cuda-convnet2"

    def test_infeasible_returns_none(self, advisor):
        assert advisor.plan(BASE_CONFIG, memory_budget=1) is None

    def test_plan_is_a_value_object(self, advisor):
        a = advisor.plan(BASE_CONFIG)
        b = advisor.plan(BASE_CONFIG)
        assert a == b and hash(a) == hash(b)

    def test_invalid_plan_time_rejected(self):
        from repro.core.advisor import RankedPlan
        with pytest.raises(ValueError):
            RankedPlan(implementation="x", time_s=0.0, peak_memory_bytes=0)


FIG3_POINTS = [config for sweep in SWEEPS for config in sweep_configs(sweep)]


class TestRationale:
    STRATEGY = {impl.paper_name: impl.strategy
                for impl in all_implementations()}
    #: How a rationale names each strategy.
    NAMES = {Strategy.FFT: "FFT-based convolution",
             Strategy.UNROLLING: "unrolling",
             Strategy.DIRECT: "direct convolution"}

    @pytest.mark.parametrize("config", FIG3_POINTS, ids=str)
    def test_clause_names_the_winner_strategy(self, advisor, config):
        """The rationale names the winner's strategy, and no other,
        whenever the FFT and another strategy competed."""
        rec = advisor.recommend(config)
        winner = self.STRATEGY[rec.best]
        fft_feasible = any(self.STRATEGY[c.implementation] is Strategy.FFT
                           for c in rec.candidates if c.feasible)
        named = {s for s, name in self.NAMES.items() if name in rec.rationale}
        competed = fft_feasible and winner is not Strategy.DIRECT
        assert named == ({winner} if competed else set()), rec.rationale
