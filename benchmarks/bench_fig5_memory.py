"""Fig. 5 (a-e) — peak GPU memory over the five sweeps."""

import pytest

from repro.core.memory_comparison import memory_sweep

PANELS = {
    "a_batch": "batch",
    "b_input": "input",
    "c_filters": "filters",
    "d_kernel": "kernel",
    "e_stride": "stride",
}


@pytest.mark.benchmark(group="fig5")
@pytest.mark.parametrize("panel", sorted(PANELS))
def bench_fig5_memory_sweep(benchmark, save_artifact, panel):
    sweep = PANELS[panel]
    result = benchmark.pedantic(memory_sweep, args=(sweep,), rounds=1,
                                iterations=1)
    save_artifact(f"fig5{panel}", result.render())


@pytest.mark.benchmark(group="fig5")
def bench_fig5_fbfft_fluctuation(benchmark, save_artifact):
    """The 'dramatic fluctuation': fbfft's jump past a power of two."""

    def run():
        res = memory_sweep("input")
        col = res.peaks["fbfft"]
        jumps = [(res.xs[i + 1], col[i + 1] / col[i])
                 for i in range(len(col) - 1)]
        return max(jumps, key=lambda t: t[1])

    at, ratio = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("fig5_fbfft_jump",
                  f"largest fbfft memory step in the input sweep: "
                  f"x{ratio:.2f} at input size {at} (pow-2 padding)")
