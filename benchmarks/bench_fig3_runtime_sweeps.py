"""Fig. 3 (a-e) — runtime of the seven implementations over the five
one-parameter sweeps around (64, 128, 64, 11, 1).

Each benchmark regenerates one panel and prints the series the paper
plots; the claims ledger (``repro regression``) checks the panels'
observations.
"""

import pytest

from repro.core.ledger import CLAIMS
from repro.core.runtime_comparison import runtime_sweep

PANELS = {
    "a_batch": "batch",
    "b_input": "input",
    "c_filters": "filters",
    "d_kernel": "kernel",
    "e_stride": "stride",
}


@pytest.mark.benchmark(group="fig3")
@pytest.mark.parametrize("panel", sorted(PANELS))
def bench_fig3_sweep(benchmark, save_artifact, panel):
    sweep = PANELS[panel]
    result = benchmark.pedantic(runtime_sweep, args=(sweep,), rounds=1,
                                iterations=1)
    save_artifact(f"fig3{panel}", result.render())

    benchmark.extra_info["winners"] = [result.fastest_at(i)
                                       for i in range(len(result.xs))]


@pytest.mark.benchmark(group="fig3")
def bench_fig3_headline_speedups(benchmark, save_artifact):
    """The summary numbers the paper quotes: fbfft's advantage range
    on the batch sweep and the kernel-size crossover."""

    def run():
        batch = runtime_sweep("batch")
        kernel = runtime_sweep("kernel")
        ratios = [batch.speedup("fbfft", other, i)
                  for i in range(len(batch.xs))
                  for other in batch.times if other != "fbfft"
                  if batch.speedup("fbfft", other, i) is not None]
        crossover = next(k for i, k in enumerate(kernel.xs)
                         if kernel.times["fbfft"][i] < kernel.times["cuDNN"][i])
        return min(ratios), max(ratios), crossover

    lo, hi, crossover = benchmark.pedantic(run, rounds=1, iterations=1)
    paper = {c.id: c.paper for c in CLAIMS}
    text = (f"fbfft advantage over other implementations (batch sweep): "
            f"{lo:.2f}x .. {hi:.2f}x  (paper: "
            f"{paper['fig3a.fbfft_advantage_min']}x .. "
            f"{paper['fig3a.fbfft_advantage_max']}x)\n"
            f"cuDNN -> fbfft crossover kernel size: {crossover}  "
            f"(paper: {paper['fig3d.crossover_k']})")
    save_artifact("fig3_headlines", text)
