"""Fig. 2 — runtime breakdown of GoogLeNet / VGG / OverFeat / AlexNet.

Regenerates the per-layer-type shares of one training iteration; the
claims ledger (``repro regression``) checks the paper's headline that
convolution dominates.
"""

import pytest

from repro.core.hotspot_layers import hotspot_layer_analysis


@pytest.mark.benchmark(group="fig2")
def bench_fig2_runtime_breakdown(benchmark, save_artifact):
    results = benchmark.pedantic(hotspot_layer_analysis, rounds=1,
                                 iterations=1)
    text = "\n\n".join(r.render() for r in results)
    save_artifact("fig2_hotspot_layers", text)
    benchmark.extra_info["conv_shares"] = {
        r.model: round(r.conv_share, 4) for r in results}


@pytest.mark.benchmark(group="fig2")
@pytest.mark.parametrize("model", ["AlexNet", "GoogLeNet", "OverFeat", "VGG"])
def bench_fig2_single_model(benchmark, model):
    """Per-model timing of the breakdown itself (simulator cost)."""
    benchmark(hotspot_layer_analysis, models=[model])
