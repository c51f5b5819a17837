"""What-if bench: Winograd F(2x2,3x3) joins the comparison.

Projects the strategy that landed in cuDNN v5 (right after the
paper's study) onto the same simulated K40c, over the 3x3 stride-1
configurations where it applies.
"""

import pytest

from repro.config import BASE_CONFIG, ConvConfig
from repro.core.evalcache import evaluate
from repro.core.report import table
from repro.frameworks.registry import all_implementations
from repro.frameworks.winograd_ext import CuDNNWinograd

#: 3x3 stride-1 layers, from few-channel to VGG-scale.
CASES = {
    "colour 3ch": BASE_CONFIG.scaled(kernel_size=3),
    "mid 64ch": ConvConfig(batch=64, input_size=56, filters=128,
                           kernel_size=3, channels=64, padding=1),
    "VGG-scale 128ch": ConvConfig(batch=64, input_size=56, filters=256,
                                  kernel_size=3, channels=128, padding=1),
    "VGG-scale 256ch": ConvConfig(batch=64, input_size=28, filters=512,
                                  kernel_size=3, channels=256, padding=1),
}


@pytest.mark.benchmark(group="winograd-whatif")
def bench_winograd_vs_the_seven(benchmark, save_artifact):
    def run():
        impls = all_implementations() + [CuDNNWinograd()]
        rows = []
        results = {}
        for case, cfg in CASES.items():
            times = {}
            for impl in impls:
                if impl.supports(cfg):
                    times[impl.paper_name] = evaluate(impl, cfg).time_s
            winner = min(times, key=times.get)
            results[case] = (times, winner)
            rows.append([case, winner,
                         f"{times[winner] * 1000:.2f}",
                         f"{times['cuDNN'] * 1000:.2f}",
                         f"{times['fbfft'] * 1000:.2f}"])
        text = table(
            ["3x3 layer", "Winner", "Winner (ms)", "cuDNN (ms)",
             "fbfft (ms)"],
            rows, title="What-if: Winograd joins the seven (3x3, stride 1)")
        return results, text

    results, text = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("winograd_whatif", text)
    # The historical shape: Winograd wins the deep multi-channel
    # layers, not the 3-channel colour layer.
    assert results["colour 3ch"][1] != "cuDNN-Winograd (what-if)"
    assert results["VGG-scale 128ch"][1] == "cuDNN-Winograd (what-if)"
    assert results["VGG-scale 256ch"][1] == "cuDNN-Winograd (what-if)"


@pytest.mark.benchmark(group="winograd-whatif")
def bench_winograd_in_resnet_oracle(benchmark, save_artifact):
    """ResNet-18 is all 3x3 stride-1 (plus the 7x7 stem): adding the
    Winograd what-if adapter to the per-layer oracle shifts almost
    every residual layer onto it."""
    from repro.core.layer_advisor import oracle_mix
    from repro.frameworks.registry import all_implementations
    from repro.nn.models import model_registry

    def run():
        ctor, shape = model_registry()["ResNet-18"]
        impls = all_implementations() + [CuDNNWinograd()]
        return oracle_mix("ResNet-18", ctor(rng=0), (64,) + shape,
                          implementations=impls)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("winograd_resnet_oracle", report.render())
    winners = [c.winner for c in report.choices]
    winograd_share = winners.count("cuDNN-Winograd (what-if)") / len(winners)
    # Most of the network moves onto Winograd.
    assert winograd_share > 0.5
    benchmark.extra_info["winograd_layer_share"] = round(winograd_share, 3)
