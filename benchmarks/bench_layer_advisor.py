"""Per-layer oracle-mix bench: how much does "no single implementation
wins everywhere" cost in practice on whole models?"""

import pytest

from repro.core.layer_advisor import oracle_mix
from repro.nn.models import model_registry

MODELS = {"AlexNet": 128, "OverFeat": 128, "VGG-16": 64, "GoogLeNet": 64}


@pytest.mark.benchmark(group="layer-advisor")
@pytest.mark.parametrize("model", sorted(MODELS))
def bench_oracle_mix(benchmark, save_artifact, model):
    ctor, shape = model_registry()[model]
    net = ctor()
    batch = MODELS[model]
    report = benchmark.pedantic(oracle_mix, args=(model, net,
                                                  (batch,) + shape),
                                rounds=1, iterations=1)
    save_artifact(f"oracle_mix_{model.lower().replace('-', '')}",
                  report.render())
    assert report.oracle_speedup >= 1.0
    benchmark.extra_info["best_single"] = report.best_single
    benchmark.extra_info["oracle_speedup"] = round(report.oracle_speedup, 3)
