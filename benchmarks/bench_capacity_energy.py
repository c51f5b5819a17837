"""Extension benches: largest trainable batch and energy efficiency
per implementation — two more axes on which the paper's 'no single
winner' plays out."""

import pytest

from repro.config import BASE_CONFIG
from repro.core.batch_advisor import batch_capacities, render_capacities
from repro.core.report import table
from repro.frameworks.registry import all_implementations
from repro.gpusim.device import K40C
from repro.gpusim.energy import iteration_energy


@pytest.mark.benchmark(group="capacity")
def bench_max_batch(benchmark, save_artifact):
    rows = benchmark.pedantic(batch_capacities, args=(BASE_CONFIG,),
                              rounds=1, iterations=1)
    save_artifact("batch_capacity", render_capacities(BASE_CONFIG, rows))
    caps = {r.implementation: r.max_batch for r in rows}
    # The memory rankings of Fig. 5 invert into training capacity.
    assert caps["cuda-convnet2"] >= caps["Caffe"] > caps["fbfft"]


@pytest.mark.benchmark(group="energy")
def bench_energy_efficiency(benchmark, save_artifact):
    def run():
        body = []
        effs = {}
        for impl in all_implementations():
            if not impl.supports(BASE_CONFIG):
                continue
            p = impl.profile_iteration(BASE_CONFIG)
            rep = iteration_energy(K40C, p.profiler.executions)
            eff = rep.images_per_joule(BASE_CONFIG.batch)
            effs[impl.paper_name] = eff
            body.append([impl.paper_name, f"{rep.energy_j:.2f}",
                         f"{rep.average_power_w:.0f}", f"{eff:.2f}"])
        text = table(
            ["Implementation", "J/iteration", "avg W", "images/J"],
            body, title=f"Energy efficiency at {BASE_CONFIG.tuple5} "
                        f"(K40c, 235 W TDP)")
        return effs, text

    effs, text = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact("energy_efficiency", text)
    # Speed and efficiency coincide here: fbfft leads both.
    assert effs["fbfft"] == max(effs.values())
