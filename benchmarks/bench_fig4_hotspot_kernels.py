"""Fig. 4 — hotspot-kernel breakdown of each implementation at the
base configuration (64, 128, 64, 11, 1)."""

import pytest

from repro.config import BASE_CONFIG
from repro.core.hotspot_kernels import hotspot_kernel_analysis


@pytest.mark.benchmark(group="fig4")
def bench_fig4_hotspot_kernels(benchmark, save_artifact):
    results = benchmark(hotspot_kernel_analysis, BASE_CONFIG)
    text = "\n\n".join(r.render() for r in results)
    save_artifact("fig4_hotspot_kernels", text)

    by_name = {r.implementation: r for r in results}
    benchmark.extra_info["gemm_shares"] = {
        name: round(by_name[name].role_shares.get("GEMM", 0.0), 4)
        for name in ("Caffe", "Torch-cunn", "Theano-CorrMM")}
