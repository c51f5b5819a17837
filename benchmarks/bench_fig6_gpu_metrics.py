"""Fig. 6 — GPU performance profiling over the Table-I configurations.

Regenerates the runtime-weighted top-kernel metric estimates (achieved
occupancy, IPC, warp execution efficiency, gld/gst efficiency, shared
efficiency) for all seven implementations on Conv1..Conv5.
"""

import pytest

from repro.core.gpu_metrics import gpu_metric_profile, render_metric_rows


@pytest.mark.benchmark(group="fig6")
def bench_fig6_gpu_metrics(benchmark, save_artifact):
    rows = benchmark(gpu_metric_profile)
    save_artifact("fig6_gpu_metrics", render_metric_rows(rows))
    benchmark.extra_info["ccn2_occupancy"] = [
        round(r.summary.achieved_occupancy, 4) for r in rows
        if r.implementation == "cuda-convnet2"]
