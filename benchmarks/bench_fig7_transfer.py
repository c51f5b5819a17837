"""Fig. 7 — CPU-GPU data-transfer overhead over Conv1..Conv5."""

import pytest

from repro.core.transfer_overhead import (render_transfer_rows,
                                          transfer_overhead_profile)


@pytest.mark.benchmark(group="fig7")
def bench_fig7_transfer_overhead(benchmark, save_artifact):
    rows = benchmark(transfer_overhead_profile)
    save_artifact("fig7_transfer_overhead", render_transfer_rows(rows))
    benchmark.extra_info["corrmm_conv2"] = next(
        round(r.transfer_fraction, 4) for r in rows
        if (r.implementation, r.config_name) == ("Theano-CorrMM", "Conv2"))
