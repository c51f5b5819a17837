#!/usr/bin/env python
"""Quickstart: compare the seven GPU convolution implementations.

Runs one training iteration of a convolutional layer — the paper's
base configuration (64, 128, 64, 11, 1) — through every
implementation's performance model, prints the head-to-head table, and
asks the advisor which implementation to use.

Run:  python examples/quickstart.py
"""

from repro import BASE_CONFIG, Advisor, all_implementations
from repro.core.evalcache import evaluate
from repro.core.report import table


def main() -> None:
    print(f"Configuration: {BASE_CONFIG}")
    print(f"Training FLOPs per iteration: "
          f"{BASE_CONFIG.training_flops / 1e9:.1f} GFLOP\n")

    rows = []
    for impl in all_implementations():
        if not impl.supports(BASE_CONFIG):
            rows.append([impl.paper_name, impl.strategy.value, "-", "-", "-"])
            continue
        record = evaluate(impl, BASE_CONFIG)
        rows.append([
            impl.paper_name,
            impl.strategy.value,
            f"{record.time_s * 1000:.2f}",
            f"{record.peak_memory_bytes / 2**20:.0f}",
            f"{record.transfer_fraction * 100:.1f}",
        ])
    print(table(
        ["Implementation", "Strategy", "Time (ms)", "Peak mem (MB)",
         "Transfer (%)"],
        rows, title="One simulated training iteration on a Tesla K40c"))

    print()
    print(Advisor().recommend(BASE_CONFIG).render())


if __name__ == "__main__":
    main()
