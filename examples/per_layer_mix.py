#!/usr/bin/env python
"""Per-layer implementation mixing — beyond "pick one framework".

The paper's conclusion is that no single implementation wins
everywhere.  This example quantifies the consequence on whole models:
for each conv layer of a network it finds the fastest implementation,
then compares committing to the best *single* implementation against
the per-layer "oracle" mix (what auto-tuning dispatchers later made
standard practice).

    python examples/per_layer_mix.py            # AlexNet
    python examples/per_layer_mix.py VGG-16 64
"""

import sys

from repro.core.layer_advisor import oracle_mix
from repro.nn.models import model_registry


def main(model_name: str = "AlexNet", batch: int = 128) -> None:
    ctor, shape = model_registry()[model_name]
    report = oracle_mix(model_name, ctor(), (batch,) + shape)
    print(report.render())
    print()
    if report.oracle_speedup > 1.1:
        print(f"Verdict: mixing implementations per layer is worth "
              f"{report.oracle_speedup:.2f}x on {model_name} — the "
              f"paper's 'no single winner' has real cost.")
    else:
        print(f"Verdict: {report.best_single} is near-oracle on "
              f"{model_name} ({report.oracle_speedup:.2f}x headroom) — "
              f"a homogeneous network suits a single implementation.")


if __name__ == "__main__":
    args = sys.argv[1:]
    main(args[0] if args else "AlexNet",
         int(args[1]) if len(args) > 1 else 128)
