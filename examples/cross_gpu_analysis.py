#!/usr/bin/env python
"""Beyond the K40c: cross-GPU sensitivity and roofline analysis.

The paper concludes that "a deep understanding of the algorithm and
hardware characteristic is extremely important".  This example
quantifies that: it re-runs the headline comparisons on the other
modelled GPUs (K20X, TITAN X, M40), shows how the fbfft/cuDNN
crossover migrates with DRAM bandwidth, and places one implementation's
kernels on the K40c's roofline.

    python examples/cross_gpu_analysis.py
"""

from repro.config import BASE_CONFIG
from repro.core.sensitivity import (bandwidth_sensitivity, device_comparison,
                                    render_device_comparison)
from repro.frameworks.registry import get_implementation
from repro.gpusim.device import K40C
from repro.gpusim.roofline import analyse, render, summarise


def main() -> None:
    print(render_device_comparison(device_comparison()))

    print("\nDRAM-bandwidth sensitivity of the Fig. 3(d) crossover:")
    for r in bandwidth_sensitivity((0.5, 1.0, 2.0, 4.0)):
        print(f"  bandwidth x{r.scale:<4} -> fbfft overtakes cuDNN at "
              f"k = {r.kernel_crossover}")
    print("  (fbfft is transpose/bandwidth-heavy: more bandwidth pulls "
          "its win earlier)")

    print("\nRoofline placement of cuDNN's kernels at the base config:")
    prof = get_implementation("cudnn").profile_iteration(BASE_CONFIG)
    points = analyse(K40C, prof.profiler.executions)
    print(render(K40C, points))
    s = summarise(K40C, prof.profiler.executions)
    print(f"\n  whole iteration: {s.flops_utilisation:.0%} of peak FLOPs, "
          f"{s.bandwidth_utilisation:.0%} of peak bandwidth, "
          f"{s.compute_bound_time_fraction:.0%} of time compute-bound")


if __name__ == "__main__":
    main()
