"""repro — reproduction of "Performance Analysis of GPU-based
Convolutional Neural Networks" (Li et al., ICPP 2016).

Layered public API:

* :mod:`repro.gpusim` — analytic Tesla K40c device model (occupancy,
  coalescing, bank conflicts, roofline timing, allocator, PCIe,
  nvprof-style profiler);
* :mod:`repro.conv` — the three convolution strategies (direct,
  unrolling, FFT), numerically exact in NumPy;
* :mod:`repro.frameworks` — the seven benchmarked implementations
  (Caffe, Torch-cunn, Theano-CorrMM, Theano-fft, cuDNN,
  cuda-convnet2, fbfft);
* :mod:`repro.nn` — CNN model descriptions (the four profiled models,
  LeNet-5 and ResNet) and the Fig. 2 per-layer runtime simulator;
* :mod:`repro.core` — the paper's analysis harness: one module per
  figure/table, plus the implementation advisor.

Quick start::

    from repro import BASE_CONFIG, all_implementations
    from repro.core.evalcache import evaluate
    for impl in all_implementations():
        if impl.supports(BASE_CONFIG):
            print(impl.paper_name, evaluate(impl, BASE_CONFIG).time_s)
"""

from .config import (BASE_CONFIG, SWEEPS, TABLE1_CONFIGS, ConvConfig,
                     sweep_configs)
from .errors import (DeviceOOMError, ReproError, ShapeError,
                     UnsupportedConfigError)
from .frameworks import all_implementations, get_implementation
from .gpusim import K40C, DeviceSpec, Profiler
from .core.advisor import Advisor
from .core.experiments import EXPERIMENTS, run_experiment

__version__ = "1.0.0"

__all__ = [
    "BASE_CONFIG",
    "SWEEPS",
    "TABLE1_CONFIGS",
    "ConvConfig",
    "sweep_configs",
    "ReproError",
    "ShapeError",
    "UnsupportedConfigError",
    "DeviceOOMError",
    "all_implementations",
    "get_implementation",
    "K40C",
    "DeviceSpec",
    "Profiler",
    "Advisor",
    "EXPERIMENTS",
    "run_experiment",
    "__version__",
]
