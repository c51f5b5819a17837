"""Ablation studies over the simulator's own design choices.

DESIGN.md calls out several modelling decisions whose effect on the
reproduced figures should be measurable, not asserted.  Each ablation
here re-runs a headline result with one mechanism altered and reports
the delta — exercised by ``benchmarks/bench_ablations.py``:

* **gradient-buffer policy** — Caffe-style separate data/diff blobs vs
  Torch-style in-place gradients drives the ~2x memory split of
  Fig. 5;
* **pow-2 vs smooth FFT padding** — the source of fbfft's memory
  fluctuations (Fig. 5(b)) and its i=144 runtime concession;
* **batch tiling** — cuda-convnet2's 128-image tiles explain its
  batch%128 sweet spot (Fig. 3(a));
* **pinned + async transfers** — the section V-D mitigations, measured
  as the difference between Caffe's (hidden) and Torch's (exposed)
  transfer behaviour on the same copies;
* **occupancy-dependent latency hiding** — why cuda-convnet2 stays
  fast at 17 % occupancy (high ILP) while Theano-fft is slow at 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import BASE_CONFIG, ConvConfig
from ..frameworks.calibration import DIRECT_CALIBRATION, FFT_CALIBRATION
from ..frameworks.fft_model import iteration_workload, transform_size
from ..frameworks.registry import get_implementation
from ..gpusim.device import K40C
from ..gpusim.transfer import TransferEngine, exposed_transfer_time
from .evalcache import evaluate, evaluate_fitting


@dataclass(frozen=True)
class AblationResult:
    """One ablation's outcome: baseline vs altered value + verdict."""

    name: str
    baseline: float
    ablated: float
    unit: str
    conclusion: str

    @property
    def ratio(self) -> float:
        return self.ablated / self.baseline if self.baseline else float("inf")

    def render(self) -> str:
        return (f"{self.name}: baseline {self.baseline:.3f} {self.unit} -> "
                f"ablated {self.ablated:.3f} {self.unit} "
                f"(x{self.ratio:.2f})\n  {self.conclusion}")


def gradient_buffer_policy(config: ConvConfig = BASE_CONFIG) -> AblationResult:
    """Separate vs in-place gradient buffers (Caffe vs Torch-cunn)."""
    caffe = get_implementation("caffe")
    torch = get_implementation("torch-cunn")
    return AblationResult(
        name="gradient-buffer policy (peak memory)",
        baseline=evaluate_fitting(torch, config).peak_memory_bytes / 2**20,
        ablated=evaluate_fitting(caffe, config).peak_memory_bytes / 2**20,
        unit="MB",
        conclusion="separate data/diff blobs roughly double the "
                   "activation footprint — the Caffe-vs-Torch gap of "
                   "Fig. 5.",
    )


def fft_padding_rule(input_size: int = 144) -> AblationResult:
    """Pow-2 (fbfft) vs next-fast-len (cuFFT) transform sizing at the
    worst-case input size just past a power of two."""
    pow2 = transform_size(FFT_CALIBRATION["fbfft"], input_size)
    smooth = transform_size(FFT_CALIBRATION["theano-fft"], input_size)
    return AblationResult(
        name=f"FFT padding rule at input {input_size}",
        baseline=float(smooth),
        ablated=float(pow2),
        unit="points",
        conclusion="power-of-two padding inflates the transform (and "
                   "every frequency-domain buffer, quadratically) — "
                   "the Fig. 5(b) memory jump and the one input-sweep "
                   "point fbfft concedes.",
    )


def batch_tiling(config: ConvConfig = BASE_CONFIG) -> AblationResult:
    """cuda-convnet2 per-image cost at an aligned vs unaligned batch."""
    impl = get_implementation("cuda-convnet2")
    aligned = config.scaled(batch=128)
    unaligned = config.scaled(batch=96)
    t_aligned = evaluate(impl, aligned).time_s / aligned.batch
    t_unaligned = evaluate(impl, unaligned).time_s / unaligned.batch
    return AblationResult(
        name="cuda-convnet2 batch tiling (per-image time)",
        baseline=t_aligned * 1000,
        ablated=t_unaligned * 1000,
        unit="ms/image",
        conclusion="off the 128-image tile grid each image costs "
                   "~40 % more — the Fig. 3(a) sawtooth.",
    )


def transfer_mitigations(config: ConvConfig = BASE_CONFIG) -> AblationResult:
    """Pinned+async vs pageable+sync for the same input copy."""
    engine = TransferEngine(K40C)
    nbytes = config.batch * config.channels * config.input_size ** 2 * 4
    compute = evaluate(get_implementation("caffe"), config).gpu_time_s
    sync_pageable = exposed_transfer_time(
        engine.copy_time(nbytes, pinned=False), 0.0, compute)
    async_pinned = exposed_transfer_time(
        0.0, engine.copy_time(nbytes, pinned=True), compute)
    return AblationResult(
        name="transfer mitigations (exposed copy time)",
        baseline=sync_pageable * 1000,
        ablated=async_pinned * 1000,
        unit="ms",
        conclusion="pinned memory plus asynchronous prefetch hides the "
                   "input copy completely — why Caffe/cuDNN/fbfft sit "
                   "at ~0 % in Fig. 7.",
    )


def occupancy_is_not_performance(config: ConvConfig = BASE_CONFIG) -> AblationResult:
    """The paper's section V-C-1 lesson, quantified: Theano-fft has
    ~3x the achieved occupancy of cuda-convnet2 yet runs far slower."""
    ccn2 = evaluate(get_implementation("cuda-convnet2"), config)
    tfft = evaluate(get_implementation("theano-fft"), config)
    occ_ccn2 = ccn2.summary().achieved_occupancy
    occ_tfft = tfft.summary().achieved_occupancy
    return AblationResult(
        name=(f"occupancy vs speed (ccn2 occ {occ_ccn2:.0%} vs "
              f"theano-fft occ {occ_tfft:.0%}) — runtime"),
        baseline=ccn2.gpu_time_s * 1000,
        ablated=tfft.gpu_time_s * 1000,
        unit="ms",
        conclusion="a higher occupancy does not mean a better "
                   "performance (section V-C-1): ILP, efficiency and "
                   "bank behaviour dominate.",
    )


ABLATIONS = {
    "gradient_buffers": gradient_buffer_policy,
    "fft_padding": fft_padding_rule,
    "batch_tiling": batch_tiling,
    "transfer_mitigations": transfer_mitigations,
    "occupancy_vs_speed": occupancy_is_not_performance,
}


def run_all() -> List[AblationResult]:
    """Run every ablation."""
    return [fn() for fn in ABLATIONS.values()]
