"""The claims ledger: the paper's results as numbers, checked in one place.

Each row of :data:`CLAIMS` holds one number the reproduction measures,
the value the paper reports for it and the band the model must keep it
in.  :func:`check` runs the figure pipelines once and measures every
row; :func:`render` prints the result as the Markdown table that
EXPERIMENTS.md embeds, and ``repro regression`` prints the same table
and exits non-zero when a row leaves its band.

* A qualitative claim ("fbfft is the fastest at every batch size")
  counts its violations, with the band ``[0, 0]``.
* The paper value is a number, a ``(low, high)`` range or ``None``.
  The residual is measured − paper; for a range it is the distance
  outside the range (0 inside it).
* A band is an interval in the usual notation, ``"(0.8, 0.97]"``: a
  round bracket excludes its bound, a square one includes it.  A row
  with no band is reported and pinned by the embedded table, not
  checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import SWEEPS
from ..gpusim.metrics import MetricSummary
from .gpu_metrics import gpu_metric_profile
from .hotspot_kernels import KernelBreakdown, hotspot_kernel_analysis
from .hotspot_layers import ModelBreakdown, hotspot_layer_analysis
from .memory_comparison import MemorySweepResult, memory_sweep
from .runtime_comparison import SweepResult, all_runtime_sweeps
from .transfer_overhead import transfer_overhead_profile

Paper = Union[None, float, Tuple[float, float]]


@dataclass(frozen=True)
class Figures:
    """One pass over the figure pipelines, keyed for the measurements."""

    fig2: Dict[str, ModelBreakdown]            # model ->
    fig3: Dict[str, SweepResult]               # sweep ->
    fig4: Dict[str, KernelBreakdown]           # implementation ->
    fig5: Dict[str, MemorySweepResult]         # sweep ->
    fig6: Dict[str, Dict[str, MetricSummary]]  # implementation -> config ->
    fig7: Dict[str, Dict[str, float]]          # implementation -> config ->


def measure_figures() -> Figures:
    """Run Figs. 2-7 through the shared evaluation cache."""
    fig6: Dict[str, Dict[str, MetricSummary]] = {}
    for row in gpu_metric_profile():
        fig6.setdefault(row.implementation, {})[row.config_name] = row.summary
    fig7: Dict[str, Dict[str, float]] = {}
    for row in transfer_overhead_profile():
        fig7.setdefault(row.implementation, {})[row.config_name] = (
            row.transfer_fraction)
    return Figures(
        fig2={r.model: r for r in hotspot_layer_analysis()},
        fig3=all_runtime_sweeps(),
        fig4={r.implementation: r for r in hotspot_kernel_analysis()},
        fig5={name: memory_sweep(name) for name in SWEEPS},
        fig6=fig6, fig7=fig7)


@dataclass(frozen=True)
class Claim:
    """One row: ``id`` starts with the figure it belongs to."""

    id: str
    claim: str
    paper: Paper
    band: Optional[str]
    measure: Callable[[Figures], Optional[float]]

    @property
    def figure(self) -> str:
        return self.id.split(".", 1)[0]


def in_band(value: Optional[float], band: str) -> bool:
    """Whether ``value`` lies in the interval ``band``; a missing value
    (no crossover, say) never does."""
    if band[0] not in "([" or band[-1] not in ")]":
        raise ValueError(f"band {band!r} is not an interval")
    lo, hi = (float(v) for v in band[1:-1].split(","))
    if value is None:
        return False
    above = value > lo if band[0] == "(" else value >= lo
    below = value < hi if band[-1] == ")" else value <= hi
    return above and below


def residual(measured: Optional[float], paper: Paper) -> Optional[float]:
    """measured − paper, or the distance outside a paper range."""
    if measured is None or paper is None:
        return None
    if isinstance(paper, tuple):
        lo, hi = paper
        return measured - lo if measured < lo else max(0.0, measured - hi)
    return measured - paper


@dataclass(frozen=True)
class Result:
    """One row's measurement."""

    claim: Claim
    measured: Optional[float]

    @property
    def residual(self) -> Optional[float]:
        return residual(self.measured, self.claim.paper)

    @property
    def in_band(self) -> Optional[bool]:
        """None for a row with no band."""
        band = self.claim.band
        return None if band is None else in_band(self.measured, band)

    def to_dict(self) -> dict:
        c = self.claim
        return {"id": c.id, "figure": c.figure, "claim": c.claim,
                "paper": c.paper, "band": c.band, "measured": self.measured,
                "residual": self.residual, "in_band": self.in_band}


def check() -> List[Result]:
    """Measure every row of :data:`CLAIMS` from one pass over the
    figures."""
    figures = measure_figures()
    return [Result(c, c.measure(figures)) for c in CLAIMS]


def failures(results: Sequence[Result]) -> List[str]:
    """Ids of the rows outside their band."""
    return [r.claim.id for r in results if r.in_band is False]


def _num(value: Optional[float], fmt: str = ".5g") -> str:
    if value is None:
        return ""
    return "0" if value == 0 else format(value, fmt)


def render(results: Sequence[Result]) -> str:
    """The ledger as a Markdown table (the form EXPERIMENTS.md embeds)."""
    lines = ["| id | claim | paper | band | measured | residual | |",
             "|---|---|---|---|---|---|---|"]
    for r in results:
        c = r.claim
        paper = ("–".join(format(v, "g") for v in c.paper)
                 if isinstance(c.paper, tuple) else _num(c.paper, "g"))
        verdict = {None: "", True: "ok", False: "**out**"}[r.in_band]
        lines.append(
            f"| {c.id} | {c.claim} | {paper} | {c.band or ''} | "
            f"{_num(r.measured) if r.measured is not None else 'none'} | "
            f"{_num(r.residual, '+.4g')} | {verdict} |")
    return "\n".join(lines)


# -- measurements ------------------------------------------------------------

UNROLLING = ("Caffe", "Torch-cunn", "Theano-CorrMM")


def _points(sweep: SweepResult) -> range:
    return range(len(sweep.xs))


def _not_fastest(sweep: SweepResult, impl: str) -> int:
    return sum(sweep.fastest_at(i) != impl for i in _points(sweep))


def _not_slowest(sweep: SweepResult, impl: str) -> int:
    """Points where another implementation is as slow as ``impl`` or
    slower."""
    mine = sweep.times[impl]
    return sum(any(col[i] is not None and col[i] >= mine[i]
                   for name, col in sweep.times.items() if name != impl)
               for i in _points(sweep))


def _advantages(sweep: SweepResult, fast: str) -> List[float]:
    """``fast``'s speedup over every other implementation, at every
    point where both run."""
    ratios = (sweep.speedup(fast, other, i) for i in _points(sweep)
              for other in sweep.times if other != fast)
    return [r for r in ratios if r is not None]


def _ratio(sweep: SweepResult, a: str, b: str) -> List[float]:
    """a's runtime over b's, point by point."""
    return [ta / tb for ta, tb in zip(sweep.times[a], sweep.times[b])]


def _slower_where(sweep: SweepResult, a: str, b: str,
                  where: Callable[[int], bool]) -> int:
    """Sweep values selected by ``where`` at which a is not faster
    than b."""
    return sum(r >= 1.0 for x, r in zip(sweep.xs, _ratio(sweep, a, b))
               if where(x))


def _crossover(sweep: SweepResult, fast: str, slow: str) -> Optional[int]:
    """The first sweep value at which ``fast`` beats ``slow``."""
    return next((x for x, r in zip(sweep.xs, _ratio(sweep, fast, slow))
                 if r < 1.0), None)


def _slowdown(sweep: SweepResult, impl: str) -> float:
    """impl's worst runtime over the fastest's, across the sweep."""
    return max(sweep.times[impl][i] / sweep.times[sweep.fastest_at(i)][i]
               for i in _points(sweep))


def _k_speedup(f: Figures, k: int) -> float:
    """fbfft's speedup over cuDNN at kernel size k."""
    kernel = f.fig3["kernel"]
    return kernel.speedup("fbfft", "cuDNN", kernel.xs.index(k))


def _ccn2_tiling(sweep: SweepResult) -> float:
    """cuda-convnet2's slowest per-image time at a multiple of 128 over
    its fastest elsewhere."""
    per_image = {b: t / b for b, t in
                 zip(sweep.xs, sweep.times["cuda-convnet2"])}
    return (max(v for b, v in per_image.items() if b % 128 == 0)
            / min(v for b, v in per_image.items() if b % 128 != 0))


def _not_only(f: Figures, impl: str, lowest: bool) -> int:
    """Points of the five Fig. 5 sweeps where ``impl`` runs and another
    implementation's peak ties or passes it (downwards when
    ``lowest``)."""
    misses = 0
    for res in f.fig5.values():
        for i, mine in enumerate(res.peaks[impl]):
            others = [col[i] for name, col in res.peaks.items()
                      if name != impl and col[i] is not None]
            if mine is not None:
                misses += any(o <= mine if lowest else o >= mine
                              for o in others)
    return misses


def _steps(col: Sequence[float]) -> List[float]:
    return [b / a for a, b in zip(col, col[1:])]


def _metric(f: Figures, impls: Sequence[str], attr: str) -> List[float]:
    """One Fig. 6 metric of ``impls`` over every configuration."""
    return [getattr(s, attr) for impl in impls for s in f.fig6[impl].values()]


def _but_theano_fft(f: Figures) -> List[str]:
    return [impl for impl in f.fig6 if impl != "Theano-fft"]


def _theano_fft_over_fbfft(f: Figures) -> float:
    tfft, fb = f.fig6["Theano-fft"], f.fig6["fbfft"]
    return min(tfft[c].runtime_s / fb[c].runtime_s for c in tfft)


# Row factories for the rows the table generates per model or
# implementation.

def _conv_share(model: str) -> Callable[[Figures], float]:
    return lambda f: f.fig2[model].conv_share


def _gemm_share(impl: str) -> Callable[[Figures], float]:
    return lambda f: f.fig4[impl].role_shares["GEMM"]


def _peak_mb(impl: str, batch: int) -> Callable[[Figures], float]:
    def measure(f: Figures) -> float:
        res = f.fig5["batch"]
        return res.peaks[impl][res.xs.index(batch)] / 2**20
    return measure


def _conv1_occupancy(impl: str) -> Callable[[Figures], float]:
    return lambda f: f.fig6[impl]["Conv1"].achieved_occupancy


def _transfer_max(impl: str) -> Callable[[Figures], float]:
    return lambda f: max(f.fig7[impl].values())


# -- the table ---------------------------------------------------------------

CLAIMS: Tuple[Claim, ...] = (
    # Fig. 2: convolution dominates training time.
    *(Claim(f"fig2.conv_share.{model}", f"{model}: conv share of an "
            "iteration", paper, "(0.8, 0.97]", _conv_share(model))
      for model, paper in (("GoogLeNet", 0.86), ("VGG", 0.89),
                           ("OverFeat", 0.90), ("AlexNet", 0.94))),
    Claim("fig2.layer_types_missing", "of Concat (GoogLeNet), FC and LRN "
          "(AlexNet), layer types missing", 0, "[0, 0]",
          lambda f: sum(t not in f.fig2[m].shares for m, t in (
              ("GoogLeNet", "Concat"), ("AlexNet", "FC"),
              ("AlexNet", "LRN")))),

    # Fig. 3(a): runtime over the batch sweep.
    Claim("fig3a.fbfft_not_fastest", "batch points where fbfft is not the "
          "fastest", 0, "[0, 0]",
          lambda f: _not_fastest(f.fig3["batch"], "fbfft")),
    Claim("fig3a.fbfft_advantage_min", "fbfft's smallest speedup over "
          "another implementation", 1.4, "[1.2, inf)",
          lambda f: min(_advantages(f.fig3["batch"], "fbfft"))),
    Claim("fig3a.fbfft_advantage_max", "fbfft's largest speedup over "
          "another implementation", 9.7, "(-inf, 15]",
          lambda f: max(_advantages(f.fig3["batch"], "fbfft"))),
    Claim("fig3a.theano_fft_not_slowest", "batch points where Theano-fft "
          "is not the only slowest", 0, "[0, 0]",
          lambda f: _not_slowest(f.fig3["batch"], "Theano-fft")),
    Claim("fig3a.cudnn_not_best_unrolling", "(point, rival) pairs where "
          "cuDNN is not faster than Caffe, Torch-cunn or Theano-CorrMM",
          0, "[0, 0]",
          lambda f: sum(_slower_where(f.fig3["batch"], "cuDNN", rival,
                                      lambda b: True)
                        for rival in UNROLLING)),
    Claim("fig3a.ccn2_tiling", "cuda-convnet2: slowest per-image time at "
          "b = 128n over fastest elsewhere", None, "(-inf, 1)",
          lambda f: _ccn2_tiling(f.fig3["batch"])),

    # Fig. 3(b): runtime over the input-size sweep.
    Claim("fig3b.fbfft_not_fastest", "input points where fbfft is not the "
          "fastest", 0, "[0, 1]",
          lambda f: _not_fastest(f.fig3["input"], "fbfft")),
    Claim("fig3b.fbfft_worst_slowdown", "fbfft's runtime over the fastest, "
          "at its worst input point", 1, "(-inf, 1.3)",
          lambda f: _slowdown(f.fig3["input"], "fbfft")),
    Claim("fig3b.fbfft_losses_at_128n", "input points at i = 128n where "
          "fbfft is not the fastest", None, "[0, 0]",
          lambda f: sum(f.fig3["input"].fastest_at(j) != "fbfft"
                        for j, i in enumerate(f.fig3["input"].xs)
                        if i % 128 == 0)),

    # Fig. 3(c): runtime over the filter-count sweep.
    Claim("fig3c.fbfft_not_fastest", "filter points where fbfft is not the "
          "fastest", 0, "[0, 0]",
          lambda f: _not_fastest(f.fig3["filters"], "fbfft")),
    Claim("fig3c.fbfft_advantage_min", "fbfft's smallest speedup over "
          "another implementation", 1.19, None,
          lambda f: min(_advantages(f.fig3["filters"], "fbfft"))),
    Claim("fig3c.fbfft_advantage_max", "fbfft's largest speedup over "
          "another implementation", 5.1, None,
          lambda f: max(_advantages(f.fig3["filters"], "fbfft"))),
    Claim("fig3c.corrmm_over_cudnn_f32", "Theano-CorrMM's runtime over "
          "cuDNN's at f = 32", None, "(1.2, inf)",
          lambda f: _ratio(f.fig3["filters"], "Theano-CorrMM", "cuDNN")[0]),
    Claim("fig3c.corrmm_over_cudnn_f512", "Theano-CorrMM's runtime over "
          "cuDNN's at f = 512", None, "(-inf, 1)",
          lambda f: _ratio(f.fig3["filters"], "Theano-CorrMM", "cuDNN")[-1]),
    Claim("fig3c.crossover_f", "first f at which Theano-CorrMM beats cuDNN",
          160, "(128, 400]",
          lambda f: _crossover(f.fig3["filters"], "Theano-CorrMM", "cuDNN")),

    # Fig. 3(d): runtime over the kernel-size sweep.
    Claim("fig3d.cudnn_advantage_max", "cuDNN's largest speedup over "
          "fbfft", 2.62, None,
          lambda f: max(_ratio(f.fig3["kernel"], "fbfft", "cuDNN"))),
    Claim("fig3d.cudnn_loses_below_k5", "k < 5 where cuDNN is not faster "
          "than fbfft", 0, "[0, 0]",
          lambda f: _slower_where(f.fig3["kernel"], "cuDNN", "fbfft",
                                  lambda k: k < 5)),
    Claim("fig3d.crossover_k", "first k at which fbfft beats cuDNN", 7,
          "[4, 8]", lambda f: _crossover(f.fig3["kernel"], "fbfft", "cuDNN")),
    Claim("fig3d.fbfft_loses_from_k8", "k >= 8 where fbfft is not faster "
          "than cuDNN", 0, "[0, 0]",
          lambda f: _slower_where(f.fig3["kernel"], "fbfft", "cuDNN",
                                  lambda k: k >= 8)),
    Claim("fig3d.wrong_winner_at_ends", "of k = 2 (cuDNN) and k = 13 "
          "(fbfft), ends with another fastest", 0, "[0, 0]",
          lambda f: ((f.fig3["kernel"].fastest_at(0) != "cuDNN")
                     + (f.fig3["kernel"].fastest_at(-1) != "fbfft"))),
    Claim("fig3d.fbfft_advantage_k8", "fbfft's speedup over cuDNN at "
          "k = 8", None, "(1, inf)", lambda f: _k_speedup(f, 8)),
    Claim("fig3d.fbfft_advantage_k13", "fbfft's speedup over cuDNN at "
          "k = 13", 19, None, lambda f: _k_speedup(f, 13)),
    Claim("fig3d.advantage_growth", "fbfft's speedup over cuDNN at k = 13 "
          "over that at k = 8", None, "(1, inf)",
          lambda f: _k_speedup(f, 13) / _k_speedup(f, 8)),
    Claim("fig3d.fbfft_flatness", "fbfft's slowest runtime over its "
          "fastest", 1, "(-inf, 1.15)",
          lambda f: (max(f.fig3["kernel"].times["fbfft"])
                     / min(f.fig3["kernel"].times["fbfft"]))),
    Claim("fig3d.ccn2_over_cudnn_min", "cuda-convnet2's runtime over "
          "cuDNN's, smallest", None, "(0.4, inf)",
          lambda f: min(_ratio(f.fig3["kernel"], "cuda-convnet2", "cuDNN"))),
    Claim("fig3d.ccn2_over_cudnn_max", "cuda-convnet2's runtime over "
          "cuDNN's, largest", None, "(-inf, 2)",
          lambda f: max(_ratio(f.fig3["kernel"], "cuda-convnet2", "cuDNN"))),

    # Fig. 3(e): runtime over the stride sweep.
    Claim("fig3e.fbfft_support_mismatch", "strides where fbfft runs and "
          "s > 1, or does not run and s = 1", 0, "[0, 0]",
          lambda f: sum((t is not None) != (s == 1) for s, t in zip(
              f.fig3["stride"].xs, f.fig3["stride"].times["fbfft"]))),
    Claim("fig3e.fbfft_loses_stride_1", "strides s = 1 whose fastest is "
          "not fbfft", 0, "[0, 0]",
          lambda f: sum(f.fig3["stride"].fastest_at(i) != "fbfft"
                        for i, s in enumerate(f.fig3["stride"].xs) if s == 1)),
    Claim("fig3e.cudnn_loses_larger_strides", "strides s > 1 whose fastest "
          "is not cuDNN", 0, "[0, 0]",
          lambda f: sum(f.fig3["stride"].fastest_at(i) != "cuDNN"
                        for i, s in enumerate(f.fig3["stride"].xs) if s > 1)),

    # Fig. 4: hotspot kernels at the base configuration.
    *(Claim(f"fig4.gemm_share.{impl}", f"{impl}: GEMM share of GPU time",
            paper, "[0.65, 0.95]", _gemm_share(impl))
      for impl, paper in zip(UNROLLING, (0.87, 0.83, 0.80))),
    Claim("fig4.unrolling_im2col_col2im", "smallest im2col + col2im share "
          "of the three unrolling implementations", None, "(0.05, inf)",
          lambda f: min(f.fig4[n].role_shares.get("im2col", 0)
                        + f.fig4[n].role_shares.get("col2im", 0)
                        for n in UNROLLING)),
    Claim("fig4.cudnn_top2_foreign", "of cuDNN's two top kernels, those "
          "not wgrad_alg0_engine or cudnn_gemm", 0, "[0, 0]",
          lambda f: sum(
              k not in ("wgrad_alg0_engine", "cudnn_gemm_fwd",
                        "cudnn_gemm_bgrad")
              for k in sorted(f.fig4["cuDNN"].kernel_shares,
                              key=f.fig4["cuDNN"].kernel_shares.get,
                              reverse=True)[:2])),
    Claim("fig4.ccn2_direct_share", "cuda-convnet2: direct-conv share of "
          "GPU time", None, "(0.9, inf)",
          lambda f: f.fig4["cuda-convnet2"].role_shares["direct conv"]),
    Claim("fig4.fbfft_smallest_stage", "fbfft: smallest share of FFT, FFT "
          "inverse, transpose and CGEMM", None, "(0.02, inf)",
          lambda f: min(f.fig4["fbfft"].role_shares.get(r, 0) for r in (
              "FFT", "FFT inverse", "transpose", "CGEMM"))),
    Claim("fig4.theano_fft_data_prep", "Theano-fft: data-prep share of GPU "
          "time", None, "(0.2, inf)",
          lambda f: f.fig4["Theano-fft"].role_shares["data prep"]),

    # Fig. 5: peak memory over the five sweeps.
    Claim("fig5.ccn2_not_lowest", "points of all five sweeps where "
          "cuda-convnet2 is not the only lowest", 0, "[0, 0]",
          lambda f: _not_only(f, "cuda-convnet2", lowest=True)),
    Claim("fig5.fbfft_not_highest", "points of all five sweeps where fbfft "
          "runs and is not the only highest", 0, "[0, 0]",
          lambda f: _not_only(f, "fbfft", lowest=False)),
    Claim("fig5.ooms", "points of all five sweeps that run out of 12 GB",
          0, "[0, 0]",
          lambda f: sum(oom for res in f.fig5.values()
                        for col in res.ooms.values() for oom in col)),
    Claim("fig5a.torch_cunn_not_leanest", "(point, rival) pairs where "
          "Torch-cunn does not use less than Caffe, cuDNN or Theano-CorrMM",
          0, "[0, 0]",
          lambda f: sum(
              t >= o for rival in ("Caffe", "cuDNN", "Theano-CorrMM")
              for t, o in zip(f.fig5["batch"].peaks["Torch-cunn"],
                              f.fig5["batch"].peaks[rival]))),
    *(Claim(f"fig5a.peak_mb_b{b}.{impl}", f"{impl}: peak MB at b = {b}",
            paper, None, _peak_mb(impl, b))
      for impl, low, high in (
          ("cuda-convnet2", 125, 2076), ("Torch-cunn", 170, 2093),
          ("Caffe", 136, 3809), ("Theano-CorrMM", 130, 3709),
          ("cuDNN", 155, 3810), ("fbfft", 1632, 10866))
      for b, paper in ((32, low), (512, high))),
    Claim("fig5b.fbfft_largest_step", "fbfft: largest peak ratio between "
          "neighbouring input sizes", None, "(1.8, inf)",
          lambda f: max(_steps(f.fig5["input"].peaks["fbfft"]))),
    Claim("fig5b.caffe_largest_step", "Caffe: largest peak ratio between "
          "neighbouring input sizes", None, "(-inf, 1.6)",
          lambda f: max(_steps(f.fig5["input"].peaks["Caffe"]))),
    Claim("fig5d.theano_fft_up_steps", "Theano-fft: kernel sizes whose "
          "peak exceeds the previous one's", None, "[1, inf)",
          lambda f: sum(s > 1 for s in _steps(
              f.fig5["kernel"].peaks["Theano-fft"]))),

    # Fig. 6: GPU metrics over Table I's Conv1..Conv5.
    Claim("fig6.others_occupancy_max", "largest occupancy of the "
          "implementations other than Theano-fft", None, "(-inf, 0.45)",
          lambda f: max(_metric(f, _but_theano_fft(f),
                                "achieved_occupancy"))),
    Claim("fig6.ccn2_occupancy_min", "cuda-convnet2: smallest occupancy",
          0.14, "[0.1, inf)",
          lambda f: min(_metric(f, ["cuda-convnet2"], "achieved_occupancy"))),
    Claim("fig6.ccn2_occupancy_max", "cuda-convnet2: largest occupancy",
          0.22, "(-inf, 0.25]",
          lambda f: max(_metric(f, ["cuda-convnet2"], "achieved_occupancy"))),
    Claim("fig6.theano_fft_occupancy_min", "Theano-fft: smallest "
          "occupancy", 0.39, "[0.35, inf)",
          lambda f: min(_metric(f, ["Theano-fft"], "achieved_occupancy"))),
    Claim("fig6.theano_fft_occupancy_max", "Theano-fft: largest "
          "occupancy", 0.59, None,
          lambda f: max(_metric(f, ["Theano-fft"], "achieved_occupancy"))),
    Claim("fig6.theano_fft_over_fbfft", "Theano-fft's runtime over fbfft's, "
          "smallest", None, "(3, inf)", _theano_fft_over_fbfft),
    Claim("fig6.theano_fft_wee_min", "Theano-fft: smallest warp execution "
          "efficiency", 0.66, "[0.6, inf)",
          lambda f: min(_metric(f, ["Theano-fft"],
                                "warp_execution_efficiency"))),
    Claim("fig6.theano_fft_wee_max", "Theano-fft: largest warp execution "
          "efficiency", 0.81, "(-inf, 0.85)",
          lambda f: max(_metric(f, ["Theano-fft"],
                                "warp_execution_efficiency"))),
    Claim("fig6.others_wee_min", "smallest warp execution efficiency of "
          "the implementations other than Theano-fft", (0.97, 1.0),
          "(0.93, inf)",
          lambda f: min(_metric(f, _but_theano_fft(f),
                                "warp_execution_efficiency"))),
    Claim("fig6.theano_fft_shared_eff_max", "Theano-fft: largest shared "
          "efficiency", 0.20, "(-inf, 0.25)",
          lambda f: max(_metric(f, ["Theano-fft"], "shared_efficiency"))),
    Claim("fig6.cudnn_shared_eff_max", "cuDNN: largest shared efficiency "
          "(64-bit banks cap it at 2)", (1.3, 2.0), "(1, inf)",
          lambda f: max(_metric(f, ["cuDNN"], "shared_efficiency"))),
    Claim("fig6.unrolling_gld_eff_max", "largest global load efficiency "
          "of the three unrolling implementations", 0.16, "(-inf, 0.6)",
          lambda f: max(_metric(f, UNROLLING, "gld_efficiency"))),
    Claim("fig6.theano_fft_conflict_free", "configs where Theano-fft "
          "records no shared bank conflict", 0, "[0, 0]",
          lambda f: sum(s.shared_load_bank_conflicts
                        + s.shared_store_bank_conflicts == 0
                        for s in f.fig6["Theano-fft"].values())),
    *(Claim(f"fig6.conv1_occupancy.{impl}", f"{impl}: occupancy at Conv1",
            None, None, _conv1_occupancy(impl))
      for impl in ("Caffe", "cuDNN", "Torch-cunn", "Theano-CorrMM",
                   "cuda-convnet2", "fbfft", "Theano-fft")),

    # Fig. 7: exposed transfer share of an iteration.
    Claim("fig7.prefetch_max", "largest share of Caffe, cuDNN and fbfft",
          0, "(-inf, 0.01)",
          lambda f: max(max(f.fig7[n].values())
                        for n in ("Caffe", "cuDNN", "fbfft"))),
    *(Claim(f"fig7.transfer_max.{impl}", f"{impl}: largest share",
            (0.01, 0.15), "(0.01, 0.3)", _transfer_max(impl))
      for impl in ("Torch-cunn", "cuda-convnet2", "Theano-fft")),
    Claim("fig7.corrmm_conv2", "Theano-CorrMM: share at Conv2",
          (0.6, 1.0), "(0.5, inf)",
          lambda f: f.fig7["Theano-CorrMM"]["Conv2"]),
    Claim("fig7.corrmm_elsewhere_max", "Theano-CorrMM: largest share "
          "outside Conv2", None, "(-inf, 0.2)",
          lambda f: max(v for c, v in f.fig7["Theano-CorrMM"].items()
                        if c != "Conv2")),
)
