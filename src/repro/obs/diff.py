"""Trace diff: run-to-run regression attribution.

"Run B is slower than run A" is the question every entry in this
repo's benchmark history answers by hand; this module answers it from
the traces.  Two runs are aligned by **span path** — the chain of span
names from the root down, with dispatch spans labelled by the
implementation they ran (``serve.run/serve.batch/serve.dispatch[cudnn]``)
— which is stable across same-workload runs regardless of absolute
span ids or timestamps.  Per aligned path the diff reports count,
total-time and self-time deltas; on top of the raw deltas it ranks
*explanations*:

* **fault_injections** — fault events present in the candidate but
  not the baseline, weighted by the simulated time they cost (ECC
  replay + backoff + straggler drag, as
  :func:`repro.obs.analyze.fault_census` counts it);
* **plan_cache_misses** — extra advisor rankings the candidate paid
  for, weighted by the advisor-span time delta;
* **batch_size_shift** — the batcher formed differently sized batches
  (a policy or load change), weighted by the dispatch-time delta;
* **kernel_time_drift** — per-role GPU time moved without a matching
  launch-count change (a timing-model or calibration drift);
* **workload_change** — the two traces do not even serve the same
  offered load (deltas are then descriptive, not regressions).

Both sides are :class:`~repro.obs.analyze.TraceAnalysis` values: the
one walk that :func:`~repro.obs.analyze.analyze_run` makes of each
trace also collects the span paths and per-(implementation, role)
launch counts the alignment needs.  Everything is a pure function of
the two traces: same pair in, byte-identical report out.  A same-seed
pair produces zero deltas and zero findings — the
``repro analyze --baseline`` CI check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .analyze import PathStat, TraceAnalysis, analyze_run
from .tracer import SimTracer

#: Relative change below which a quantity counts as unchanged (floats
#: from two identical runs compare exactly; this guards real pairs).
_REL_EPS = 1e-9


@dataclass(frozen=True)
class PathDelta:
    """One aligned span path's change, baseline → candidate."""

    path: str
    base_count: int
    cand_count: int
    base_total_s: float
    cand_total_s: float
    base_self_s: float
    cand_self_s: float

    @property
    def d_count(self) -> int:
        return self.cand_count - self.base_count

    @property
    def d_total_s(self) -> float:
        return self.cand_total_s - self.base_total_s

    @property
    def d_self_s(self) -> float:
        return self.cand_self_s - self.base_self_s


@dataclass(frozen=True)
class Finding:
    """One ranked explanation of where the regression came from."""

    cause: str
    detail: str
    magnitude_s: float
    evidence: Dict[str, object]


def _changed(base: float, cand: float) -> bool:
    scale = max(abs(base), abs(cand))
    return abs(cand - base) > _REL_EPS * max(scale, 1.0)


def _path_deltas(base: TraceAnalysis,
                 cand: TraceAnalysis) -> List[PathDelta]:
    zero = PathStat(0, 0.0, 0.0)
    deltas = []
    for path in sorted(set(base.paths) | set(cand.paths)):
        b = base.paths.get(path, zero)
        c = cand.paths.get(path, zero)
        if b.count == c.count and not _changed(b.total_s, c.total_s) \
                and not _changed(b.self_s, c.self_s):
            continue
        deltas.append(PathDelta(path=path,
                                base_count=b.count, cand_count=c.count,
                                base_total_s=b.total_s,
                                cand_total_s=c.total_s,
                                base_self_s=b.self_s, cand_self_s=c.self_s))
    deltas.sort(key=lambda d: (-abs(d.d_total_s), d.path))
    return deltas


def _gpu_roles(a: TraceAnalysis) -> Dict[str, Tuple[int, float]]:
    """``"impl/role"`` -> (kernel leaves, seconds)."""
    return {f"{impl}/{role}": (a.launches[impl][role], secs)
            for impl, roles in a.hotspots.items()
            for role, secs in roles.items()}


def _findings(base: TraceAnalysis, cand: TraceAnalysis) -> List[Finding]:
    findings: List[Finding] = []

    fault_events = {name: count for name, count in cand.events.items()
                    if name.startswith(("fault.", "retry.", "breaker.",
                                        "shed.fault"))}
    base_faults = {name: count for name, count in base.events.items()
                   if name in fault_events or name.startswith("fault.")}
    d_fault_time = cand.fault_time_s - base.fault_time_s
    if fault_events != base_faults or _changed(base.fault_time_s,
                                               cand.fault_time_s):
        findings.append(Finding(
            cause="fault_injections",
            detail=(f"fault handling cost moved by "
                    f"{d_fault_time * 1000:+.3f} ms "
                    f"(events: {dict(sorted(fault_events.items()))})"),
            magnitude_s=abs(d_fault_time),
            evidence={"baseline_events": dict(sorted(base_faults.items())),
                      "candidate_events": dict(sorted(fault_events.items())),
                      "d_fault_time_s": d_fault_time}))

    base_misses = base.plan_lookups.get("misses", 0)
    cand_misses = cand.plan_lookups.get("misses", 0)
    d_misses = cand_misses - base_misses
    if d_misses:
        rank_base = sum(st.total_s for p, st in base.paths.items()
                        if p.endswith("advisor.rank"))
        rank_cand = sum(st.total_s for p, st in cand.paths.items()
                        if p.endswith("advisor.rank"))
        findings.append(Finding(
            cause="plan_cache_misses",
            detail=(f"{d_misses:+d} plan-cache misses "
                    f"({base_misses} -> {cand_misses}); "
                    f"advisor ranking time {rank_base * 1000:.3f} -> "
                    f"{rank_cand * 1000:.3f} ms"),
            magnitude_s=abs(rank_cand - rank_base),
            evidence={"d_misses": d_misses,
                      "d_rank_time_s": rank_cand - rank_base}))

    base_batches = int(base.batches["count"])
    cand_batches = int(cand.batches["count"])
    base_mean, cand_mean = (base.batches["mean_batch"],
                            cand.batches["mean_batch"])
    base_fill, cand_fill = (base.batches["mean_fill"],
                            cand.batches["mean_fill"])
    if base_batches and cand_batches and \
            (_changed(base_mean, cand_mean)
             or _changed(base_fill, cand_fill)):
        dispatch_base = sum(st.total_s for p, st in base.paths.items()
                            if "serve.dispatch" in p)
        dispatch_cand = sum(st.total_s for p, st in cand.paths.items()
                            if "serve.dispatch" in p)
        # Net out fault-handling time so a chaos run's retry/straggler
        # cost is not billed twice (it has its own finding above).
        shift_s = (dispatch_cand - dispatch_base) \
            - (cand.fault_time_s - base.fault_time_s)
        findings.append(Finding(
            cause="batch_size_shift",
            detail=(f"mean batch {base_mean:.2f} -> {cand_mean:.2f}, "
                    f"mean fill {base_fill:.2f} -> {cand_fill:.2f} "
                    f"over {base_batches} -> {cand_batches} batches"),
            magnitude_s=abs(shift_s),
            evidence={"d_mean_batch": cand_mean - base_mean,
                      "d_mean_fill": cand_fill - base_fill,
                      "d_batches": cand_batches - base_batches}))

    drift_s = 0.0
    drift_roles: Dict[str, float] = {}
    base_roles, cand_roles = _gpu_roles(base), _gpu_roles(cand)
    for key in sorted(set(base_roles) & set(cand_roles)):
        (bc, bt), (cc, ct) = base_roles[key], cand_roles[key]
        if bc == cc and _changed(bt, ct):
            drift_roles[key] = ct - bt
            drift_s += abs(ct - bt)
    if drift_roles:
        worst = max(drift_roles, key=lambda k: (abs(drift_roles[k]), k))
        findings.append(Finding(
            cause="kernel_time_drift",
            detail=(f"{len(drift_roles)} kernel role(s) changed runtime at "
                    f"equal launch counts; largest: {worst} "
                    f"{drift_roles[worst] * 1000:+.3f} ms"),
            magnitude_s=drift_s,
            evidence={"d_role_time_s": dict(sorted(drift_roles.items()))}))

    if base.arrivals != cand.arrivals:
        findings.append(Finding(
            cause="workload_change",
            detail=(f"offered load differs: {base.arrivals} -> "
                    f"{cand.arrivals} arrivals — the runs are not "
                    f"like-for-like"),
            magnitude_s=abs(cand.duration_s - base.duration_s),
            evidence={"d_arrivals": cand.arrivals - base.arrivals}))

    findings.sort(key=lambda f: (-f.magnitude_s, f.cause))
    return findings


@dataclass(frozen=True)
class TraceDiff:
    """The ranked "what got slower and why" report."""

    baseline: str
    candidate: str
    d_duration_s: float
    base_duration_s: float
    cand_duration_s: float
    deltas: Tuple[PathDelta, ...]
    findings: Tuple[Finding, ...]

    @property
    def identical(self) -> bool:
        """True when the runs align perfectly: no deltas, no findings."""
        return not self.deltas and not self.findings \
            and not _changed(self.base_duration_s, self.cand_duration_s)

    def to_dict(self, top: int = 20) -> dict:
        return {
            "baseline": self.baseline,
            "candidate": self.candidate,
            "identical": self.identical,
            "duration_s": {"baseline": self.base_duration_s,
                           "candidate": self.cand_duration_s,
                           "delta": self.d_duration_s},
            "deltas": [
                {"path": d.path,
                 "count": {"baseline": d.base_count,
                           "candidate": d.cand_count,
                           "delta": d.d_count},
                 "total_s": {"baseline": d.base_total_s,
                             "candidate": d.cand_total_s,
                             "delta": d.d_total_s},
                 "self_s": {"baseline": d.base_self_s,
                            "candidate": d.cand_self_s,
                            "delta": d.d_self_s}}
                for d in self.deltas[:top]],
            "delta_count": len(self.deltas),
            "findings": [
                {"cause": f.cause, "detail": f.detail,
                 "magnitude_s": f.magnitude_s, "evidence": f.evidence}
                for f in self.findings],
        }

    def render(self, top: int = 10) -> str:
        from ..core.report import table as text_table

        lines = [f"baseline:  {self.baseline}",
                 f"candidate: {self.candidate}",
                 f"simulated duration {self.base_duration_s * 1000:.3f} -> "
                 f"{self.cand_duration_s * 1000:.3f} ms "
                 f"({self.d_duration_s * 1000:+.3f} ms)"]
        if self.identical:
            lines.append("")
            lines.append("runs are identical: zero deltas, zero findings")
            return "\n".join(lines)
        if self.deltas:
            rows = [[d.path if len(d.path) <= 60 else "..." + d.path[-57:],
                     f"{d.d_count:+d}",
                     f"{d.d_total_s * 1000:+.3f}",
                     f"{d.d_self_s * 1000:+.3f}"]
                    for d in self.deltas[:top]]
            lines.append("")
            lines.append(text_table(
                ["span path", "Δcount", "Δtotal (ms)", "Δself (ms)"], rows,
                title=f"top path deltas ({len(self.deltas)} changed)"))
        if self.findings:
            lines.append("")
            lines.append("what got slower and why (ranked):")
            for i, f in enumerate(self.findings, 1):
                lines.append(f"  {i}. [{f.cause}] {f.detail} "
                             f"(~{f.magnitude_s * 1000:.3f} ms)")
        else:
            lines.append("")
            lines.append("no attributable cause found "
                         "(deltas below attribution thresholds)")
        return "\n".join(lines)


def diff_runs(baseline: TraceAnalysis,
              candidate: TraceAnalysis) -> TraceDiff:
    """Align two runs' analyses and attribute their differences."""
    return TraceDiff(
        baseline=baseline.source,
        candidate=candidate.source,
        d_duration_s=candidate.duration_s - baseline.duration_s,
        base_duration_s=baseline.duration_s,
        cand_duration_s=candidate.duration_s,
        deltas=tuple(_path_deltas(baseline, candidate)),
        findings=tuple(_findings(baseline, candidate)),
    )


def diff_traces(baseline: SimTracer, candidate: SimTracer) -> TraceDiff:
    """Analyze and diff two live or reloaded tracers."""
    return diff_runs(analyze_run(baseline), analyze_run(candidate))
