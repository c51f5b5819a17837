"""Model-consistency audits.

The performance model's credibility rests on internal bookkeeping
being exact: every implementation's kernel plan must carry the same
mathematical work the configuration implies, its memory plan must
contain the mandatory tensors, and its numerics must agree with the
reference.  This module packages those audits as library functions, so
a user extending the framework zoo (e.g. the Winograd what-if adapter)
can validate an adapter the way the built-in test-suite does::

    from repro.core.validation import audit_implementation
    report = audit_implementation(MyAdapter(), config)
    assert report.ok, report.render()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..config import ConvConfig
from ..conv.reference import conv2d_reference
from ..frameworks.base import ConvImplementation, Strategy
from ..gpusim.device import DeviceSpec, K40C
from ..gpusim.kernels import KernelRole
from ..rng import make_rng
from .evalcache import evaluate


@dataclass
class AuditReport:
    """Outcome of one implementation audit."""

    implementation: str
    config: ConvConfig
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(name)
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def render(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [f"audit of {self.implementation} at {self.config.tuple5}: "
                 f"{status} ({len(self.checks)} checks)"]
        lines.extend(f"  FAIL {f}" for f in self.failures)
        return "\n".join(lines)


#: Roles that perform the convolution arithmetic itself.
_WORK_ROLES = {KernelRole.GEMM, KernelRole.CGEMM, KernelRole.DIRECT_CONV,
               KernelRole.FFT, KernelRole.FFT_INVERSE}


def audit_flops(impl: ConvImplementation, config: ConvConfig,
                report: AuditReport) -> None:
    """The plan's arithmetic must be plausibly anchored to the config:
    at least the direct-algorithm FLOPs for spatial strategies, and not
    absurdly more; FFT plans must carry *fewer* FLOPs for large kernels
    (that is their whole point)."""
    plan = impl.kernel_plan(config)
    work = sum(s.total_flops for s in plan if s.role in _WORK_ROLES)
    direct = config.training_flops
    if impl.strategy is Strategy.FFT:
        report.record("fft-flops-bounded", 0 < work < 12 * direct,
                      f"work {work:.3g} vs direct {direct:.3g}")
        if config.kernel_size >= 11:
            report.record("fft-beats-direct-arithmetic", work < direct,
                          f"work {work:.3g} vs direct {direct:.3g}")
    else:
        # Transform-domain spatial strategies (Winograd F(2x2,3x3))
        # legitimately carry as little as direct/2.25 multiplication
        # work; nothing spatial may be cheaper than direct/3.
        report.record("spatial-flops-anchored",
                      direct / 3.0 <= work <= 2.0 * direct,
                      f"work {work:.3g} vs direct {direct:.3g}")


def audit_memory(impl: ConvImplementation, config: ConvConfig,
                 report: AuditReport) -> None:
    """The memory plan must hold the mandatory tensors, exactly
    sized."""
    plan = dict(impl.memory_plan(config))
    b, i, f, k, _ = config.tuple5
    c = config.channels
    o = config.output_size
    expected = {
        "input": b * c * i * i * 4,
        "weights": f * c * k * k * 4,
        "output": b * f * o * o * 4,
        "weight_grad": f * c * k * k * 4,
    }
    for tag, size in expected.items():
        report.record(f"memory-{tag}", plan.get(tag) == size,
                      f"expected {size}, got {plan.get(tag)}")
    report.record("memory-all-positive",
                  all(v >= 0 for v in plan.values()))


def audit_numerics(impl: ConvImplementation, config: Optional[ConvConfig],
                   report: AuditReport, rng=None) -> None:
    """Forward numerics vs the naive reference on a small surrogate
    satisfying every implementation's constraints."""
    gen = make_rng(rng)
    x = gen.standard_normal((32, 3, 8, 8))
    w = gen.standard_normal((16, 3, 3, 3))
    try:
        got = impl.forward(x, w)
        want = conv2d_reference(x, w)
        close = np.allclose(got, want, rtol=1e-5, atol=1e-6)
        report.record("numerics-forward", close,
                      "forward deviates from reference")
    except Exception as exc:  # pragma: no cover - defensive
        report.record("numerics-forward", False, repr(exc))


def audit_timing(impl: ConvImplementation, config: ConvConfig,
                 report: AuditReport, device: DeviceSpec = K40C) -> None:
    """Every kernel must time positively; the iteration must not be
    absurd (sub-microsecond or above ten seconds) for paper-scale
    configs."""
    record = evaluate(impl, config, device)
    report.record("timing-positive",
                  all(t.time_s > 0 for t in record.kernels))
    report.record("timing-sane", 1e-6 < record.time_s < 10.0,
                  f"iteration {record.time_s}s")
    report.record("transfer-fraction-bounded",
                  0.0 <= record.transfer_fraction < 1.0)


def audit_implementation(impl: ConvImplementation, config: ConvConfig,
                         device: DeviceSpec = K40C,
                         check_numerics: bool = True) -> AuditReport:
    """Run the full audit battery against one implementation."""
    report = AuditReport(implementation=impl.paper_name or impl.name,
                         config=config)
    if not impl.supports(config):
        report.record("supports-config", False,
                      "implementation rejects this configuration")
        return report
    audit_flops(impl, config, report)
    audit_memory(impl, config, report)
    audit_timing(impl, config, report, device)
    if check_numerics and impl.supports(
            ConvConfig(batch=32, input_size=8, filters=16, kernel_size=3,
                       channels=3)):
        audit_numerics(impl, config, report)
    return report


def audit_all(config: ConvConfig, device: DeviceSpec = K40C) -> List[AuditReport]:
    """Audit the paper's seven implementations at one configuration."""
    from ..frameworks.registry import all_implementations

    return [audit_implementation(impl, config, device)
            for impl in all_implementations() if impl.supports(config)]
