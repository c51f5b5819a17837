"""Per-device advisor winner table (Fig. 3 restaged per profile).

The paper ranks the seven implementations on one GPU (the Tesla
K40c).  With the device registry the same Fig. 3-style question —
*which implementation wins this convolution?* — can be asked of every
shipped profile.  This benchmark sweeps the paper's kernel-size axis
(the axis with the interesting crossover) plus the stride and
memory-pressure corner cases through one shared :class:`Advisor`,
once per registered device, and archives the winner table.

Gates:

* the paper's qualitative story holds on every Kepler/Maxwell-class
  device: cuDNN wins small kernels, fbfft wins large ones, stride > 1
  rules the FFT implementations out;
* the capability endpoints hold on every scenario: Pascal is never
  beaten and the K20X never wins.  (The interior is *not* monotone —
  the M40 loses the FFT-bound scenarios to the older K40c, one of the
  cross-device inversions the registry exists to surface.)

Run as a script (``python benchmarks/bench_devices.py``) it writes
``benchmarks/results/BENCH_devices.json`` plus the rendered
``device_winners.txt`` and exits non-zero on any gate failure.  Under
pytest it runs the same sweep and asserts the same gates.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Fig. 3's anchor point (batch, input, filters, kernel, stride) is
#: (64, 128, 64, 11, 1); the scenarios walk its kernel-size axis and
#: add the stride and tight-memory corners the advisor's rationale
#: covers.
SCENARIOS = (
    ("k=3", dict(batch=64, input_size=128, filters=64, kernel_size=3)),
    ("k=5", dict(batch=64, input_size=128, filters=64, kernel_size=5)),
    ("k=7", dict(batch=64, input_size=128, filters=64, kernel_size=7)),
    ("k=9", dict(batch=64, input_size=128, filters=64, kernel_size=9)),
    ("k=11", dict(batch=64, input_size=128, filters=64, kernel_size=11)),
    ("k=11,s=2", dict(batch=64, input_size=128, filters=64, kernel_size=11,
                      stride=2)),
)

#: The capability endpoints: the K20X is the weakest shipped profile
#: and Pascal the strongest.  Only the endpoints gate — the interior
#: ordering is scenario-dependent (the M40 loses FFT-bound scenarios
#: to the K40c).
SLOWEST, FASTEST = "k20x", "pascal"


def run_sweep() -> dict:
    from repro.config import ConvConfig
    from repro.core.advisor import Advisor
    from repro.devices import default_registry, get_profile
    from repro.gpusim.device import spec_digest

    advisor = Advisor()     # one advisor + shared cache for every device
    registry = default_registry()
    devices = {}
    for name in registry.names():
        profile = get_profile(name)
        rows = {}
        for label, kw in SCENARIOS:
            rec = advisor.recommend(ConvConfig(**kw), device=profile.spec)
            winner = next((c for c in rec.candidates
                           if c.implementation == rec.best), None)
            rows[label] = {
                "winner": rec.best,
                "time_ms": round(winner.time_s * 1000, 4)
                           if winner is not None else None,
                "peak_memory_mb": round(
                    winner.peak_memory_bytes / 2**20, 1)
                           if winner is not None else None,
            }
        devices[name] = {
            "display_name": profile.spec.name,
            "digest": spec_digest(profile.spec),
            "scenarios": rows,
        }
    return {
        "benchmark": "devices",
        "scenarios": [label for label, _ in SCENARIOS],
        "devices": devices,
    }


def check_gates(payload: dict) -> list:
    failures = []
    devices = payload["devices"]

    # Gate 1: the paper's qualitative story on every device.
    for name, entry in devices.items():
        rows = entry["scenarios"]
        if rows["k=3"]["winner"] != "cuDNN":
            failures.append(f"{name}: cuDNN does not win small kernels")
        if rows["k=11"]["winner"] != "fbfft":
            failures.append(f"{name}: fbfft does not win large kernels")
        if "fft" in (rows["k=11,s=2"]["winner"] or "").lower():
            failures.append(f"{name}: an FFT implementation won a "
                            f"strided scenario")

    # Gate 2: capability endpoints — Pascal is never beaten, the K20X
    # never wins.
    for label in payload["scenarios"]:
        times = {name: entry["scenarios"][label]["time_ms"]
                 for name, entry in devices.items()}
        if any(t is None for t in times.values()):
            failures.append(f"{label}: a device had no feasible "
                            f"implementation")
            continue
        if times[FASTEST] != min(times.values()):
            failures.append(f"{label}: {FASTEST} ({times[FASTEST]} ms) "
                            f"was beaten by another device")
        if times[SLOWEST] != max(times.values()):
            failures.append(f"{label}: {SLOWEST} ({times[SLOWEST]} ms) "
                            f"was not the slowest device")
    return failures


def _render_text(payload: dict) -> str:
    names = list(payload["devices"])
    lines = [
        "advisor winner per device (Fig. 3 kernel axis + corners)",
        "",
        f"{'scenario':10s} " + " ".join(f"{n:>22s}" for n in names),
    ]
    for label in payload["scenarios"]:
        cells = []
        for name in names:
            row = payload["devices"][name]["scenarios"][label]
            cells.append(f"{row['winner'] or '-':>13s} "
                         f"{row['time_ms']:8.2f}")
        lines.append(f"{label:10s} " + " ".join(cells))
    return "\n".join(lines)


def bench_device_winners(save_artifact):
    """Benchmark-suite entry: full sweep plus the gates."""
    payload = run_sweep()
    save_artifact("device_winners", _render_text(payload))
    assert not check_gates(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)

    t0 = time.perf_counter()
    payload = run_sweep()
    payload["host_wall_s"] = round(time.perf_counter() - t0, 3)
    print(_render_text(payload))

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_devices.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (RESULTS_DIR / "device_winners.txt").write_text(
        _render_text(payload) + "\n")
    print(f"\nwrote {out}")

    failures = check_gates(payload)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
    raise SystemExit(main())
