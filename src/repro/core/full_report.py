"""One-command study regeneration.

``generate_report()`` runs every experiment in the registry plus the
extension analyses and assembles a single markdown document — the
whole study, regenerated from scratch, suitable for diffing against
EXPERIMENTS.md after a model change.

Exposed on the CLI as ``python -m repro report <path>``.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..config import BASE_CONFIG
from .ablations import run_all as run_ablations
from .batch_advisor import batch_capacities, render_capacities
from .experiments import EXPERIMENTS, run_experiment
from .layer_advisor import oracle_mix
from .sensitivity import device_comparison, render_device_comparison

#: Experiments in presentation order.
_ORDER = ["table1", "table2", "fig2", "fig3a", "fig3b", "fig3c", "fig3d",
          "fig3e", "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
          "fig6", "fig7"]


def _block(text: str) -> str:
    return "```\n" + text.rstrip("\n") + "\n```"


def generate_report(include_extensions: bool = True,
                    experiments: Optional[List[str]] = None) -> str:
    """Build the full markdown report; returns the document text."""
    wanted = experiments if experiments is not None else _ORDER
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    import repro  # late import avoids a package-init cycle

    lines: List[str] = [
        "# Regenerated study — Performance Analysis of GPU-based "
        "Convolutional Neural Networks (ICPP 2016)",
        "",
        f"repro version {repro.__version__}; every number below is "
        "freshly simulated (Tesla K40c device model).",
        "",
    ]
    for exp_id in wanted:
        exp = EXPERIMENTS[exp_id]
        start = time.perf_counter()
        _, text = run_experiment(exp_id)
        elapsed = time.perf_counter() - start
        lines.append(f"## {exp_id} — {exp.title}")
        lines.append("")
        lines.append(_block(text))
        lines.append("")
        lines.append(f"_regenerated in {elapsed:.2f} s_")
        lines.append("")

    if include_extensions:
        lines.append("## Extensions")
        lines.append("")
        lines.append("### Cross-device headlines")
        lines.append(_block(render_device_comparison(device_comparison())))
        lines.append("")
        lines.append("### Design-choice ablations")
        lines.append(_block("\n\n".join(r.render() for r in run_ablations())))
        lines.append("")
        lines.append("### Largest trainable batch (base geometry)")
        lines.append(_block(render_capacities(
            BASE_CONFIG, batch_capacities(BASE_CONFIG))))
        lines.append("")
        lines.append("### Per-layer oracle mix — AlexNet")
        from ..nn.models import model_registry
        ctor, shape = model_registry()["AlexNet"]
        lines.append(_block(
            oracle_mix("AlexNet", ctor(), (128,) + shape).render()))
        lines.append("")

    return "\n".join(lines)


def write_report(path: str, include_extensions: bool = True) -> str:
    """Generate and write the report; returns the text."""
    text = generate_report(include_extensions=include_extensions)
    with open(path, "w") as fh:
        fh.write(text)
    return text
