"""The write rule the benchmark scripts share for committed artifacts.

Host timings differ on every run, so a run that reproduces every other
recorded field leaves its artifact byte-for-byte as it was, and a
passing CI gate leaves ``benchmarks/results/`` clean.  An artifact is
written only when it is missing or a recorded field other than the
host timings differs.  To record new host timings on purpose, delete
the artifact and rerun.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, List, Optional, Tuple


def _recorded(source, host_timings: Tuple[str, ...]) -> Optional[dict]:
    """The fields a run records, with every key named in
    ``host_timings`` dropped at any depth, from a payload or an
    artifact path (``None`` when the artifact is missing)."""
    if isinstance(source, pathlib.Path):
        if not source.exists():
            return None
        source = json.loads(source.read_text())

    def strip(node):
        return {k: strip(v) if isinstance(v, dict) else v
                for k, v in node.items() if k not in host_timings}

    return strip(json.loads(json.dumps(source)))


def finish(out: pathlib.Path, payload: dict, failures: List[str],
           host_timings: Tuple[str, ...], write: bool = True,
           texts: Optional[Dict[pathlib.Path, str]] = None,
           sort_keys: bool = False) -> int:
    """Report gate failures, then write ``payload`` as JSON to ``out``,
    and each ``{path: text}`` of ``texts`` beside it, when the run
    passed, ``write`` is set and ``out`` does not already record the
    same fields apart from ``host_timings``; returns the exit code."""
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    if (failures or not write
            or _recorded(out, host_timings) == _recorded(payload,
                                                         host_timings)):
        print(f"\nleft {out} untouched")
        return 1 if failures else 0
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")
    for path, text in (texts or {}).items():
        path.write_text(text)
    print(f"\nwrote {out}")
    return 0
