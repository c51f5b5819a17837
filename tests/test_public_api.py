"""Public-API surface guard.

Every name each package advertises in ``__all__`` must actually exist,
and the headline entry points must be importable from the package
root — the contract the README's code snippets rely on.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.gpusim",
    "repro.conv",
    "repro.frameworks",
    "repro.nn",
    "repro.nn.models",
    "repro.core",
    "repro.workloads",
    "repro.tensor",
    "repro.obs",
    "repro.cluster",
    "repro.devices",
]


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_names_resolve(pkg):
    mod = importlib.import_module(pkg)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{pkg}.__all__ lists missing {name!r}"


def test_readme_quickstart_symbols():
    from repro import (Advisor, BASE_CONFIG, EXPERIMENTS, K40C,
                       all_implementations, get_implementation,
                       run_experiment)
    assert BASE_CONFIG.tuple5 == (64, 128, 64, 11, 1)
    assert len(all_implementations()) == 7
    assert len(EXPERIMENTS) == 16


def test_version_string():
    import repro
    assert repro.__version__ == "1.0.0"


def test_module_docstrings_everywhere():
    """Every public module carries a docstring (deliverable: doc
    comments on every public item)."""
    import pathlib
    src = pathlib.Path(__file__).parent.parent / "src" / "repro"
    missing = []
    for path in src.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not text.strip():
            continue  # empty __init__ markers
        if not (stripped.startswith('"""') or stripped.startswith("'''")):
            missing.append(str(path.relative_to(src)))
    assert missing == [], f"modules without docstrings: {missing}"


def test_public_classes_have_docstrings():
    import inspect

    import repro.core as core
    import repro.gpusim as gpusim
    import repro.nn as nn
    for mod in (gpusim, nn, core):
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{mod.__name__}.{name} lacks a docstring"


def test_model_loads_only_the_obs_modules_it_uses():
    """A fresh ``import repro.core`` loads the four ``repro.obs``
    modules the model layers use, not the whole observability plane:
    the package root imports none of its modules."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, repro.core\n"
            "print(*sorted(m for m in sys.modules"
            " if m.startswith('repro.obs.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["repro.obs.context", "repro.obs.hist",
                                   "repro.obs.metrics", "repro.obs.tracer"]
