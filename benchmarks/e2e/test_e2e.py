"""Checks of the end-to-end benchmark itself, at tiny input sizes.

Run with ``python -m pytest benchmarks/e2e``.  The ``figures`` case
still regenerates Fig. 2 (four full-size models), so it takes several
seconds and a few GB of memory.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
import worker  # noqa: E402

sys.path.insert(0, worker.SRC)

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_declares_the_spec(declared):
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == spec.per_layer_metrics()
    assert declared["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_workload_emits_metrics_repeats_and_fires_boundaries(
        name, declared, tmp_path):
    seed = spec.DEFAULT_SEEDS[name]
    plain = worker.measure(name, seed, 0.0, False, str(tmp_path),
                           size="tiny")
    assert plain["failed"] == 0 and plain["attempted"] >= spec.MIN_REPS
    # setup_s is timed by run.py across processes; the rest come from here.
    assert set(plain["metrics"]) | {"setup_s"} == \
        {m["name"] for m in declared["end_to_end"]}
    assert all(v > 0 for v in plain["metrics"].values())

    traced = worker.measure(name, seed, 0.0, True, str(tmp_path),
                            size="tiny")
    # Every repetition, traced ones included, matched repetition 1.
    assert traced["failed"] == 0
    assert traced["digest"] == plain["digest"]
    assert set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]}
    assert traced["trace_detail"]["boundaries_missing"] == []
    for label, where in spec.BOUNDARIES.items():
        if name in where:
            assert traced["metrics"][f"{label}.calls"] > 0, label
    shares = [traced["metrics"][f"pkg.{p}"] for p in spec.PACKAGE_SHARES]
    assert sum(shares) == pytest.approx(1.0)


def test_advise_inputs_follow_the_seed():
    def configs(seed):
        wl = workloads.make("advise", seed, "tiny")
        wl.setup()
        return wl.configs

    assert configs(3) == configs(3)
    assert configs(3) != configs(4)
    assert len(set(configs(3))) == spec.SIZES["tiny"]["advise"]["queries"]
