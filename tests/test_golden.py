"""Simulated outputs stay bit-identical to the committed golden fingerprint.

Runs the benchmark's ``adapt_warm`` configurations (qcut+hash at k=4 and
k=8 under the MAPE loop) on its default seed and compares each result's
fingerprint with ``perfbench/golden.json``. The workload definitions and
the fingerprint function are loaded read-only from ``perfbench/workloads.py``
so the test and the benchmark cannot drift apart.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.controller.simulator import run_experiment
from repro.experiments import trace_for
from repro.roadnet.datasets import bw_lite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 42


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve annotations through it
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def golden():
    with open(PERFBENCH / "golden.json") as f:
        return json.load(f)["adapt_warm"][str(SEED)]


def test_adapt_warm_matches_golden(spark, golden):
    W = _workloads()
    wl = W.WORKLOADS["adapt_warm"]
    net = bw_lite()
    queries = wl.queries(net, SEED)
    trace = trace_for(spark, net, queries)
    assert W.trace_fingerprint(trace) == golden["trace"]
    for cfg in wl.configs:
        r = run_experiment(None, net, queries, trace, cfg)
        assert W.result_fingerprint(r) == golden["configs"][cfg.name], cfg.name
