"""The benchmark's traced mode wraps locdom functions by their module
attribute names. Entering its instrumentation here makes a renamed or removed
binding fail the test suite rather than only ``perfbench/run.py --trace 1``.
"""

import importlib
from pathlib import Path

from locdom import families, theorems

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_instrumentation_finds_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    worker = importlib.import_module("worker")
    inst = worker.Instrumented(harness.Tracer())
    with inst:
        assert len(theorems.nonisomorphic_connected_graphs(4)) == 6
    assert inst.reset()["classes"] == 6
    assert theorems.nonisomorphic_connected_graphs is families.nonisomorphic_connected_graphs


def test_trace_counts_the_classes_a_bounds_sweep_asks_for(monkeypatch):
    # the traced mode counts classes through the theorems binding; a sweep
    # that reached the class generator another way would count none
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    worker = importlib.import_module("worker")
    inst = worker.Instrumented(harness.Tracer())
    config = theorems.VerifyConfig(
        n_max_complete=1, n_max_hi=3, n_max_bounds=5, include_gap_lemma=False
    )
    with inst:
        theorems.verify_suite(config, workers=1)
    assert inst.class_counts == [(5, 21)]
    assert inst.reset()["classes"] == 21
