"""Unit tests for the benchmark's pure helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("mid", 1.0, 6.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 4.0, 4.5, 1),
        ("mid", 7.0, 9.0, 0),
    ]
    own = harness.self_times(spans)
    assert own["outer"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["mid"] == pytest.approx((5.0 - 1.5) + 2.0)
    assert own["leaf"] == pytest.approx(1.5)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("root", 0.0, 4.0, -1), ("a", 1.0, 3.0, 0), ("b", 2.0, 3.5, 0)]
    assert harness.self_times(spans)["root"] == pytest.approx(4.0 - 2.5)


def test_self_time_clips_children_to_the_parent():
    spans = [("root", 0.0, 2.0, -1), ("late", 1.5, 3.0, 0)]
    assert harness.self_times(spans)["root"] == pytest.approx(1.5)


def test_tracer_nests_calls_and_generator_resumptions():
    ticks = iter(range(100))
    tracer = harness.Tracer(clock=lambda: float(next(ticks)))

    def leaf() -> int:
        return 1

    def gen():
        yield wrapped_leaf()
        yield wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_gen = tracer.wrap("gen", gen)
    outer = tracer.wrap("outer", lambda: sum(wrapped_gen()))
    assert outer() == 2
    spans = tracer.take()
    assert harness.span_counts(spans) == {"outer": 1, "gen": 3, "leaf": 2}
    by_index = {i: span for i, span in enumerate(spans)}
    for name, start, end, parent in spans:
        assert start < end
        if name == "leaf":
            assert by_index[parent][0] == "gen"
        if name == "gen":
            assert by_index[parent][0] == "outer"
    assert tracer.take() == []


def test_tracer_closes_spans_when_the_call_raises():
    tracer = harness.Tracer()

    def boom() -> None:
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    (span,) = tracer.take()
    assert span[0] == "boom" and span[2] >= span[1]


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0, 4.0], [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]])
def test_quartiles_match_statistics_quantiles(values):
    assert harness.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_quartiles_of_one_value_and_empty():
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        harness.quartiles([])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(list(range(19))) is None
    p, value = harness.tail_percentile([float(v) for v in range(20)])
    assert (p, value) == (50, 9.0)
    p, value = harness.tail_percentile([float(v) for v in range(100)])
    assert p == 90 and value == 89.0


@pytest.mark.parametrize("name", ["pass_s", "solver.solve_s.cycle-22", "cli.import_s", "A9"])
def test_metric_names_accepted(name):
    assert harness.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "pass s", "rate/s", "solver:calls", "é"])
def test_metric_names_rejected(name):
    with pytest.raises(ValueError):
        harness.check_metric_name(name)
