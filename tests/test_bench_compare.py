"""The pair runner's summary statistics on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def test_quartiles_interpolate_between_order_statistics():
    assert bench_compare.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_compare.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_compare.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_of_a_lower_is_better_metric():
    # pair i is (parent[i], change[i]); the change wins pairs 0, 1 and 3
    summary = bench_compare.summarize([1.0, 2.0, 3.0, 4.0], [0.5, 1.5, 3.0, 3.5], "lower", 0.25)
    assert summary["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "values": [1.0, 2.0, 3.0, 4.0]}
    assert summary["change"]["median"] == 2.25
    assert summary["wins"] == 3 and summary["pairs"] == 4
    assert summary["worse_by"] == pytest.approx(-0.1)
    assert summary["passes"]


def test_summary_of_a_higher_is_better_metric_past_its_bound():
    summary = bench_compare.summarize([100.0, 110.0, 90.0], [70.0, 120.0, 75.0], "higher", 0.2)
    assert summary["wins"] == 1
    assert summary["worse_by"] == pytest.approx(0.25)  # median 100 -> 75
    assert not summary["passes"]
    assert bench_compare.summarize([10.0], [12.0], "higher", 0.2)["worse_by"] == pytest.approx(-0.2)
