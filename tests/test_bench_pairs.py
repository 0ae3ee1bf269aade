"""The summary that scripts/bench_pairs.py writes from a series of paired runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "lo", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "hi", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}
PARENT = [float(v) for v in range(1, 11)]
# against PARENT: lower in pairs 0-5, equal in pairs 6-7, higher in pairs 8-9
CHANGE = [v - 0.5 for v in PARENT[:6]] + PARENT[6:8] + [v + 0.5 for v in PARENT[8:]]


def run(side, seed, value, failed=0, attempted=100, correct=True, traced=False):
    return {"side": side, "workload": "w", "seed": seed, "traced": traced,
            "result": {"correct": correct, "failed": failed, "attempted": attempted,
                       "metrics": {"lo": {"value": value}, "hi": {"value": value}}}}


def series(**change_overrides):
    runs = [run("parent", seed, v) for seed, v in zip(bench_pairs.SEEDS, PARENT)]
    runs += [run("change", seed, v) for seed, v in zip(bench_pairs.SEEDS, CHANGE)]
    # a traced run is not one of the pairs, whatever its seed and values
    runs.append(run("change", bench_pairs.SEEDS[0], 1e9, failed=100, correct=False,
                    traced=True))
    for key, value in change_overrides.items():
        runs[len(PARENT)]["result"][key] = value
    return runs


def test_a_tie_counts_for_neither_side_in_both_directions():
    metrics = bench_pairs.summarize(BENCH, series())["w"]["metrics"]
    assert metrics["lo"]["pairs_won"] == {"change": 6, "parent": 2}
    assert metrics["hi"]["pairs_won"] == {"change": 2, "parent": 6}
    assert metrics["hi"]["better"] == "higher" and metrics["hi"]["bound"] == 0.25


def test_quartiles_use_the_inclusive_method():
    parent = bench_pairs.summarize(BENCH, series())["w"]["metrics"]["lo"]["parent"]
    # the exclusive method would give 2.75 and 8.25
    assert (parent["q1"], parent["median"], parent["q3"]) == (3.25, 5.5, 7.75)
    assert parent["runs"] == PARENT


def test_failed_share_and_correctness_are_the_worst_run_of_each_side():
    row = bench_pairs.summarize(BENCH, series(failed=3, attempted=10, correct=False))["w"]
    assert row["failed_share_max"] == {"parent": 0.0, "change": pytest.approx(0.3)}
    assert row["correct"] == {"parent": True, "change": False}


def test_a_run_that_attempted_nothing_has_a_failed_share_of_zero():
    row = bench_pairs.summarize(BENCH, series(failed=0, attempted=0))["w"]
    assert row["failed_share_max"] == {"parent": 0.0, "change": 0.0}
