"""The summary that scripts/bench_pairs.py writes from a series of paired runs."""

import importlib.util
import json
import math
import shutil
import subprocess
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


def series(parent=PARENT, change=CHANGE, **change_overrides):
    runs = [run("parent", seed, v) for seed, v in zip(bench_pairs.SEEDS, parent)]
    runs += [run("change", seed, v) for seed, v in zip(bench_pairs.SEEDS, change)]
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


def verdicts(parent, change):
    metrics = bench_pairs.summarize(BENCH, series(parent, change))["w"]["metrics"]
    return {name: (pytest.approx(m["better_by"]), m["within_bound"], m["unresolved"])
            for name, m in metrics.items()}


# a parent whose interquartile range is 2% of its median
STEADY = [99.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 101.0]


def test_a_steady_parent_resolves_the_verdict_each_way():
    # better_by, within_bound, unresolved
    assert verdicts(STEADY, [v * 0.8 for v in STEADY]) == {
        "lo": (0.2, True, False), "hi": (-0.2, True, False)}
    assert verdicts(STEADY, [v * 1.3 for v in STEADY]) == {
        "lo": (-0.3, False, False), "hi": (0.3, True, False)}


def test_a_parent_spread_past_the_bound_leaves_the_verdict_unresolved():
    # PARENT's interquartile range is 4.5 over a median of 5.5
    assert verdicts(PARENT, CHANGE) == {
        "lo": (0.5 / 5.5, True, True), "hi": (-0.5 / 5.5, True, True)}


def test_every_change_run_beating_every_parent_run_resolves_a_wide_spread():
    higher = [v + 10 for v in PARENT]  # the least of these beats the greatest parent run
    assert verdicts(PARENT, higher) == {
        "lo": (-10 / 5.5, False, True), "hi": (10 / 5.5, True, False)}


def test_a_parent_median_of_zero_gives_an_infinite_share():
    zeros = [0.0] * 10
    assert verdicts(zeros, zeros) == {"lo": (0.0, True, False), "hi": (0.0, True, False)}
    assert verdicts(zeros, [1.0] * 10) == {
        "lo": (-math.inf, False, False), "hi": (math.inf, True, False)}


def gains(parent, change):
    metrics = bench_pairs.summarize(BENCH, series(parent, change))["w"]["metrics"]
    return {name: m["gain_met"] for name, m in metrics.items()}


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_past_the_parent_spread():
    # STEADY's interquartile range is 2
    assert gains(STEADY, [v + 3 for v in STEADY]) == {"lo": False, "hi": True}
    nine = [v + 3 for v in STEADY[:9]] + [STEADY[9] - 1]  # medians 3 apart
    assert gains(STEADY, nine) == {"lo": False, "hi": True}
    eight = [v + 3 for v in STEADY[:8]] + [v - 1 for v in STEADY[8:]]  # medians 2.5 apart
    assert gains(STEADY, eight) == {"lo": False, "hi": False}
    # every pair won, by less than the parent's spread
    assert gains(STEADY, [v + 1.5 for v in STEADY]) == {"lo": False, "hi": False}
    assert gains(STEADY, [v - 3 for v in STEADY]) == {"lo": True, "hi": False}


def test_traced_values_hold_every_workload_of_each_side():
    def traced(side, workload, value):
        result = run(side, bench_pairs.TRACED_SEED, value, traced=True)
        result["workload"] = workload
        return result

    # series() adds untraced pairs, and a traced run at another seed
    runs = series() + [traced("parent", "w", 1.0), traced("change", "w", 2.0),
                       traced("change", "restart", 4.0), traced("parent", "restart", 3.0)]
    assert bench_pairs.traced_values(runs) == {
        "w": {"parent": {"lo": 1.0, "hi": 1.0}, "change": {"lo": 2.0, "hi": 2.0}},
        "restart": {"parent": {"lo": 3.0, "hi": 3.0}, "change": {"lo": 4.0, "hi": 4.0}},
    }
    assert bench_pairs.traced_values(series()) == {}


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
@pytest.mark.parametrize("cloned", [True, False], ids=["git-clone", "git-archive"])
def test_each_run_is_made_in_a_fresh_copy_of_the_checkout_s_files(
        tmp_path, monkeypatch, cloned):
    checkout = tmp_path / "checkout"
    files = {".gitignore": ".perfbench_work/\n__pycache__/\n",
             "perfbench/run.py": "print('{}')\n", "notes.txt": "not yet added\n"}
    leftovers = [".perfbench_work/data", "perfbench/__pycache__/run.cpython.pyc"]
    for name in [*files, *leftovers]:
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(files.get(name, "left by a run\n"))
    if cloned:
        subprocess.run(["git", "init", "-q", str(checkout)], check=True)
        subprocess.run(["git", "-C", str(checkout), "add", ".gitignore", "perfbench/run.py"],
                       check=True)
    real_run, seen = subprocess.run, []

    def run(cmd, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, **kwargs)
        cwd = Path(kwargs["cwd"])
        seen.append((cwd, {p.relative_to(cwd).as_posix(): p.read_text()
                           for p in cwd.rglob("*") if p.is_file()}))
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps({"correct": True}) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    for seed in (101, 102):
        assert bench_pairs.run_once(checkout, "w", seed, 1, False) == {"correct": True}
    (first, copied), (second, _) = seen
    assert copied == files  # no .git, .perfbench_work or __pycache__
    assert len({first, second, checkout}) == 3 and checkout not in first.parents
    assert not first.exists()
