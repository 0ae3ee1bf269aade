"""The benchmark's own tests: small runs of every workload through the same
checks, and one deliberately wrong expectation per checker.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import models  # noqa: E402
import run  # noqa: E402
import shared  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout's benchmark scratch area."""
    path = shared.WORK / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def small_run(path, workload, seed=3, traced=False):
    path.mkdir(parents=True, exist_ok=True)
    r = run.Run(workload, seed, 0.3, traced, path, sizes=shared.SMALL)
    return r, run.execute(r)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_small_run_passes_its_checks(workdir, workload):
    r, outcome = small_run(workdir, workload)
    assert outcome.correct, r.lines
    assert outcome.attempted > 0
    result = run.result_json(r, outcome)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


# the layer each workload drives, which must read nonzero when traced
DRIVEN_LAYER = {
    "replay-desk": "workload.generate_trace.self_s",
    "serve-mix": "server.hop_us",
    "restart": "editlog.EditsLog.entries.parses_per_edit",
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workdir, workload):
    r, outcome = small_run(workdir, workload, traced=True)
    assert outcome.correct, r.lines
    metrics = run.result_json(r, outcome)["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics[DRIVEN_LAYER[workload]]["value"] > 0
    assert metrics["namespace.hot_bytes_per_record"]["value"] > 0


def test_restart_failure_share_does_not_depend_on_the_seed(workdir):
    shares = set()
    for seed in (1, 2):
        _, outcome = small_run(workdir / str(seed), "restart", seed=seed)
        shares.add(outcome.failed / outcome.attempted)
    assert len(shares) == 1


def test_benchmark_json_matches_the_code():
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_fails_without_the_program(workdir):
    shutil.copytree(HERE, workdir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "restart",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- timing a replay pass stretch by stretch -----------------------------------

def a_pass(start, rate, slow=None, size=1000):
    """Reads of one pass at ``rate`` bytes/s, 10x slower over the byte range ``slow``."""
    reads, t, pos = [], start, 0
    while pos < size:
        t += 10 / (rate / 10 if slow and slow[0] <= pos < slow[1] else rate)
        pos += 10
        reads.append((t, pos))
    return {"start": start, "end": t, "reads": reads}


def test_stretches_of_a_steady_pass_are_equal():
    p = a_pass(5.0, 100.0)
    times = shared.stretch_seconds(p["reads"], p["start"], p["end"], 1000, 4)
    assert times == pytest.approx([2.5] * 4)


def test_a_slow_spell_in_one_pass_does_not_count():
    passes = [a_pass(0.0, 100.0), a_pass(0.0, 100.0, slow=(0, 250)), a_pass(0.0, 100.0, slow=(750, 1000))]
    assert passes[1]["end"] > 30
    assert run.median_pass_seconds(passes, 1000, 4) == pytest.approx(10.0)


def test_without_read_samples_a_pass_counts_whole():
    passes = [{"start": 0.0, "end": end, "reads": []} for end in (9.0, 10.0, 14.0)]
    assert run.median_pass_seconds(passes, 1000, 4) == pytest.approx(10.0)


def test_watch_reads_sees_the_offset_of_another_process(workdir):
    data = workdir / "data"
    data.write_bytes(b"x" * 300)
    child = ("import sys, time\n"
             "f = open(sys.argv[1], 'rb', buffering=0)\n"
             "for _ in range(3):\n"
             "    f.read(100); time.sleep(0.3)\n")
    proc = subprocess.Popen([sys.executable, "-c", child, str(data)])
    reads = shared.watch_reads(proc, str(data), deadline=time.monotonic() + 30)
    proc.wait()
    offsets = [pos for _, pos in reads]
    assert offsets == sorted(offsets) and {100, 200, 300} <= set(offsets)


# -- every checker catches a wrong expectation ---------------------------------

TRACE = [
    "CREATE /a 1 0", "CREATE /b 1 1", "ACCESS /a 2", "CREATE /c 1 3",
    "CREATE /d 1 4", "ACCESS /b 5", "ACCESS /a 6",
]


def replay_expectations():
    model = models.separation_model(TRACE, threshold=4, window=1)
    summary = {"creates": 4, "hot_hits": model["hot_hits"], "cold_hits": model["cold_hits"],
               "misses": 0, "peak_hot_records": model["peak_hot"],
               "final_hot_records": len(model["hot"]), "final_cold_records": len(model["cold"])}
    events = [{"hot_size_before": n, "evicted_count": e} for n, e in model["separations"]]
    cold = {p: tuple(rec) for p, rec in model["cold"].items()}
    return model, summary, events, cold


def test_separation_model_follows_the_rule():
    model, summary, events, cold = replay_expectations()
    # at tick 4 the mean count is 5/4: /a (count 2) stays, /b and /c are
    # older than the window with count 1; /b comes back on its access
    assert model["separations"] == [(4, 2)]
    assert set(model["cold"]) == {"/c"} and model["cold_hits"] == 1
    assert models.check_report(summary, events, model) == []
    assert models.check_cold_file(cold, summary, model) == []


@pytest.mark.parametrize("key", ["hot_hits", "cold_hits", "final_cold_records", "peak_hot_records"])
def test_check_report_catches_a_wrong_counter(key):
    model, summary, events, _ = replay_expectations()
    assert models.check_report(dict(summary, **{key: summary[key] + 1}), events, model)


def test_check_report_catches_wrong_evictions():
    model, summary, events, _ = replay_expectations()
    events[0]["evicted_count"] += 1
    assert models.check_report(summary, events, model)


def test_check_cold_file_catches_a_wrong_record_and_a_wrong_size():
    model, summary, _, cold = replay_expectations()
    assert models.check_cold_file({"/c": (3, 2)}, summary, model)
    assert models.check_cold_file(cold, dict(summary, final_cold_records=2), model)
    assert models.check_cold_file({**cold, "/a": (6, 3)}, summary, model)


def served_model():
    return models.ServedModel([10, 2 * models.BLOCK_SIZE + 1])


def test_served_model_accepts_right_replies():
    m = served_model()
    m.check("OPEN /s/f0000001", "OK path=/s/f0000001 length=134217729 blocks=3 last_access=2 count=2")
    m.check("STAT /s/f0000000", "OK path=/s/f0000000 length=10 blocks=1 last_access=0 count=1 tier=cold")
    m.check("CREATE /s/n0000000 0", "OK created /s/n0000000")
    m.check("DELETE /s/f0000000", "OK deleted /s/f0000000")
    m.check("OPEN /s/f0000000", "ERR NOTFOUND no such path: /s/f0000000")
    m.check("CREATE /s/f0000001 1", "ERR EXISTS path already exists: /s/f0000001")
    m.check_report("OK hot_records=1 cold_records=1 creates=1 deletes=1 lookups=2 misses=1")
    assert m.problems == [] and m.failed == 0


@pytest.mark.parametrize("request_line, reply", [
    ("OPEN /s/f0000001", "OK path=/s/f0000001 length=134217729 blocks=2 last_access=2 count=2"),
    ("OPEN /s/f0000001", "OK path=/s/f0000001 length=134217729 blocks=3 last_access=2 count=3"),
    ("OPEN /s/f0000001", "OK path=/s/f0000001 length=134217729 blocks=3 last_access=9 count=2"),
    ("STAT /s/f0000000", "OK path=/s/f0000000 length=11 blocks=1 last_access=0 count=1 tier=hot"),
    ("STAT /s/f0000000", "OK path=/s/f0000000 length=10 blocks=1 last_access=0 count=1 tier=warm"),
    ("OPEN /s/missing", "OK path=/s/missing length=1 blocks=1 last_access=2 count=1"),
    ("CREATE /s/f0000000 5", "OK created /s/f0000000"),
])
def test_served_model_catches_a_wrong_reply(request_line, reply):
    m = served_model()
    m.check(request_line, reply)
    assert m.problems


def test_served_model_counts_an_unexpected_error_as_failed():
    m = served_model()
    m.check("OPEN /s/f0000000", "ERR NOTFOUND no such path: /s/f0000000")
    assert m.failed == 1 and m.problems == []


def test_served_model_catches_a_wrong_report():
    m = served_model()
    m.check_report("OK hot_records=1 cold_records=0 creates=0 deletes=0 lookups=0 misses=0")
    assert m.problems


def record(length, count, last):
    return SimpleNamespace(length=length, count=count, last_access=last,
                           blocks=(None,) * models.blocks_for(length))


def test_check_recovered_classifies_every_failure():
    model = {"/ok": (5, 1, 0), "/gone": (5, 1, 1), "/off": (5, 2, 2), "/twice": (5, 1, 3)}
    hot = {"/ok": record(5, 1, 0), "/off": record(5, 1, 2), "/twice": record(5, 1, 3)}
    cold = {"/twice": record(5, 1, 3), "/new": record(1, 1, 4)}
    result = models.check_recovered(model, hot.get, cold.get, [*hot, *cold])
    assert result == {"checked": 4, "failed": 3, "missing": 1, "differs": 1, "both": 1,
                      "extra": 1}


def test_reopen_comparison_catches_disagreeing_reopens():
    same = {"checked": 2, "failed": 0, "missing": 0, "differs": 0, "both": 0, "extra": 0,
            "hot": 1, "cold": 1, "skipped": 0}
    assert run.reopen_problems([same, dict(same)], {"live": 2}) == []
    assert run.reopen_problems([same, dict(same, hot=2, cold=0)], {"live": 2})
    assert run.reopen_problems([same], {"live": 3})
    assert run.reopen_problems([dict(same, extra=1)], {"live": 2})
