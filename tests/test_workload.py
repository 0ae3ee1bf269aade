"""Trace generation and trace replay."""

import pytest

from tiermeta.editlog import parse_op_line
from tiermeta.errors import InvalidSpecError, MalformedTraceError
from tiermeta.tiering import TieringConfig
from tiermeta.workload import WorkloadSpec, generate_trace, replay


def read_trace(path):
    with open(path) as f:
        return [parse_op_line(line.rstrip("\n")) for line in f]


def test_spec_validation():
    WorkloadSpec(n_files=10, access_ops=0, untouched_fraction=1.0)
    with pytest.raises(InvalidSpecError):
        WorkloadSpec(n_files=0, access_ops=0)
    with pytest.raises(InvalidSpecError):
        WorkloadSpec(n_files=10, access_ops=5, untouched_fraction=1.0)
    with pytest.raises(InvalidSpecError):
        WorkloadSpec(n_files=10, access_ops=-1)
    with pytest.raises(InvalidSpecError):
        WorkloadSpec(n_files=10, access_ops=10, untouched_fraction=1.5)
    with pytest.raises(InvalidSpecError):
        # 7 touched files cannot all be touched by 5 accesses
        WorkloadSpec(n_files=10, access_ops=5, untouched_fraction=0.3)


def test_untouched_count_uses_round():
    assert WorkloadSpec(n_files=10, access_ops=10, untouched_fraction=0.25).untouched_count == 2
    assert WorkloadSpec(n_files=1000, access_ops=1000, untouched_fraction=0.3).untouched_count == 300
    assert WorkloadSpec(n_files=180_000, access_ops=360_000).untouched_count == 54_000


def test_trace_shape(tmp_path):
    spec = WorkloadSpec(n_files=500, access_ops=1200, untouched_fraction=0.3, seed=7)
    out = tmp_path / "t"
    summary = generate_trace(spec, out)
    assert summary.untouched_count == 150
    assert summary.touched_count == 350
    events = read_trace(out)
    assert len(events) == 500 + 1200
    creates, accesses = events[:500], events[500:]
    assert all(e.op == "CREATE" for e in creates)
    assert all(e.op == "ACCESS" for e in accesses)
    # ticks are consecutive from zero, creates first
    assert [e.tick for e in events] == list(range(1700))
    assert all(e.length >= 1 for e in creates)
    created = {e.path for e in creates}
    accessed = {e.path for e in accesses}
    assert accessed <= created
    # exactly the configured number of files is never accessed,
    # and every other file is accessed at least once
    assert len(created - accessed) == 150


def test_all_files_untouched_means_creates_only(tmp_path):
    out = tmp_path / "t"
    generate_trace(WorkloadSpec(n_files=50, access_ops=0, untouched_fraction=1.0), out)
    events = read_trace(out)
    assert len(events) == 50
    assert {e.op for e in events} == {"CREATE"}


def test_trace_counts_at_reported_scale(tmp_path):
    # counted straight off the emitted file, not the spec arithmetic
    out = tmp_path / "t"
    generate_trace(WorkloadSpec(n_files=180_000, access_ops=360_000,
                                untouched_fraction=0.3, seed=7), out)
    created, accessed = set(), set()
    with open(out, encoding="utf-8") as f:
        for line in f:
            op, path = line.split(" ", 2)[:2]
            (created if op == "CREATE" else accessed).add(path)
    assert len(created) == 180_000
    assert len(created - accessed) == 54_000


def test_skewed_accesses_concentrate(tmp_path):
    out = tmp_path / "t"
    generate_trace(WorkloadSpec(n_files=200, access_ops=4000, untouched_fraction=0.0,
                                access_skew=1.2, seed=3), out)
    per_path: dict[str, int] = {}
    for e in read_trace(out):
        if e.op == "ACCESS":
            per_path[e.path] = per_path.get(e.path, 0) + 1
    top = sorted(per_path.values(), reverse=True)
    # top decile of files takes far more than its proportional share
    assert sum(top[:20]) > 0.3 * 4000


def test_generation_is_deterministic(tmp_path):
    spec = WorkloadSpec(n_files=300, access_ops=700, seed=123)
    a, b = tmp_path / "a", tmp_path / "b"
    generate_trace(spec, a)
    generate_trace(spec, b)
    assert a.read_bytes() == b.read_bytes()
    generate_trace(WorkloadSpec(n_files=300, access_ops=700, seed=124), b)
    assert a.read_bytes() != b.read_bytes()


def test_replay_reports_experiment(tmp_path):
    spec = WorkloadSpec(n_files=400, access_ops=800, untouched_fraction=0.3, seed=7)
    trace = tmp_path / "t"
    generate_trace(spec, trace)
    config = TieringConfig(threshold_records=200, recency_window=150)
    report = replay(trace, config, tmp_path / "cold")
    s = report.summary
    assert s["creates"] == 400
    assert s["lookups"] == 800
    assert s["misses"] == 0
    assert s["separations"] >= 3
    for event in report.events:
        assert event.hot_size_before == 200
        assert event.freed_bytes_estimate == event.evicted_count * 600
    assert s["final_hot_records"] + s["final_cold_records"] == 400
    assert report.config["threshold_records"] == 200
    assert report.config["trace"] == str(trace)


def test_replay_below_threshold_never_separates(tmp_path):
    trace = tmp_path / "t"
    generate_trace(WorkloadSpec(n_files=100, access_ops=200, seed=1), trace)
    report = replay(trace, TieringConfig(threshold_records=10_000), tmp_path / "cold")
    assert report.events == ()
    assert report.summary["separations"] == 0
    assert report.summary["final_cold_records"] == 0


def test_replay_rejects_malformed_line(tmp_path):
    trace = tmp_path / "t"
    trace.write_text("CREATE /a 5 0\nACCESS\n")
    with pytest.raises(MalformedTraceError, match="line 2"):
        replay(trace, TieringConfig(threshold_records=10), tmp_path / "cold")


def test_replay_counts_unknown_access_as_miss(tmp_path, caplog):
    trace = tmp_path / "t"
    trace.write_text("CREATE /a 5 0\nACCESS /ghost 1\nACCESS /a 2\n")
    with caplog.at_level("WARNING"):
        report = replay(trace, TieringConfig(threshold_records=10), tmp_path / "cold")
    assert report.summary["misses"] == 1
    assert report.summary["hot_hits"] == 1
    assert any("/ghost" in m for m in caplog.messages)
