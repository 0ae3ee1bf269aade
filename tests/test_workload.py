"""Trace generation and trace replay."""

import os
import re

import pytest

from tiermeta import coldstore
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import parse_op_line
from tiermeta.errors import InvalidSpecError, MalformedTraceError
from tiermeta.namespace import BLOCK_SIZE, MAX_BLOCKS_PER_FILE
from tiermeta.tiering import TieredStore, TieringConfig
from tiermeta.workload import WorkloadSpec, generate_trace, replay


def read_trace(path):
    with open(path) as f:
        return [parse_op_line(line.rstrip("\n")) for line in f]


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        WorkloadSpec(n_files=0, access_ops=0)
    with pytest.raises(InvalidSpecError):
        WorkloadSpec(n_files=10, access_ops=-1)
    with pytest.raises(InvalidSpecError):
        # 7 touched files cannot all be touched by 5 accesses
        WorkloadSpec(n_files=10, access_ops=5)


def test_untouched_count_uses_round():
    # 30% of 1, 2 and 12 files is 0.3, 0.6 and 3.6: neither floor nor ceiling
    assert WorkloadSpec(n_files=1, access_ops=1).untouched_count == 0
    assert WorkloadSpec(n_files=2, access_ops=2).untouched_count == 1
    assert WorkloadSpec(n_files=12, access_ops=12).untouched_count == 4
    assert WorkloadSpec(n_files=1000, access_ops=1000).untouched_count == 300
    assert WorkloadSpec(n_files=180_000, access_ops=360_000).untouched_count == 54_000


def test_trace_shape(tmp_path):
    spec = WorkloadSpec(n_files=500, access_ops=1200, seed=7)
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
    generate_trace(WorkloadSpec(n_files=50, access_ops=0), out)
    events = read_trace(out)
    assert len(events) == 50
    assert {e.op for e in events} == {"CREATE"}


def test_trace_counts_at_reported_scale(tmp_path):
    # counted straight off the emitted file, not the spec arithmetic
    out = tmp_path / "t"
    generate_trace(WorkloadSpec(n_files=180_000, access_ops=360_000, seed=7), out)
    created, accessed = set(), set()
    with open(out, encoding="utf-8") as f:
        for line in f:
            op, path = line.split(" ", 2)[:2]
            (created if op == "CREATE" else accessed).add(path)
    assert len(created) == 180_000
    assert len(created - accessed) == 54_000


def test_skewed_accesses_concentrate(tmp_path):
    out = tmp_path / "t"
    generate_trace(WorkloadSpec(n_files=200, access_ops=4000, seed=3), out)
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
    spec = WorkloadSpec(n_files=400, access_ops=800, seed=7)
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


@pytest.mark.parametrize(
    "text, what",
    [
        ("CREATE /a 5 0\nCREATE /a 5 1\n", "line 2: path already exists: /a"),
        ("CREATE /a 5 5\nACCESS /a 3\n", "line 2: tick 3 is in the past (clock is at 6)"),
        (f"CREATE /a {MAX_BLOCKS_PER_FILE * BLOCK_SIZE + 1} 0\n",
         "line 1: 1048577 blocks exceeds"),
        ("CREATE /a 5 0\nCREATE relative 5 1\n", "line 2: path is not absolute"),
        ("CREATE /a 1 9223372036854775808\n",
         "line 1: tick is above 9223372036854775807: 9223372036854775808"),
    ],
    ids=["duplicate-create", "past-tick", "too-large", "bad-path", "tick-above-int64"],
)
def test_replay_names_the_line_of_a_refused_event(tmp_path, text, what):
    trace = tmp_path / "t"
    trace.write_text(text)
    with pytest.raises(MalformedTraceError, match=re.escape(f"{trace}: {what}")):
        replay(trace, TieringConfig(threshold_records=10), tmp_path / "cold")


def test_replay_counts_unknown_access_as_miss(tmp_path, caplog):
    trace = tmp_path / "t"
    trace.write_text("CREATE /a 5 0\nACCESS /ghost 1\nACCESS /a 2\n")
    with caplog.at_level("WARNING"):
        report = replay(trace, TieringConfig(threshold_records=10), tmp_path / "cold")
    assert report.summary["misses"] == 1
    assert report.summary["hot_hits"] == 1
    assert any("/ghost" in m for m in caplog.messages)


# -- a replay's cold file compacts itself ------------------------------------

# 2,000 files at a threshold of 400: 1,187 promotions, and a cold file that
# passes COMPACT_MIN_LINES twice
COMPACTING = WorkloadSpec(n_files=2000, access_ops=6000, seed=7)


def _replay_and_records(tmp_path, name, spec=COMPACTING, threshold=400):
    """Replay ``spec`` into a cold file of its own; the report, the cold
    file's live records in file order, and its line count."""
    trace = tmp_path / f"trace{spec.n_files}"
    if not trace.exists():
        generate_trace(spec, trace)
    cold_path = tmp_path / name
    report = replay(trace, TieringConfig(threshold_records=threshold), cold_path)
    cold = ColdStore(cold_path)
    try:
        records = list(cold.records())
    finally:
        cold.close()
    return report, records, len(cold_path.read_bytes().splitlines())


@pytest.fixture
def compactions(monkeypatch):
    """The (lines, live records) of each cold file that ``compact`` rewrites."""
    seen = []
    real = ColdStore.compact

    def counted(self):
        seen.append((self._lines, len(self)))
        return real(self)

    monkeypatch.setattr(ColdStore, "compact", counted)
    return seen


def test_a_replay_keeps_its_cold_file_at_most_twice_its_live_records(
        tmp_path, monkeypatch, compactions):
    real_apply = TieredStore.apply_event
    breaches = []

    def checked_apply(self, event):
        try:
            real_apply(self, event)
        finally:
            cold = self.cold
            dead = cold._lines - len(cold)
            if dead > coldstore.COMPACT_DEAD_PER_LIVE * len(cold) and \
                    cold._lines >= coldstore.COMPACT_MIN_LINES:
                breaches.append((event, cold._lines, len(cold)))

    monkeypatch.setattr(TieredStore, "apply_event", checked_apply)
    report, records, lines = _replay_and_records(tmp_path, "cold")
    assert breaches == []
    assert len(compactions) == 2
    assert all(lines >= coldstore.COMPACT_MIN_LINES
               and lines - live > coldstore.COMPACT_DEAD_PER_LIVE * live
               for lines, live in compactions)
    assert len(records) == report.summary["final_cold_records"]
    assert lines <= 2 * len(records)


def test_a_replay_that_compacts_reports_what_one_that_does_not_reports(
        tmp_path, monkeypatch, compactions):
    compacted = _replay_and_records(tmp_path, "compacted")
    assert len(compactions) == 2
    monkeypatch.setattr(coldstore, "COMPACT_MIN_LINES", 10**9)  # above every line count
    whole = _replay_and_records(tmp_path, "whole")
    assert len(compactions) == 2  # none more
    assert whole[:2] == compacted[:2]  # the report, and the live records in order
    assert whole[2] > 2 * compacted[2]


def test_a_failed_compaction_fails_no_event_of_the_replay(
        tmp_path, monkeypatch, caplog, compactions):
    """An fsync that fails once aborts the first compaction: the tombstone
    that triggered it stands, the replay goes on, every path resolves, and
    the next try waits until the dead lines have doubled."""
    expected = _replay_and_records(tmp_path, "expected")
    compactions.clear()
    real_fsync, failures = os.fsync, []

    def fsync_failing_once(fd):
        if not failures:
            failures.append(fd)
            raise OSError("no space left on device")
        return real_fsync(fd)

    created = [e.path for e in read_trace(tmp_path / "trace2000") if e.op == "CREATE"]
    real_close, unresolved = TieredStore.close, []

    def close_after_resolving_every_path(self):
        for path in created:
            try:
                self.stat(path)
            except Exception as exc:
                unresolved.append((path, exc))
        real_close(self)

    monkeypatch.setattr(os, "fsync", fsync_failing_once)
    monkeypatch.setattr(TieredStore, "close", close_after_resolving_every_path)
    with caplog.at_level("WARNING", logger="tiermeta.coldstore"):
        got = _replay_and_records(tmp_path, "failed")
    assert len(failures) == 1
    assert unresolved == []
    (failed_lines, failed_live), (lines, live) = compactions
    assert lines - live >= 2 * (failed_lines - failed_live)
    assert got[:2] == expected[:2]
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "compaction of" in warnings[0] and "no space left on device" in warnings[0]
    assert not (tmp_path / "failed.tmp").exists()


def test_a_replay_that_compacts_gives_the_same_results_with_colliding_keys(
        tmp_path, monkeypatch, compactions):
    small = WorkloadSpec(n_files=200, access_ops=600, seed=7)
    monkeypatch.setattr(coldstore, "COMPACT_MIN_LINES", 64)
    apart = _replay_and_records(tmp_path, "apart", small, threshold=40)
    assert compactions
    compactions.clear()
    monkeypatch.setattr(coldstore, "_key", lambda path: 1)
    assert _replay_and_records(tmp_path, "colliding", small, threshold=40) == apart
    assert compactions
