"""Counters, report assembly, and report serialization."""

import csv
import json

from tiermeta.metrics import (
    MetricsRecorder,
    SeparationEvent,
    build_report,
    write_csv,
    write_jsonl,
)


def sample_recorder():
    m = MetricsRecorder(creates=10, deletes=1, hot_hits=6, cold_hits=3, misses=1)
    m.observe_hot_size(4)
    m.observe_hot_size(9)
    m.observe_hot_size(7)
    m.events.append(SeparationEvent(
        tick=100, hot_size_before=8, kept_count=6, evicted_count=2,
        mean_count=1.25, freed_bytes_estimate=1200,
    ))
    m.events.append(SeparationEvent(
        tick=200, hot_size_before=8, kept_count=5, evicted_count=3,
        mean_count=1.5, freed_bytes_estimate=1800,
    ))
    return m


def test_counters_and_peak():
    m = sample_recorder()
    assert (m.creates, m.deletes) == (10, 1)
    assert (m.hot_hits, m.cold_hits, m.misses) == (6, 3, 1)
    assert m.lookups == 10
    assert m.counters()["promotions"] == m.cold_hits == 3
    assert m.peak_hot_records == 9
    assert [e.tick for e in m.events] == [100, 200]
    assert m.events[0].evicted_fraction == 0.25


def test_report_summary():
    report = build_report(
        sample_recorder(), config={"threshold_records": 8},
        final_hot_records=7, final_cold_records=2,
    )
    s = report.summary
    assert s["separations"] == 2
    assert s["total_evicted"] == 5
    # freed bytes are exactly evicted x BYTES_PER_RECORD
    assert s["total_freed_bytes_estimate"] == 5 * 600
    assert s["peak_hot_bytes_estimate"] == 9 * 600
    assert s["hot_hit_rate"] == 0.6
    assert s["miss_rate"] == 0.1
    assert (s["final_hot_records"], s["final_cold_records"]) == (7, 2)


def test_rates_absent_without_lookups():
    m = MetricsRecorder(creates=1)
    report = build_report(m, config={}, final_hot_records=1,
                          final_cold_records=0)
    for key in ("hot_hit_rate", "cold_hit_rate", "miss_rate"):
        assert key not in report.summary


def make_report():
    return build_report(
        sample_recorder(), config={"threshold_records": 8, "recency_window": 6},
        final_hot_records=7, final_cold_records=2,
    )


def test_csv_layout(tmp_path):
    dest = tmp_path / "r.csv"
    write_csv(make_report(), dest)
    with open(dest, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["kind"] for r in rows] == ["event", "event", "summary"]
    assert rows[0]["tick"] == "100"
    assert rows[0]["evicted_fraction"] == "0.25"
    assert rows[0]["separations"] == ""  # summary columns empty on event rows
    assert rows[2]["tick"] == ""
    assert rows[2]["total_evicted"] == "5"


def test_jsonl_layout(tmp_path):
    dest = tmp_path / "r.jsonl"
    write_jsonl(make_report(), dest)
    lines = [json.loads(line) for line in dest.read_text().splitlines()]
    assert [line["kind"] for line in lines] == ["config", "event", "event", "summary"]
    assert lines[0]["threshold_records"] == 8
    assert lines[1]["evicted_count"] == 2
    assert lines[3]["promotions"] == 3


def test_empty_run_serializes_summary_only(tmp_path):
    report = build_report(MetricsRecorder(), config={}, final_hot_records=0,
                          final_cold_records=0)
    write_csv(report, tmp_path / "r.csv")
    with open(tmp_path / "r.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["kind"] for r in rows] == ["summary"]
    write_jsonl(report, tmp_path / "r.jsonl")
    kinds = [json.loads(line)["kind"]
             for line in (tmp_path / "r.jsonl").read_text().splitlines()]
    assert kinds == ["config", "summary"]


def test_report_serialization_is_deterministic(tmp_path):
    report = make_report()
    for writer, name in ((write_csv, "csv"), (write_jsonl, "jsonl")):
        a, b = tmp_path / f"a.{name}", tmp_path / f"b.{name}"
        writer(report, a)
        writer(report, b)
        assert a.read_bytes() == b.read_bytes()
