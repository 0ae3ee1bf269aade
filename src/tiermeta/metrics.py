"""Counters and report output for tiering experiments.

A :class:`MetricsRecorder` rides along with a store, which bumps its
counters and appends its separation events. :func:`build_report` turns the
recorder into an :class:`ExperimentReport` that serializes to CSV or JSON
lines. Reports carry logical ticks only, never wall-clock time, so the same
trace always produces byte-identical output files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .namespace import estimate_memory


@dataclass(frozen=True, slots=True)
class SeparationEvent:
    """One threshold-triggered separation, as reported."""

    tick: int
    hot_size_before: int
    kept_count: int
    evicted_count: int
    mean_count: float
    freed_bytes_estimate: int

    @property
    def evicted_fraction(self) -> float:
        return self.evicted_count / self.hot_size_before


@dataclass(slots=True)
class MetricsRecorder:
    """Accumulates event counts; knows nothing about the store itself."""

    creates: int = 0
    deletes: int = 0
    hot_hits: int = 0
    cold_hits: int = 0
    misses: int = 0
    peak_hot_records: int = 0
    events: list[SeparationEvent] = field(default_factory=list)

    def observe_hot_size(self, n_records: int) -> None:
        if n_records > self.peak_hot_records:
            self.peak_hot_records = n_records

    @property
    def lookups(self) -> int:
        return self.hot_hits + self.cold_hits + self.misses

    def counters(self) -> dict[str, int]:
        """The counters REPORT and the experiment summary share, in REPORT's
        order. Every cold hit promotes the record back to the hot tier."""
        return {
            "creates": self.creates,
            "deletes": self.deletes,
            "lookups": self.lookups,
            "hot_hits": self.hot_hits,
            "cold_hits": self.cold_hits,
            "misses": self.misses,
            "promotions": self.cold_hits,
            "separations": len(self.events),
            "peak_hot_records": self.peak_hot_records,
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: dict[str, object]
    events: tuple[SeparationEvent, ...]
    summary: dict[str, object]


def build_report(
    recorder: MetricsRecorder,
    config: dict[str, object],
    final_hot_records: int,
    final_cold_records: int,
) -> ExperimentReport:
    summary: dict[str, object] = {
        **recorder.counters(),
        "total_evicted": sum(e.evicted_count for e in recorder.events),
        "total_freed_bytes_estimate": sum(e.freed_bytes_estimate for e in recorder.events),
        "peak_hot_bytes_estimate": estimate_memory(recorder.peak_hot_records),
        "final_hot_records": final_hot_records,
        "final_cold_records": final_cold_records,
    }
    # Rates are simply absent when nothing was looked up; no NaN placeholders.
    if recorder.lookups > 0:
        summary["hot_hit_rate"] = recorder.hot_hits / recorder.lookups
        summary["cold_hit_rate"] = recorder.cold_hits / recorder.lookups
        summary["miss_rate"] = recorder.misses / recorder.lookups
    return ExperimentReport(config=dict(config), events=tuple(recorder.events), summary=summary)


_EVENT_COLUMNS = (
    "tick",
    "hot_size_before",
    "kept_count",
    "evicted_count",
    "evicted_fraction",
    "mean_count",
    "freed_bytes_estimate",
)


def write_csv(report: ExperimentReport, dest: str | Path) -> None:
    """One row per separation event plus a final summary row.

    The two row kinds share a file, so the header is the union of the event
    columns and the (sorted) summary keys, with a leading ``kind`` column.
    """
    summary_keys = sorted(report.summary)
    header = ["kind", *_EVENT_COLUMNS, *summary_keys]
    with open(dest, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for event in report.events:
            row = dict(asdict(event), evicted_fraction=event.evicted_fraction)
            writer.writerow(["event", *(_cell(row[c]) for c in _EVENT_COLUMNS)]
                            + [""] * len(summary_keys))
        writer.writerow(["summary", *[""] * len(_EVENT_COLUMNS),
                         *(_cell(report.summary[k]) for k in summary_keys)])


def _cell(value: object) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_jsonl(report: ExperimentReport, dest: str | Path) -> None:
    """Config line, one line per event, then a summary line."""
    with open(dest, "w", encoding="utf-8", newline="\n") as f:
        f.write(_json_line("config", report.config))
        for event in report.events:
            payload = dict(asdict(event), evicted_fraction=event.evicted_fraction)
            f.write(_json_line("event", payload))
        f.write(_json_line("summary", report.summary))


def _json_line(kind: str, payload: dict[str, object]) -> str:
    record = {"kind": kind, **payload}
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
