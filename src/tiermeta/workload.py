"""Synthetic workload traces and their replay against a tiered store.

A trace is a plain text file of CREATE/ACCESS lines (the edits-log line
format): first every file is created, ticks 0..n_files-1, then access_ops
ACCESS lines follow. The trace's shape is fixed: ``UNTOUCHED_FRACTION`` of
the files is never accessed again after creation; every remaining file is
accessed at least once, with the extra accesses drawn with weight
rank^-``ACCESS_SKEW`` so a few files soak up most of the traffic; file
lengths are exponential with mean ``MEAN_FILE_LENGTH``.

Everything is driven by one ``random.Random(seed)``, so a spec maps to
exactly one trace, byte for byte.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass
from pathlib import Path

from .coldstore import ColdStore
from .editlog import OP_ACCESS, OP_CREATE, parse_op_line
from .errors import (
    FileTooLargeError,
    InvalidSpecError,
    MalformedTraceError,
    NotFoundError,
    PathExistsError,
)
from .metrics import ExperimentReport, build_report
from .tiering import TieredStore, TieringConfig

logger = logging.getLogger(__name__)

PATH_TEMPLATE = "/w/f{:07d}"
_PROGRESS_EVERY = 500_000

# The trace shape: the share of files never accessed after creation, the
# rank-skew exponent of access popularity, and the mean file length in bytes.
UNTOUCHED_FRACTION = 0.3
ACCESS_SKEW = 1.0
MEAN_FILE_LENGTH = 64 * 1024

# What apply_event raises for an event the store refuses: a bad trace line.
_REFUSALS = (ValueError, PathExistsError, FileTooLargeError)


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    n_files: int
    access_ops: int
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_files < 1:
            raise InvalidSpecError("n_files must be at least 1")
        if self.access_ops < 0:
            raise InvalidSpecError("access_ops must be non-negative")
        touched = self.n_files - self.untouched_count
        if 0 < self.access_ops < touched:
            raise InvalidSpecError(
                f"access_ops={self.access_ops} cannot touch all "
                f"{touched} non-untouched files at least once"
            )

    @property
    def untouched_count(self) -> int:
        return round(self.n_files * UNTOUCHED_FRACTION)


@dataclass(frozen=True, slots=True)
class TraceSummary:
    n_files: int
    access_ops: int
    untouched_count: int
    touched_count: int


def generate_trace(spec: WorkloadSpec, dest: str | Path) -> TraceSummary:
    """Write the trace for ``spec`` to ``dest``."""
    rng = random.Random(spec.seed)
    rate = 1.0 / MEAN_FILE_LENGTH

    # Untouched files are an arbitrary subset, not the oldest ones, so the
    # access pattern is uncorrelated with creation order.
    indices = list(range(spec.n_files))
    rng.shuffle(indices)
    touched = indices[spec.untouched_count:]

    targets: list[int] = []
    if spec.access_ops > 0:
        # Rank weight (r+1)^-skew over the shuffled touched list, after one
        # guaranteed access per touched file.
        targets.extend(touched)
        extra = spec.access_ops - len(touched)
        if extra > 0:
            cum = list(itertools.accumulate(
                (r + 1) ** -ACCESS_SKEW for r in range(len(touched))
            ))
            targets.extend(rng.choices(touched, cum_weights=cum, k=extra))
        rng.shuffle(targets)

    tick = 0
    with open(dest, "w", encoding="utf-8", newline="\n") as f:
        for i in range(spec.n_files):
            length = max(1, int(rng.expovariate(rate)))
            f.write(f"{OP_CREATE} {PATH_TEMPLATE.format(i)} {length} {tick}\n")
            tick += 1
        for i in targets:
            f.write(f"{OP_ACCESS} {PATH_TEMPLATE.format(i)} {tick}\n")
            tick += 1
    return TraceSummary(
        n_files=spec.n_files,
        access_ops=len(targets),
        untouched_count=spec.untouched_count,
        touched_count=len(touched),
    )


def replay(
    trace_path: str | Path,
    config: TieringConfig,
    cold_path: str | Path,
) -> ExperimentReport:
    """Run a trace against a fresh tiered store and report what happened.

    The store lives only for the duration of the call; what remains is the
    cold file at ``cold_path`` (truncated first: a replay never inherits
    state) and the returned report. The store runs the separation rule after
    each CREATE and DELETE it applies, as the live service does; it has no
    image, so no pass is checkpointed. Since no image commits the cold file,
    the file is built ``autocompact``: it compacts itself once its dead lines
    (tombstones and the records they end) outnumber its live records and it
    holds at least ``coldstore.COMPACT_MIN_LINES`` lines, so it stays about
    twice its live records throughout; a failed compaction is a warning and
    the replay goes on. An ACCESS to a path in neither tier
    is counted as a miss and skipped; a DELETE of one is skipped. A line that
    is not UTF-8 or does not parse, or an event the store refuses (a path
    that exists, a bad path or length, a tick in the past), raises
    MalformedTraceError naming the line.
    """
    open(cold_path, "wb").close()
    cold = ColdStore(cold_path, autocompact=True)
    store = TieredStore(cold, config)
    try:
        with open(trace_path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                try:
                    event = parse_op_line(line.rstrip(b"\n").decode("utf-8"))
                    store.apply_event(event)
                except NotFoundError:
                    logger.warning("%s: line %d: %s of unknown path %s",
                                   trace_path, lineno, event.op, event.path)
                except _REFUSALS as exc:
                    raise MalformedTraceError(
                        f"{trace_path}: line {lineno}: {exc}"
                    ) from None
                if lineno % _PROGRESS_EVERY == 0:
                    logger.info("replayed %d events (hot %d, cold %d)",
                                lineno, len(store.hot), len(store.cold))
        return build_report(
            store.metrics,
            config={**config.as_dict(), "trace": str(trace_path)},
            final_hot_records=len(store.hot),
            final_cold_records=len(store.cold),
        )
    finally:
        store.close()
