"""Two-tier store: hot namespace in RAM, cold records spilled to disk.

When the hot tier reaches a configured record threshold, a separation pass
splits it by access history. A record stays hot if it was touched within the
recency window, or if its access count is strictly above the mean count of
the whole hot tier at that moment; everything else moves to the cold store.
A cold record found by a later lookup is promoted straight back, and the
promotion itself counts as an access.

The mean comparison is done in exact integer arithmetic
(``count * n > total``) so a record sitting exactly on the mean is evicted
regardless of how the division would round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable

from .coldstore import ColdStore
from .editlog import OP_ACCESS, OP_CREATE, OP_DELETE, EditsLog, OpEvent
from .errors import EmptyStoreError, NotFoundError, PathExistsError
from .fsimage import save_fsimage
from .metrics import LOOKUP_COLD, LOOKUP_HOT, LOOKUP_MISS, MetricsRecorder, SeparationEvent
from .namespace import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_DATANODE_COUNT,
    DEFAULT_REPLICATION,
    HotStore,
    LogicalClock,
    MetadataRecord,
    estimate_memory,
    validate_path,
)

logger = logging.getLogger(__name__)

TIER_HOT = "hot"
TIER_COLD = "cold"


@dataclass(frozen=True, slots=True)
class TieringConfig:
    """Knobs for the separation policy and record geometry.

    ``recency_window`` defaults to three quarters of the threshold: with an
    all-counts-equal hot tier (the common state right after a create burst)
    the pass then evicts the oldest quarter of the records.
    """

    threshold_records: int = 1_200_000
    recency_window: int | None = None
    bytes_per_record: int = 600
    block_size: int = DEFAULT_BLOCK_SIZE
    replication: int = DEFAULT_REPLICATION
    datanode_count: int = DEFAULT_DATANODE_COUNT

    def __post_init__(self) -> None:
        if self.recency_window is None:
            object.__setattr__(self, "recency_window", 3 * self.threshold_records // 4)
        if self.threshold_records < 1:
            raise ValueError("threshold_records must be at least 1")
        if self.recency_window < 0:
            raise ValueError("recency_window must be non-negative")
        if self.bytes_per_record < 1:
            raise ValueError("bytes_per_record must be positive")
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        if self.replication < 1 or self.datanode_count < 1:
            raise ValueError("replication and datanode_count must be positive")

    def as_dict(self) -> dict[str, object]:
        return {
            "threshold_records": self.threshold_records,
            "recency_window": self.recency_window,
            "bytes_per_record": self.bytes_per_record,
            "block_size": self.block_size,
            "replication": self.replication,
            "datanode_count": self.datanode_count,
        }


def partition_records(
    records: Iterable[MetadataRecord], now: int, window: int, total: int | None = None
) -> tuple[list[MetadataRecord], list[MetadataRecord]]:
    """Split records into (kept, evicted) by the separation predicate.

    A record is kept when accessed within ``window`` ticks of ``now`` or
    when its count is strictly above the mean count of all records given.
    ``total`` is the sum of their counts, for a caller that already has it.
    """
    recs = list(records)
    n = len(recs)
    if n == 0:
        raise EmptyStoreError("cannot separate an empty hot tier")
    if total is None:
        total = sum(r.count for r in recs)
    kept: list[MetadataRecord] = []
    evicted: list[MetadataRecord] = []
    for r in recs:
        # count/1 > total/n without leaving the integers
        if now - r.last_access <= window or r.count * n > total:
            kept.append(r)
        else:
            evicted.append(r)
    return kept, evicted


class TieredStore:
    """Facade tying together the hot tier, cold store, clock, and log.

    All mutating entry points assume a single caller at a time; the network
    service handles each request while holding one lock to honor that.
    """

    def __init__(
        self,
        cold: ColdStore,
        config: TieringConfig | None = None,
        *,
        hot: HotStore | None = None,
        clock: LogicalClock | None = None,
        edits: EditsLog | None = None,
        metrics: MetricsRecorder | None = None,
    ):
        self.config = config or TieringConfig()
        self.cold = cold
        self.hot = hot or HotStore(
            block_size=self.config.block_size,
            replication=self.config.replication,
            datanode_count=self.config.datanode_count,
        )
        self.clock = clock or LogicalClock()
        self.edits = edits
        self.metrics = metrics or MetricsRecorder()
        self.metrics.observe_hot_size(len(self.hot))

    # -- namespace operations -------------------------------------------

    def create(self, path: str, length: int) -> MetadataRecord:
        self._check_new_path(path)
        tick = self.clock.tick()
        record = self.hot.create(path, length, tick)
        self._log(OpEvent(OP_CREATE, path, tick, length))
        self.metrics.record_create()
        self.metrics.observe_hot_size(len(self.hot))
        return record

    def open(self, path: str) -> MetadataRecord:
        """Look a file up for use; bumps its bookkeeping, promotes if cold."""
        record, _ = self._resolve(path, self.clock.tick)
        self._log(OpEvent(OP_ACCESS, path, record.last_access))
        return record

    def stat(self, path: str) -> tuple[MetadataRecord, str]:
        """Read-only lookup: no tick, no count bump, no promotion."""
        record = self.hot.get(path)
        if record is not None:
            return record, TIER_HOT
        record = self.cold.get(path)
        if record is not None:
            return record, TIER_COLD
        raise NotFoundError(f"no such path: {path}")

    def delete(self, path: str) -> None:
        if path in self.hot:
            tick = self.clock.tick()
            self.hot.remove(path)
        elif path in self.cold:
            tick = self.clock.tick()
            self.cold.delete(path)
        else:
            raise NotFoundError(f"no such path: {path}")
        self._log(OpEvent(OP_DELETE, path, tick))
        self.metrics.record_delete()
        self.metrics.observe_hot_size(len(self.hot))

    def apply_event(self, event: OpEvent) -> None:
        """Apply one trace/log event, consuming its pre-assigned tick.

        Unlike :func:`tiermeta.editlog.replay_edits` this resolves accesses
        through both tiers, so replay reproduces promotions. Events are not
        re-logged.
        """
        if event.op == OP_CREATE:
            self._check_new_path(event.path)
            self.clock.tick_at(event.tick)
            self.hot.create(event.path, event.length, event.tick)
            self.metrics.record_create()
            self.metrics.observe_hot_size(len(self.hot))
        elif event.op == OP_ACCESS:
            self._resolve(event.path, lambda: self.clock.tick_at(event.tick))
        elif event.op == OP_DELETE:
            if event.path in self.hot:
                self.clock.tick_at(event.tick)
                self.hot.remove(event.path)
            elif event.path in self.cold:
                self.clock.tick_at(event.tick)
                self.cold.delete(event.path)
            else:
                raise NotFoundError(f"no such path: {event.path}")
            self.metrics.record_delete()
            self.metrics.observe_hot_size(len(self.hot))
        else:
            raise ValueError(f"unknown operation {event.op!r}")

    # -- separation ------------------------------------------------------

    def mean_count(self) -> float:
        n = len(self.hot)
        if n == 0:
            raise EmptyStoreError("mean access count is undefined for an empty hot tier")
        return self.hot.total_access_count() / n

    def maybe_separate(self) -> SeparationEvent | None:
        """Run a separation pass if the hot tier has reached the threshold."""
        if len(self.hot) >= self.config.threshold_records:
            return self.separate()
        return None

    def separate(self) -> SeparationEvent:
        """Move cold records out of the hot tier, all or nothing.

        The evicted records are appended to the cold store first; only once
        that write succeeds is the hot tier touched. On failure the store is
        exactly as it was. Returns the event recorded in ``metrics``.
        """
        now = self.clock.now
        n = len(self.hot)
        total = self.hot.total_access_count()
        kept, evicted = partition_records(self.hot, now, self.config.recency_window, total)
        mean = total / n
        if not evicted:
            logger.warning(
                "separation at tick %d evicted nothing (%d records, mean count %.3f); "
                "hot tier stays above the threshold", now, n, mean,
            )
        else:
            self.cold.append_records(evicted)
            for record in evicted:
                self.hot.remove(record.path)
        event = self.metrics.record_separation(
            tick=now,
            hot_size_before=n,
            kept_count=len(kept),
            evicted_count=len(evicted),
            mean_count=mean,
            freed_bytes_estimate=estimate_memory(len(evicted), self.config.bytes_per_record),
        )
        logger.info(
            "separation at tick %d: %d hot -> %d kept, %d evicted (%.1f%%), mean count %.3f",
            now, n, event.kept_count, event.evicted_count,
            100.0 * event.evicted_count / n, mean,
        )
        return event

    # -- persistence -----------------------------------------------------

    def checkpoint(self, image_path) -> None:
        """Write the hot tier to an image and reset the edits log."""
        save_fsimage(self.hot, image_path)
        if self.edits is not None:
            self.edits.reset()

    def close(self) -> None:
        if self.edits is not None:
            self.edits.close()
        self.cold.close()

    # -- internals -------------------------------------------------------

    def _check_new_path(self, path: str) -> None:
        validate_path(path)
        if path in self.hot:
            raise PathExistsError(f"path already exists: {path}")
        if path in self.cold:
            raise PathExistsError(f"path already exists (cold): {path}")

    def _resolve(
        self, path: str, tick_source: Callable[[], int]
    ) -> tuple[MetadataRecord, str]:
        """Find a record in either tier for an access; promote if cold.

        ``tick_source`` is called only when the access will succeed, so a
        missed lookup consumes no tick.
        """
        if path in self.hot:
            record = self.hot.access(path, tick_source())
            self.metrics.record_lookup(LOOKUP_HOT)
            return record, TIER_HOT
        record = self.cold.get(path)
        if record is not None:
            tick = tick_source()
            self.cold.delete(path)
            self.hot.insert(record)
            self.hot.access(path, tick)
            self.metrics.record_lookup(LOOKUP_COLD)
            self.metrics.observe_hot_size(len(self.hot))
            return record, TIER_COLD
        self.metrics.record_lookup(LOOKUP_MISS)
        raise NotFoundError(f"no such path: {path}")

    def _log(self, event: OpEvent) -> None:
        if self.edits is not None:
            self.edits.append(event)
