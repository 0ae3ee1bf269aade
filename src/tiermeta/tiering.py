"""Two-tier store: hot namespace in RAM, cold records spilled to disk.

The store runs the separation rule itself. After every CREATE and DELETE it
applies, live or replayed, it checks the hot tier against a configured
record threshold. Once the threshold is reached, a separation pass splits
the hot tier by access history. A record stays hot if it was touched within
the recency window, or if its access count is strictly above the mean count
of the whole hot tier at that moment; everything else moves to the cold
store. A cold record found by a later lookup is promoted straight back, and
the promotion itself counts as an access.

A store that has an image checkpoints after a pass, to commit it, and also
once ``edits.log`` holds as many edits as the last image holds records, or
``CHECKPOINT_MIN_EDITS`` if that is more. Recovery then replays at most
about one image load's worth of edits, and the checkpoints cost about one
image row per logged edit at any namespace size.

The mean comparison is done in exact integer arithmetic
(``count * n > total``) so a record sitting exactly on the mean is evicted
regardless of how the division would round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

from .coldstore import ColdStore
from .editlog import OP_ACCESS, OP_CREATE, OP_DELETE, EditsLog, OpEvent
from .errors import ColdStoreWriteFailureError, EmptyStoreError, NotFoundError, PathExistsError
from .fsimage import save_fsimage
from .metrics import MetricsRecorder, SeparationEvent
from .namespace import (
    BLOCK_SIZE,
    BYTES_PER_RECORD,
    DATANODE_COUNT,
    REPLICATION,
    HotStore,
    MetadataRecord,
    estimate_memory,
    validate_path,
)

logger = logging.getLogger(__name__)

# The fewest edits that a log-length checkpoint waits for: a small image is not
# rewritten every few edits, and this many replay in about 50 ms.
CHECKPOINT_MIN_EDITS = 10_000

TIER_HOT = "hot"
TIER_COLD = "cold"


@dataclass(frozen=True, slots=True)
class TieringConfig:
    """Knobs for the separation policy.

    ``recency_window`` defaults to three quarters of the threshold: with an
    all-counts-equal hot tier (the common state right after a create burst)
    the pass then evicts the oldest quarter of the records.
    """

    threshold_records: int = 1_200_000
    recency_window: int | None = None

    def __post_init__(self) -> None:
        if self.recency_window is None:
            object.__setattr__(self, "recency_window", 3 * self.threshold_records // 4)
        if self.threshold_records < 1:
            raise ValueError("threshold_records must be at least 1")
        if self.recency_window < 0:
            raise ValueError("recency_window must be non-negative")

    def as_dict(self) -> dict[str, object]:
        """The knobs as reported, with the fixed record geometry and memory
        estimate alongside."""
        return {
            "threshold_records": self.threshold_records,
            "recency_window": self.recency_window,
            "bytes_per_record": BYTES_PER_RECORD,
            "block_size": BLOCK_SIZE,
            "replication": REPLICATION,
            "datanode_count": DATANODE_COUNT,
        }


def partition_records(
    hot: HotStore, now: int, window: int, total: int | None = None
) -> tuple[list[str], list[str]]:
    """Split the paths of ``hot``, in iteration order, into (kept, evicted).

    A file is kept when accessed within ``window`` ticks of ``now`` or when
    its count is strictly above the mean count of the hot tier. ``total`` is
    the sum of the counts, for a caller that already has it.
    """
    n = len(hot)
    if n == 0:
        raise EmptyStoreError("cannot separate an empty hot tier")
    if total is None:
        total = hot.total_access_count()
    kept, evicted = [], []
    slots, last_access, count = hot.bookkeeping()
    for path, slot in slots:
        # count/1 > total/n without leaving the integers
        if now - last_access[slot] <= window or count[slot] * n > total:
            kept.append(path)
        else:
            evicted.append(path)
    return kept, evicted


class TieredStore:
    """Facade tying together the hot tier, cold store, clock, and log.

    All mutating entry points assume a single caller at a time; the network
    service handles each request while holding one lock to honor that.
    """

    def __init__(self, cold: ColdStore, config: TieringConfig | None = None, *,
                 hot: HotStore | None = None):
        self.config = config or TieringConfig()
        self.cold = cold
        self.hot = hot if hot is not None else HotStore()
        self.clock = 0  # the next tick to take
        # open_store attaches both once recovery is done (see attach)
        self.edits: EditsLog | None = None
        self.image_path: Path | None = None
        # the edits.log length that runs a checkpoint, fixed when an image is
        # written or attached
        self._checkpoint_at = CHECKPOINT_MIN_EDITS
        self.metrics = MetricsRecorder()
        self.metrics.observe_hot_size(len(self.hot))

    # -- namespace operations -------------------------------------------
    #
    # A live request and a replayed event run the same body per operation
    # (_create, _resolve, _delete) through _apply, with the event's tick:
    # ``clock`` for a live request, the logged or traced one on replay. Only
    # once the body has returned does _apply set ``clock`` past that tick, so
    # a refused or failed operation takes none. A live request goes through
    # _apply_live, which then appends the edit and runs _check_threshold;
    # replay logs nothing and checks after a CREATE or DELETE only.

    def create(self, path: str, length: int) -> None:
        self._apply_live(OpEvent(OP_CREATE, path, self.clock, length))

    def open(self, path: str) -> MetadataRecord:
        """Look a file up for use; bumps its bookkeeping, promotes if cold."""
        self._apply_live(OpEvent(OP_ACCESS, path, self.clock))
        return self.hot.get(path)

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
        self._apply_live(OpEvent(OP_DELETE, path, self.clock))

    def apply_event(self, event: OpEvent) -> None:
        """Apply one trace or log event with its own tick; it is not re-logged.

        Accesses resolve through both tiers, so replay reproduces promotions;
        a CREATE or DELETE is followed by the threshold check, as live.
        """
        if event.tick < self.clock:
            raise ValueError(f"tick {event.tick} is in the past (clock is at {self.clock})")
        self._apply(event)
        if event.op != OP_ACCESS:
            self._check_threshold(event.op)

    # -- separation ------------------------------------------------------

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
        now = self.clock
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
            self.cold.append_records(self.hot.rows(evicted))
            for path in evicted:
                self.hot.remove(path)
        event = SeparationEvent(
            tick=now,
            hot_size_before=n,
            kept_count=len(kept),
            evicted_count=len(evicted),
            mean_count=mean,
            freed_bytes_estimate=estimate_memory(len(evicted)),
        )
        self.metrics.events.append(event)
        logger.info(
            "separation at tick %d: %d hot -> %d kept, %d evicted (%.1f%%), mean count %.3f",
            now, n, event.kept_count, event.evicted_count,
            100.0 * event.evicted_count / n, mean,
        )
        return event

    # -- persistence -----------------------------------------------------

    def attach(self, edits: EditsLog, image_path: Path, image_records: int) -> None:
        """Log live edits to ``edits`` and checkpoint to ``image_path``, whose
        image holds ``image_records`` records (0 for none). The edits that
        ``edits`` holds already count towards the next checkpoint."""
        self.edits, self.image_path = edits, image_path
        self._checkpoint_at = max(image_records, CHECKPOINT_MIN_EDITS)

    def checkpoint(self, image_path) -> None:
        """Commit both tiers in one image, then reset the edits log. The cold
        file is fsynced first, so the length the image commits is on disk."""
        save_fsimage(self.hot, image_path, self.clock, self.cold.sync())
        self._checkpoint_at = max(len(self.hot), CHECKPOINT_MIN_EDITS)
        if self.edits is not None:
            self.edits.reset()

    def close(self) -> None:
        if self.edits is not None:
            self.edits.close()
        self.cold.close()

    # -- internals -------------------------------------------------------

    def _apply(self, event: OpEvent) -> None:
        """Run ``event``'s body at its tick, then move the clock past it."""
        op = event.op
        if op == OP_ACCESS:
            self._resolve(event.path, event.tick)
        elif op == OP_CREATE:
            self._create(event.path, event.length, event.tick)
        elif op == OP_DELETE:
            self._delete(event.path)
        else:
            raise ValueError(f"unknown operation {op!r}")
        self.clock = event.tick + 1

    def _apply_live(self, event: OpEvent) -> None:
        """Apply a live request's event, log it if a log is attached, then
        run the threshold check, which covers the logged edit."""
        self._apply(event)
        if self.edits is not None:
            self.edits.append(event)
        self._check_threshold(event.op)

    def _create(self, path: str, length: int, tick: int) -> None:
        validate_path(path)
        if path in self.cold:
            raise PathExistsError(f"path already exists (cold): {path}")
        self.hot.create(path, length, tick)
        self.metrics.creates += 1
        self.metrics.observe_hot_size(len(self.hot))

    def _resolve(self, path: str, tick: int) -> None:
        """Count an access to a file in either tier; promote it if cold."""
        if self.hot.access(path, tick):
            self.metrics.hot_hits += 1
            return
        record = self.cold.take(path)
        if record is None:
            self.metrics.misses += 1
            raise NotFoundError(f"no such path: {path}")
        self.hot.insert(record)
        self.hot.access(path, tick)
        self.metrics.cold_hits += 1
        self.metrics.observe_hot_size(len(self.hot))

    def _delete(self, path: str) -> None:
        """Remove a path from whichever tier holds it."""
        if path in self.hot:
            self.hot.remove(path)
        elif not self.cold.delete(path):
            raise NotFoundError(f"no such path: {path}")
        self.metrics.deletes += 1

    def _check_threshold(self, op: str) -> None:
        """After ``op``: separate at the threshold if ``op`` is a CREATE or a
        DELETE, and, if the store has an image, checkpoint after a pass or
        once ``edits.log`` has reached the length fixed at the last image.

        It runs after the edit is logged, so the checkpoint covers that edit,
        and neither failure below fails it. A pass whose spill fails leaves
        both tiers as they were, and the next CREATE or DELETE tries the pass
        again. If the checkpoint fails, the log still holds every edit since
        the last image, so recovery re-runs the pass; the next log-length
        checkpoint waits until the log has doubled, so a full disk does not
        retry an image write on every request.
        """
        passed = False
        if op != OP_ACCESS:
            try:
                passed = self.maybe_separate() is not None
            except ColdStoreWriteFailureError as exc:
                logger.warning("separation failed; the next CREATE or DELETE tries again: %s", exc)
        if self.image_path is None or not (passed or self.edits.entry_count >= self._checkpoint_at):
            return
        try:
            self.checkpoint(self.image_path)
        except OSError as exc:
            self._checkpoint_at = max(self._checkpoint_at, 2 * self.edits.entry_count)
            logger.warning("checkpoint %s failed; edits.log keeps its edits: %s",
                           "after a pass" if passed else "of a full edits.log", exc)
