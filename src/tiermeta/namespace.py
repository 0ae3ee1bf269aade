"""In-memory filesystem namespace: the hot tier.

Each file is one :class:`MetadataRecord` keyed by its absolute path. A record
carries what its simulated block layout derives from plus the two fields the
tiering policy reads: ``last_access`` (a logical tick) and ``count`` (how
many times the file has been touched, creation included).

Time is a :class:`LogicalClock`: every namespace-mutating or access event
consumes exactly one tick, so a given operation sequence always produces the
same store state. Block ids encode (creation tick, block index), which keeps
them unique for the life of the namespace and lets a checkpoint-plus-log
replay mint identical ids without any allocator state in the checkpoint.
Since a file's blocks follow from its length and creation tick (the block
size, replication and DataNode count are fixed), a record stores that tick
and derives its blocks on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import (
    FileTooLargeError,
    InvalidPathError,
    NotInHotTierError,
    PathExistsError,
)

# The record geometry: every file is laid out with these, and a record line
# written with any other block size or replication is refused on read.
BLOCK_SIZE = 64 * 1024 * 1024
REPLICATION = 3
DATANODE_COUNT = 2

# The RAM a hot record is estimated to take, for the reports' memory figures
# (an estimate of the modelled NameNode, not a measurement of this process).
BYTES_PER_RECORD = 600

# Low bits of a block id hold the block's index within its file; the rest
# hold the file's creation tick.
BLOCK_INDEX_BITS = 20
MAX_BLOCKS_PER_FILE = 1 << BLOCK_INDEX_BITS

_FORBIDDEN_PATH_CHARS = set(" \t\r\n\x00")


@dataclass(frozen=True, slots=True)
class BlockInfo:
    """One simulated data block: id, size, version stamp, replica placement."""

    block_id: int
    size: int
    generation_stamp: int
    replicas: tuple[int, ...]


@dataclass(slots=True)
class MetadataRecord:
    """Namespace entry for a single file.

    The blocks are not stored: :attr:`blocks` derives them from ``length``
    and the creation tick ``created``. An empty file has no blocks and its
    ``created`` is 0. ``last_access`` and ``count`` are the only fields that
    change over a record's lifetime, and both are non-decreasing.
    """

    path: str
    length: int
    created: int
    last_access: int
    count: int

    @property
    def blocks(self) -> tuple[BlockInfo, ...]:
        """The file's blocks, built anew on each read (see :func:`split_blocks`)."""
        return split_blocks(self.length, self.created)


class LogicalClock:
    """Monotone tick counter; one tick per event, starting at 0."""

    __slots__ = ("now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start below 0")
        self.now = start

    def tick(self) -> int:
        """Consume and return the current tick."""
        t = self.now
        self.now = t + 1
        return t

    def tick_at(self, t: int) -> int:
        """Consume an externally supplied tick, e.g. from a trace or log.

        The tick must not lie in the past; the clock jumps past it.
        """
        if t < self.now:
            raise ValueError(f"tick {t} is in the past (clock is at {self.now})")
        self.now = t + 1
        return t


def validate_path(path: str) -> None:
    """Reject paths the namespace and the line-oriented file formats cannot hold."""
    if not path:
        raise InvalidPathError("path is empty")
    if not path.startswith("/"):
        raise InvalidPathError(f"path is not absolute: {path!r}")
    if not _FORBIDDEN_PATH_CHARS.isdisjoint(path):
        raise InvalidPathError(f"path contains whitespace or NUL: {path!r}")


def block_count(length: int) -> int:
    """How many ``BLOCK_SIZE`` blocks a file of ``length`` bytes takes.

    Raises ValueError for a negative length and FileTooLargeError past
    ``MAX_BLOCKS_PER_FILE``.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    n_blocks = -(-length // BLOCK_SIZE)
    if n_blocks > MAX_BLOCKS_PER_FILE:
        raise FileTooLargeError(
            f"{n_blocks} blocks exceeds the per-file limit of {MAX_BLOCKS_PER_FILE}"
        )
    return n_blocks


def split_blocks(length: int, creation_tick: int) -> tuple[BlockInfo, ...]:
    """Split a file of ``length`` bytes, created at ``creation_tick``, into blocks.

    Every block except possibly the last has exactly ``BLOCK_SIZE`` bytes;
    a zero-length file has no blocks. Replicas are placed round-robin over
    the ``DATANODE_COUNT`` virtual DataNodes starting at ``block_id mod
    DATANODE_COUNT``, with the effective replication ``REPLICATION`` capped
    at the node count.
    """
    n_blocks = block_count(length)
    effective = min(REPLICATION, DATANODE_COUNT)
    blocks = []
    remaining = length
    for i in range(n_blocks):
        size = min(BLOCK_SIZE, remaining)
        remaining -= size
        block_id = (creation_tick << BLOCK_INDEX_BITS) | i
        replicas = tuple((block_id + j) % DATANODE_COUNT for j in range(effective))
        blocks.append(BlockInfo(block_id, size, creation_tick, replicas))
    return tuple(blocks)


def estimate_memory(record_count: int) -> int:
    """Estimated RAM held by ``record_count`` hot records."""
    if record_count < 0:
        raise ValueError("record_count must be non-negative")
    return record_count * BYTES_PER_RECORD


class HotStore:
    """The hot tier: an insertion-ordered map of path to record.

    Not internally synchronized: all mutations go through one logical owner,
    per the store-wide single-writer contract.
    """

    def __init__(self) -> None:
        self._records: dict[str, MetadataRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, path: str) -> bool:
        return path in self._records

    def __iter__(self) -> Iterator[MetadataRecord]:
        return iter(self._records.values())

    def paths(self) -> Iterator[str]:
        return iter(self._records.keys())

    def get(self, path: str) -> MetadataRecord | None:
        """Pure lookup; returns None on miss, touches no bookkeeping."""
        return self._records.get(path)

    def create(self, path: str, length: int, tick: int) -> MetadataRecord:
        """Insert a new file record; creation counts as its first access.

        Raises FileTooLargeError for a file of more than
        ``MAX_BLOCKS_PER_FILE`` blocks, before anything is stored. The path
        is not validated here: the tiered store does that where input arrives.
        """
        if path in self._records:
            raise PathExistsError(f"path already exists: {path}")
        block_count(length)
        record = MetadataRecord(
            path=path, length=length, created=tick if length else 0, last_access=tick, count=1
        )
        self._records[path] = record
        return record

    def access(self, path: str, tick: int) -> MetadataRecord:
        """Bump a hot record's access bookkeeping."""
        record = self._records.get(path)
        if record is None:
            raise NotInHotTierError(f"not in hot tier: {path}")
        record.last_access = tick
        record.count += 1
        return record

    def insert(self, record: MetadataRecord) -> None:
        """Insert an existing record, e.g. a promotion from the cold tier."""
        if record.path in self._records:
            raise PathExistsError(f"path already exists: {record.path}")
        self._records[record.path] = record

    def remove(self, path: str) -> MetadataRecord:
        record = self._records.pop(path, None)
        if record is None:
            raise NotInHotTierError(f"not in hot tier: {path}")
        return record

    def total_access_count(self) -> int:
        return sum(r.count for r in self._records.values())
