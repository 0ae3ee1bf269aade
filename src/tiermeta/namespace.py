"""In-memory filesystem namespace: the hot tier.

Each file is one :class:`MetadataRecord` keyed by its absolute path. A record
carries the simulated block layout plus the two fields the tiering policy
reads: ``last_access`` (a logical tick) and ``count`` (how many times the
file has been touched, creation included).

Time is a :class:`LogicalClock`: every namespace-mutating or access event
consumes exactly one tick, so a given operation sequence always produces the
same store state. Block ids encode (creation tick, block index), which keeps
them unique for the life of the namespace and lets a checkpoint-plus-log
replay mint identical ids without any allocator state in the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    FileTooLargeError,
    InvalidPathError,
    NotInHotTierError,
    PathExistsError,
)

DEFAULT_BLOCK_SIZE = 64 * 1024 * 1024
DEFAULT_REPLICATION = 3
DEFAULT_DATANODE_COUNT = 2

# Low bits of a block id hold the block's index within its file; the rest
# hold the file's creation tick.
BLOCK_INDEX_BITS = 20
MAX_BLOCKS_PER_FILE = 1 << BLOCK_INDEX_BITS

_FORBIDDEN_PATH_CHARS = set(" \t\r\n\x00")

# Records repeat values that many other records hold too: a block size, a
# replica ring. share() hands back one kept object per value, so each such
# value costs its bytes once. The table stops growing at SHARED_VALUES_CAP
# entries and keeps no tuple longer than SHARED_TUPLE_MAX_LEN; other values
# are kept as given, so a file of odd values cannot grow it without bound.
SHARED_VALUES_CAP = 4096
SHARED_TUPLE_MAX_LEN = 8
_shared_values: dict[int | tuple[int, ...], int | tuple[int, ...]] = {}


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

    ``blocks`` is immutable after creation; ``last_access`` and ``count``
    are the only fields that change over a record's lifetime, and both are
    non-decreasing.
    """

    path: str
    length: int
    block_size: int
    replication: int
    blocks: tuple[BlockInfo, ...]
    last_access: int
    count: int


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


def share(value: int | tuple[int, ...]) -> int | tuple[int, ...]:
    """Return the kept object equal to ``value`` (an int or a tuple of ints).

    The first value seen is kept while the table is below its cap; a value
    seen after the table is full, or a tuple longer than
    ``SHARED_TUPLE_MAX_LEN``, is returned as given.
    """
    kept = _shared_values.get(value)
    if kept is not None:
        return kept
    if len(_shared_values) < SHARED_VALUES_CAP and (
        isinstance(value, int) or len(value) <= SHARED_TUPLE_MAX_LEN
    ):
        _shared_values[value] = value
    return value


def split_blocks(
    length: int,
    block_size: int,
    creation_tick: int,
    replication: int,
    datanode_count: int,
) -> tuple[BlockInfo, ...]:
    """Split a file of ``length`` bytes into fixed-size blocks.

    Every block except possibly the last has exactly ``block_size`` bytes;
    a zero-length file has no blocks. Replicas are placed round-robin over
    the virtual DataNodes starting at ``block_id mod datanode_count``, with
    the effective replication capped at the node count. Blocks on the same
    nodes hold the same replica tuple (see :func:`share`).
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if length == 0:
        return ()
    n_blocks = -(-length // block_size)
    if n_blocks > MAX_BLOCKS_PER_FILE:
        raise FileTooLargeError(
            f"{n_blocks} blocks exceeds the per-file limit of {MAX_BLOCKS_PER_FILE}"
        )
    effective = min(replication, datanode_count)
    blocks = []
    remaining = length
    for i in range(n_blocks):
        size = min(block_size, remaining)
        remaining -= size
        block_id = (creation_tick << BLOCK_INDEX_BITS) | i
        replicas = share(tuple((block_id + j) % datanode_count for j in range(effective)))
        blocks.append(BlockInfo(block_id, size, creation_tick, replicas))
    return tuple(blocks)


def estimate_memory(record_count: int, bytes_per_record: int) -> int:
    """Estimated RAM held by ``record_count`` hot records."""
    if record_count < 0 or bytes_per_record < 0:
        raise ValueError("arguments must be non-negative")
    return record_count * bytes_per_record


@dataclass
class HotStore:
    """The hot tier: an insertion-ordered map of path to record.

    The store also owns the creation defaults (block size, replication,
    DataNode count) so that replaying a log of bare create events rebuilds
    byte-identical records.

    Not internally synchronized: all mutations go through one logical owner,
    per the store-wide single-writer contract.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    replication: int = DEFAULT_REPLICATION
    datanode_count: int = DEFAULT_DATANODE_COUNT
    _records: dict[str, MetadataRecord] = field(default_factory=dict)

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

    def create(
        self,
        path: str,
        length: int,
        tick: int,
        block_size: int | None = None,
        replication: int | None = None,
    ) -> MetadataRecord:
        """Insert a new file record; creation counts as its first access."""
        validate_path(path)
        if path in self._records:
            raise PathExistsError(f"path already exists: {path}")
        if length < 0:
            raise ValueError("length must be non-negative")
        bs = self.block_size if block_size is None else block_size
        repl = self.replication if replication is None else replication
        record = MetadataRecord(
            path=path,
            length=length,
            block_size=bs,
            replication=repl,
            blocks=split_blocks(length, bs, tick, repl, self.datanode_count),
            last_access=tick,
            count=1,
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
