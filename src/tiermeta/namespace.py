"""In-memory filesystem namespace: the hot tier.

Each file is a slot in four integer columns, keyed by its absolute path: what
its simulated block layout derives from plus the two fields the tiering
policy reads, ``last_access`` (a logical tick) and ``count`` (how many times
the file has been touched, creation included).

Time is a logical clock, the int ``TieredStore.clock``: every
namespace-mutating or access event consumes exactly one tick, so a given
operation sequence always produces the same store state. Block ids encode
(creation tick, block index), which keeps them unique for the life of the
namespace and lets a checkpoint-plus-log replay mint identical ids without
any allocator state in the checkpoint.
Since a file's blocks follow from its length and creation tick (the block
size, replication and DataNode count are fixed), a record stores that tick
and derives its blocks on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

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

# what a path may not hold; recordio builds its record-line pattern from it too
FORBIDDEN_PATH_CHARS = set(" \t\r\n\x00")


@dataclass(frozen=True, slots=True)
class BlockInfo:
    """One simulated data block: id, size, version stamp, replica placement."""

    block_id: int
    size: int
    generation_stamp: int
    replicas: tuple[int, ...]


class MetadataRecord(NamedTuple):
    """An immutable snapshot of one file's namespace entry, as a record line
    holds it, in the field order of a :meth:`HotStore.rows` row.

    :class:`HotStore` keeps the fields in columns, so a record does not follow
    later accesses. :attr:`blocks` derives the blocks from ``length`` and the
    creation tick ``created`` (0 for an empty file, which has none)."""

    path: str
    length: int
    created: int
    last_access: int
    count: int

    @property
    def blocks(self) -> tuple[BlockInfo, ...]:
        """The file's blocks, built anew on each read (see :func:`split_blocks`)."""
        return split_blocks(self.length, self.created)


def validate_path(path: str) -> None:
    """Reject paths the namespace and the line-oriented file formats cannot hold."""
    if not path:
        raise InvalidPathError("path is empty")
    if not path.startswith("/"):
        raise InvalidPathError(f"path is not absolute: {path!r}")
    if not FORBIDDEN_PATH_CHARS.isdisjoint(path):
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
    """The hot tier: a dict from path to slot over four ``array("q")`` columns.

    A removed file's slot goes on the free list with its count set to 0, so
    ``_count`` sums to the live files' access count. Iteration follows the
    dict's insertion order, never slot order. Not synchronized internally.
    """

    def __init__(self) -> None:
        self._slots: dict[str, int] = {}
        self._length, self._created = array("q"), array("q")
        self._last_access, self._count, self._free = array("q"), array("q"), array("q")

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, path: str) -> bool:
        return path in self._slots

    def __iter__(self) -> Iterator[MetadataRecord]:
        return (MetadataRecord(*row) for row in self.rows(self._slots))

    def paths(self) -> Iterator[str]:
        return iter(self._slots)

    def get(self, path: str) -> MetadataRecord | None:
        """A snapshot of ``path``'s record, or None; touches no bookkeeping."""
        slot = self._slots.get(path)
        return None if slot is None else MetadataRecord(
            path, self._length[slot], self._created[slot], self._last_access[slot],
            self._count[slot])

    def rows(self, paths: Iterable[str]) -> Iterator[tuple[str, int, int, int, int]]:
        """``(path, length, created, last_access, count)`` of each of ``paths``,
        read 512 at a time: a plain tuple in :class:`MetadataRecord`'s field
        order, which :func:`~tiermeta.recordio.encode_record` writes as it is."""
        paths = iter(paths)
        columns = (self._length, self._created, self._last_access, self._count)
        while chunk := list(islice(paths, 512)):
            # one call per column; the extra item 0 makes a tuple of a chunk of one
            gather = itemgetter(*[self._slots[path] for path in chunk], 0)
            yield from zip(chunk, *map(gather, columns))

    def bookkeeping(self) -> tuple[Iterable[tuple[str, int]], array, array]:
        """``(path, slot)`` of every file in iteration order, and the
        ``last_access`` and ``count`` columns a slot indexes, to read only."""
        return self._slots.items(), self._last_access, self._count

    def create(self, path: str, length: int, tick: int) -> None:
        """Insert a new file's record, creation counting as its first access;
        past ``MAX_BLOCKS_PER_FILE`` blocks raise FileTooLargeError first. No
        record is built (replay has no use for one): :meth:`get` makes the
        snapshot. The tiered store validates the path."""
        block_count(length)
        self.insert((path, length, tick if length else 0, tick, 1))

    def access(self, path: str, tick: int) -> bool:
        """Count an access at ``tick`` to ``path`` if it is hot; returns whether it was."""
        slot = self._slots.get(path)
        if slot is None:
            return False
        self._last_access[slot] = tick
        self._count[slot] += 1
        return True

    def insert(self, record: tuple[str, int, int, int, int]) -> None:
        """Insert an existing record, e.g. a promotion from the cold tier: a
        :class:`MetadataRecord`, or a plain tuple in its field order."""
        path, length, created, last_access, count = record
        if path in self._slots:
            raise PathExistsError(f"path already exists: {path}")
        if self._free:
            slot = self._free.pop()
            self._length[slot], self._created[slot] = length, created
            self._last_access[slot], self._count[slot] = last_access, count
        else:
            slot = len(self._count)
            self._length.append(length)
            self._created.append(created)
            self._last_access.append(last_access)
            self._count.append(count)
        self._slots[path] = slot

    def insert_columns(self, paths: tuple[str, ...], lengths: list[int], created: list[int],
                       last_access: list[int], counts: list[int]) -> None:
        """Insert records given as columns in :class:`MetadataRecord`'s field
        order, all or none, each in a new slot: a path already present, or
        given twice, raises PathExistsError and inserts nothing."""
        start = len(self._count)
        slots = dict(zip(paths, range(start, start + len(paths))))
        if len(slots) != len(paths) or not self._slots.keys().isdisjoint(slots):
            raise PathExistsError("a path is already present or given twice")
        self._length.extend(lengths)
        self._created.extend(created)
        self._last_access.extend(last_access)
        self._count.extend(counts)
        self._slots.update(slots)

    def remove(self, path: str) -> None:
        slot = self._slots.pop(path, None)
        if slot is None:
            raise NotInHotTierError(f"not in hot tier: {path}")
        self._count[slot] = 0
        self._free.append(slot)

    def total_access_count(self) -> int:
        return sum(self._count)
