"""Append-only secondary store for records evicted from the hot tier.

The file holds record lines (see recordio) interleaved with tombstones:

    TOMB <path>

Later entries win, so deleting or promoting a record is one appended
tombstone, never a rewrite. Record paths always start with "/", so a TOMB
prefix is unambiguous. An append ends with its newline, so a last line
without one is an append cut short by a crash, or one still being written.
An open writes nothing: it takes the file's size once and reads only the
lines below it, and a torn last line fails it with CorruptImageError, as it
fails an image load. ``open_store`` cuts a store's cold file back to the
length its image commits, which ends a line, before opening it.

The index holds no path. It is an open-addressing hash table in two
``array("q")`` with a power-of-two number of slots, sized on open by a line
count and filled by one scan that reads ``recordio.READ_CHUNK`` bytes of
whole lines at a time and indexes each chunk in bulk; a chunk with a line
that is neither a record nor a tombstone is indexed again one line at a
time, which names that line. ``_keys`` holds each live path's :func:`_key`
(0 marks an empty slot) and ``_offs`` the offset of its live record line
(-1 marks an entry a tombstone or a promotion removed). Lookups probe
linearly from the key. A key match is confirmed against the path in the
file, so a 64-bit collision never merges two paths: :meth:`ColdStore.get`
checks the line it reads, and everything else reads ``path + "\\t"`` with
``os.pread``, which leaves the buffered position alone. The table is kept
at most half full, removed slots counted, and shrinks to fit when fewer
than 1/8 of its slots are live, down to 16 slots: an entry costs 32-64 B
(a path-keyed dict cost 114-236 B). A cold ``get`` is one probe and one
readline; a promotion (:meth:`ColdStore.take`) adds one tombstone, and a
delete is one probe, one ``os.pread`` and one tombstone. The open confirms
a tombstone whose entry's line is in the same chunk against the chunk's
paths, with no read.

The store counts the lines of its file next to its live records, so the
dead lines (tombstones, and the records they or a later line superseded)
are their difference. :meth:`ColdStore.compact` rewrites the file to its
live lines. A store built with ``autocompact`` runs it after a tombstone
once the file holds at least ``COMPACT_MIN_LINES`` lines and its dead lines
outnumber ``COMPACT_DEAD_PER_LIVE`` times its live records, so the file
stays within about twice its live records, at amortised O(1) per
tombstone. Only a file that no image commits may be built so: a trace
replay's. A failed compaction leaves the file as it was and is one
warning, and the next try waits until the dead lines have doubled.

Writers are not synchronized here: the owning store serializes mutations.
"""

from __future__ import annotations

import logging
import os
from array import array
from contextlib import contextmanager, suppress
from itertools import accumulate, compress, count, repeat
from operator import itemgetter, not_
from pathlib import Path
from typing import Iterable, Iterator

from . import recordio
from .errors import (
    ColdStoreWriteFailureError,
    CompactionAbortedError,
    CorruptImageError,
)
from .namespace import MetadataRecord
from .recordio import decode_record, encode_record

logger = logging.getLogger(__name__)

_TOMB_PREFIX = b"TOMB "
_REMOVED = -1
_MIN_SLOTS = 16

# The ``autocompact`` trigger: at least this many lines, and more than this
# many dead lines per live record
COMPACT_MIN_LINES = 1_024
COMPACT_DEAD_PER_LIVE = 1


def _key(path: str) -> int:
    """The table key of ``path``: its str hash, never the empty mark 0.

    The hash is salted per process, which is fine: the table is rebuilt on
    every open and never written out."""
    return hash(path) or 1


def _slots_for(entries: int) -> int:
    """The power-of-two slot count that holds ``entries`` at most half full."""
    slots = _MIN_SLOTS
    while slots < 2 * entries:
        slots *= 2
    return slots


class ColdStore:
    """The cold file and its index; a line that :func:`decode_record` refuses
    (another geometry, say) fails the read of its path."""

    def __init__(self, path: str | Path, *, autocompact: bool = False):
        """Open the cold file at ``path``. Only a file that no image commits
        may be built with ``autocompact``: a compaction moves every line."""
        self.path = Path(path)
        self._autocompact = autocompact
        self._compact_dead = 0  # the fewest dead lines that try a compaction
        self._file = open(self.path, "a+b")
        try:
            self._rebuild_index()
        except BaseException:
            self._file.close()
            raise

    # -- the table ---------------------------------------------------------

    def _allocate(self, slots: int) -> None:
        # array * n fills the table in place: no second copy exists meanwhile
        self._keys = array("q", [0]) * slots
        self._offs = array("q", [_REMOVED]) * slots
        self._mask = slots - 1
        self._live = 0
        self._used = 0  # live plus removed slots

    def _rehash(self, entries: int) -> None:
        """Move the live entries into a table sized for ``entries``."""
        keys, offs = self._keys, self._offs
        self._allocate(_slots_for(entries))
        new_keys, new_offs, mask = self._keys, self._offs, self._mask
        for key, offset in zip(keys, offs):
            if offset >= 0:
                i = key & mask
                while new_keys[i]:
                    i = (i + 1) & mask
                new_keys[i] = key
                new_offs[i] = offset
                self._live += 1
        self._used = self._live

    def _holds(self, offset: int, prefix: bytes) -> bool:
        return os.pread(self._file.fileno(), len(prefix), offset) == prefix

    def _find(self, path: str, read_line: bool = False,
              known: dict[int, str] | None = None) -> tuple[int, bytes]:
        """The slot of ``path``'s live entry and, with ``read_line``, its line.

        Returns ``(-1, b"")`` when ``path`` is not live. Without ``read_line``
        only ``path + "\t"`` is read, and the buffered position is left alone;
        an entry whose offset ``known`` maps to the path of its line, read
        already, is confirmed with no read.
        """
        keys = self._keys
        mask = self._mask
        key = _key(path)
        i = key & mask
        k = keys[i]
        while k:
            if k == key:
                offset = self._offs[i]
                if offset >= 0:
                    prefix = path.encode("utf-8") + b"\t"
                    if known is not None and offset in known:
                        if known[offset] == path:
                            return i, prefix
                    elif read_line:
                        self._file.seek(offset)
                        line = self._file.readline()
                        if line.startswith(prefix):
                            return i, line
                    elif self._holds(offset, prefix):
                        return i, prefix
            i = (i + 1) & mask
            k = keys[i]
        return -1, b""

    def _put_all(self, paths: Iterable[str], offsets: Iterable[int]) -> None:
        """Point each of ``paths`` at the record line at its offset, in order,
        so a later line of a path wins; the lines are on disk and the table
        has a free slot for each."""
        keys, offs, mask = self._keys, self._offs, self._mask
        added = used = 0
        for path, offset in zip(paths, offsets):
            key = _key(path)
            i = key & mask
            free = -1
            k = keys[i]
            while k:
                if offs[i] < 0:
                    if free < 0:
                        free = i
                elif k == key and self._holds(offs[i], path.encode("utf-8") + b"\t"):
                    offs[i] = offset
                    break
                i = (i + 1) & mask
                k = keys[i]
            else:
                if free < 0:
                    free = i
                    used += 1
                keys[free] = key
                offs[free] = offset
                added += 1
        self._live += added
        self._used += used

    def _remove(self, slot: int) -> None:
        self._offs[slot] = _REMOVED
        self._live -= 1

    def _shrink_if_sparse(self) -> None:
        if self._live < len(self._keys) // 8 and len(self._keys) > _MIN_SLOTS:
            self._rehash(self._live)

    def _live_lines(self) -> Iterator[tuple[int, bytes]]:
        """Each live record line with its offset, in file (append) order."""
        for offset in sorted(o for o in self._offs if o >= 0):
            self._file.seek(offset)
            yield offset, self._file.readline()

    def _rebuild_index(self) -> None:
        """Index the whole lines below the file's size as the open finds it."""
        self._keys = self._offs = array("q")  # the old table goes first
        size = self._file.seek(0, os.SEEK_END)
        self._file.seek(0)
        total, chunk = 0, b""
        for start in range(0, size, recordio.READ_CHUNK):
            chunk = self._file.read(min(recordio.READ_CHUNK, size - start))
            total += chunk.count(b"\n")
        if size and not chunk.endswith(b"\n"):
            raise CorruptImageError(f"{self.path}: line {total + 1}: truncated record")
        # every line fills at most one slot, so the scan never grows the table
        self._allocate(_slots_for(total))
        self._lines = total
        self._file.seek(0)
        offset, lineno = 0, 1
        while lineno <= total and (lines := self._file.readlines(recordio.READ_CHUNK)):
            del lines[total - lineno + 1:]  # lines appended after the count
            starts = list(accumulate(map(len, lines), initial=offset))
            if not self._index_chunk(lines, starts):
                self._index_lines(lines, starts, lineno)
            offset, lineno = starts[-1], lineno + len(lines)
        self._shrink_if_sparse()

    def _index_chunk(self, lines: list[bytes], starts: list[int]) -> bool:
        """Index ``lines``, whole lines starting at ``starts``, in bulk; False,
        with the table untouched, if any line is neither a record nor a
        tombstone or has a path that is not UTF-8.

        The records go in first, in file order. Then each tombstone, in file
        order, removes its path's live entry if that entry's line starts
        before it: one that starts after it is a record written again after
        its promotion or delete.
        """
        is_tomb = list(map(bytes.startswith, lines, repeat(_TOMB_PREFIX)))
        is_record = list(map(not_, is_tomb))
        records = list(compress(lines, is_record))
        heads = list(map(bytes.partition, records, repeat(b"\t")))
        absolute = all(map(bytes.startswith, records, repeat(b"/")))
        if not (absolute and all(map(itemgetter(1), heads))):  # and each has a tab
            return False
        try:
            paths = list(map(bytes.decode, map(itemgetter(0), heads)))
            tombs = [t[len(_TOMB_PREFIX):-1].decode("utf-8") for t in compress(lines, is_tomb)]
        except UnicodeDecodeError:
            return False
        self._put_all(paths, compress(starts, is_record))
        # an entry from this chunk is confirmed against its path, not read again
        known = dict(zip(compress(starts, is_record), paths)) if tombs else None
        for path, offset in zip(tombs, compress(starts, is_tomb)):
            slot = self._find(path, known=known)[0]
            if slot >= 0 and self._offs[slot] < offset:
                self._remove(slot)
        return True

    def _index_lines(self, lines: list[bytes], starts: list[int], lineno: int) -> None:
        """Index ``lines`` one at a time, the first being line ``lineno``; the
        first line that is neither a record nor a tombstone fails the open."""
        for lineno, raw, offset in zip(count(lineno), lines, starts):
            try:
                if raw.startswith(_TOMB_PREFIX):
                    slot = self._find(raw[len(_TOMB_PREFIX):-1].decode("utf-8"))[0]
                    if slot >= 0:
                        self._remove(slot)
                elif raw.startswith(b"/") and b"\t" in raw:
                    self._put_all((raw.split(b"\t", 1)[0].decode("utf-8"),), (offset,))
                else:
                    raise ValueError("neither record nor tombstone")
            except ValueError as exc:  # UnicodeDecodeError included
                raise CorruptImageError(f"{self.path}: line {lineno}: {exc}") from None

    # -- the store ---------------------------------------------------------

    def __contains__(self, path: str) -> bool:
        return self._find(path)[0] >= 0

    def __len__(self) -> int:
        return self._live

    def paths(self) -> list[str]:
        """Live paths in file (append) order."""
        return [line.split(b"\t", 1)[0].decode("utf-8") for _, line in self._live_lines()]

    def _decode(self, line: bytes, offset: int) -> MetadataRecord:
        try:
            return decode_record(line[:-1].decode("utf-8"))
        except ValueError as exc:
            raise CorruptImageError(f"{self.path}: offset {offset}: {exc}") from None

    def get(self, path: str) -> MetadataRecord | None:
        """Return the live record for ``path``, or None if absent."""
        slot, line = self._find(path, read_line=True)
        if slot < 0:
            return None
        return self._decode(line, self._offs[slot])

    def records(self) -> Iterator[MetadataRecord]:
        """Yield all live records in file (append) order."""
        for offset, line in self._live_lines():
            yield self._decode(line, offset)

    @contextmanager
    def _appending(self, what: str) -> Iterator[int]:
        """Append in the ``with`` block, which gets the start offset, then flush;
        on failure cut the file back (an OSError as ColdStoreWriteFailureError)."""
        start = self._file.seek(0, os.SEEK_END)
        try:
            yield start
            self._file.flush()
        except BaseException as exc:
            with suppress(OSError):  # closing flushes what is left, and may fail again
                self._file.close()
            os.truncate(self.path, start)
            self._file = open(self.path, "a+b")
            if isinstance(exc, OSError):
                raise ColdStoreWriteFailureError(f"append of {what} failed: {exc}") from exc
            raise

    def append_records(self, records: Iterable[tuple[str, int, int, int, int]]) -> None:
        """Append records atomically: on failure the file is restored to its
        previous size and the index is untouched. A record is anything
        :func:`encode_record` takes, a :meth:`~tiermeta.namespace.HotStore.rows`
        row included. Each line goes through the file's buffer; only paths and
        offsets are kept until the flush."""
        paths, offsets = [], array("q")
        with self._appending("records") as offset:
            for record in records:
                line = encode_record(record).encode("utf-8") + b"\n"
                self._file.write(line)
                paths.append(record[0])
                offsets.append(offset)
                offset += len(line)
        if 2 * (self._used + len(paths)) > len(self._keys):
            self._rehash(self._live + len(paths))  # once for the whole batch
        self._put_all(paths, offsets)
        self._lines += len(paths)

    def sync(self) -> int:
        """Make the file durable; returns its length, the end an image commits."""
        os.fsync(self._file.fileno())
        return os.fstat(self._file.fileno()).st_size

    def delete(self, path: str) -> bool:
        """Tombstone ``path`` in one probe, the tombstone flushed before
        returning; returns whether ``path`` was live (if not, nothing is written)."""
        slot = self._find(path)[0]
        if slot < 0:
            return False
        self._tombstone(path, slot)
        return True

    def take(self, path: str) -> MetadataRecord | None:
        """Remove and return ``path``'s live record (None if none) in one probe;
        if the tombstone cannot be written, nothing changes."""
        slot, line = self._find(path, read_line=True)
        if slot < 0:
            return None
        record = self._decode(line, self._offs[slot])
        self._tombstone(path, slot)
        return record

    def _tombstone(self, path: str, slot: int) -> None:
        with self._appending("a tombstone"):
            self._file.write(_TOMB_PREFIX + path.encode("utf-8") + b"\n")
        self._lines += 1
        self._remove(slot)
        self._shrink_if_sparse()
        dead = self._lines - self._live
        if (self._autocompact and self._lines >= COMPACT_MIN_LINES
                and dead > COMPACT_DEAD_PER_LIVE * self._live and dead >= self._compact_dead):
            try:
                self.compact()
                self._compact_dead = 0
            except CompactionAbortedError as exc:
                # the tombstone stands; try again once the dead lines have doubled
                self._compact_dead = 2 * dead
                logger.warning("%s; the next try waits for %d dead lines", exc, 2 * dead)

    def compact(self) -> int:
        """Rewrite the file with live records only, preserving append order.

        Returns the live record count. On failure the original file is left
        intact and CompactionAbortedError is raised.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "wb") as out:
                for _, line in self._live_lines():
                    out.write(line)
                out.flush()
                os.fsync(out.fileno())
            os.replace(tmp, self.path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CompactionAbortedError(f"compaction of {self.path} failed: {exc}") from exc
        self._file.close()
        self._file = open(self.path, "a+b")
        self._rebuild_index()
        logger.info("compacted %s down to %d live records", self.path, self._live)
        return self._live

    def close(self) -> None:
        self._file.close()
