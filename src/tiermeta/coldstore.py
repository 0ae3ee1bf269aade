"""Append-only secondary store for records evicted from the hot tier.

The file holds record lines (see recordio) interleaved with tombstones:

    TOMB <path>

Later entries win, so deleting or promoting a record is one appended
tombstone, never a rewrite. An in-memory path-to-offset index is rebuilt
by a single scan on open; lookups then cost one seek and one readline.
Record paths always start with "/", so a TOMB prefix is unambiguous.
An append ends with its newline, so a last line without one was cut short
by a crash: it was never acknowledged, and opening the file truncates it
away, as opening the edits log does.

Writers are not synchronized here: the owning store serializes mutations.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path
from typing import Iterator

from .errors import (
    ColdStoreWriteFailureError,
    CompactionAbortedError,
    CorruptImageError,
    NotFoundError,
)
from .namespace import MetadataRecord
from .recordio import decode_record, encode_record

logger = logging.getLogger(__name__)

_TOMB_PREFIX = b"TOMB "


class ColdStore:
    """The cold file and its index; a line that :func:`decode_record` refuses
    (another geometry, say) fails the read of its path."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file = open(self.path, "a+b")
        self._index: dict[str, int] = {}
        try:
            self._rebuild_index()
        except BaseException:
            self._file.close()
            raise

    def _rebuild_index(self) -> None:
        self._index.clear()
        self._file.seek(0)
        offset = 0
        lineno = 0
        for raw in self._file:
            lineno += 1
            if not raw.endswith(b"\n"):
                logger.warning("%s: dropping a torn last line of %d bytes", self.path, len(raw))
                self._file.truncate(offset)
                break
            try:
                if raw.startswith(_TOMB_PREFIX):
                    self._index.pop(raw[len(_TOMB_PREFIX):-1].decode("utf-8"), None)
                elif raw.startswith(b"/") and b"\t" in raw:
                    self._index[raw.split(b"\t", 1)[0].decode("utf-8")] = offset
                else:
                    raise ValueError("neither record nor tombstone")
            except ValueError as exc:  # UnicodeDecodeError included
                raise CorruptImageError(f"{self.path}: line {lineno}: {exc}") from None
            offset += len(raw)

    def __contains__(self, path: str) -> bool:
        return path in self._index

    def __len__(self) -> int:
        return len(self._index)

    def paths(self) -> list[str]:
        return list(self._index)

    def get(self, path: str) -> MetadataRecord | None:
        """Return the live record for ``path``, or None if absent."""
        offset = self._index.get(path)
        if offset is None:
            return None
        self._file.seek(offset)
        try:
            return decode_record(self._file.readline()[:-1].decode("utf-8"))
        except ValueError as exc:
            raise CorruptImageError(f"{self.path}: offset {offset}: {exc}") from None

    def records(self) -> Iterator[MetadataRecord]:
        """Yield all live records in file (append) order."""
        for path, _ in sorted(self._index.items(), key=lambda kv: kv[1]):
            record = self.get(path)
            assert record is not None
            yield record

    def append_records(self, records: list[MetadataRecord]) -> None:
        """Append records atomically: on failure the file is restored to its
        previous size and the index is untouched."""
        lines = [encode_record(r).encode("utf-8") + b"\n" for r in records]
        start = self._file.seek(0, os.SEEK_END)
        try:
            self._file.write(b"".join(lines))
            self._file.flush()
        except OSError as exc:
            try:
                self._file.close()
            except OSError:
                pass
            os.truncate(self.path, start)
            self._file = open(self.path, "a+b")
            raise ColdStoreWriteFailureError(
                f"append of {len(records)} records failed: {exc}"
            ) from exc
        offset = start
        for record, line in zip(records, lines):
            self._index[record.path] = offset
            offset += len(line)

    def delete(self, path: str) -> None:
        """Tombstone ``path``; the tombstone is flushed before returning."""
        if path not in self._index:
            raise NotFoundError(f"{path} not in cold store")
        self._file.seek(0, os.SEEK_END)
        self._file.write(_TOMB_PREFIX + path.encode("utf-8") + b"\n")
        self._file.flush()
        del self._index[path]

    def compact(self) -> int:
        """Rewrite the file with live records only, preserving append order.

        Returns the live record count. On failure the original file is left
        intact and CompactionAbortedError is raised.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "wb") as out:
                for _, offset in sorted(self._index.items(), key=lambda kv: kv[1]):
                    self._file.seek(offset)
                    out.write(self._file.readline())
                out.flush()
                os.fsync(out.fileno())
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CompactionAbortedError(f"compaction of {self.path} failed: {exc}") from exc
        os.replace(tmp, self.path)
        self._file.close()
        self._file = open(self.path, "a+b")
        self._rebuild_index()
        logger.info("compacted %s down to %d live records", self.path, len(self._index))
        return len(self._index)

    def close(self) -> None:
        self._file.close()
