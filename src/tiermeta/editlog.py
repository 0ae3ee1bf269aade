"""Edits log: incremental namespace modifications, replayable over a checkpoint.

One operation per line, UTF-8, LF, space-separated:

    CREATE <path> <length> <tick>
    ACCESS <path> <tick>
    DELETE <path> <tick>

Ticks are strictly increasing within a log. Workload trace files use the
same line format, so trace replay and edits replay share this parser.

An append ends with its newline, so a last line without one is an append
that a crash cut short. It was never acknowledged, and reading the log
truncates it away. A failed append is cut back off the file at once.
"""

from __future__ import annotations

import logging
import os
from contextlib import suppress
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import CorruptLogError, OutOfOrderEditError
from .recordio import parse_non_negative_int

logger = logging.getLogger(__name__)

OP_CREATE = "CREATE"
OP_ACCESS = "ACCESS"
OP_DELETE = "DELETE"


class OpEvent(NamedTuple):
    """One logged operation; ``length`` is meaningful for CREATE only.

    A tuple, not a frozen dataclass: replay builds one per trace line, and a
    frozen dataclass's ``__init__`` costs two thirds of a line's parse."""

    op: str
    path: str
    tick: int
    length: int = 0

    def encode(self) -> str:
        if self.op == OP_CREATE:
            return f"{OP_CREATE} {self.path} {self.length} {self.tick}"
        return f"{self.op} {self.path} {self.tick}"


def parse_op_line(line: str) -> OpEvent:
    """Parse one log/trace line; raises ValueError with the reason."""
    tokens = line.split(" ")
    op = tokens[0]
    if op == OP_CREATE:
        if len(tokens) != 4:
            raise ValueError(f"CREATE takes path, length, tick: {line!r}")
        length = parse_non_negative_int(tokens[2], "length")
        tick = parse_non_negative_int(tokens[3], "tick")
        return OpEvent(OP_CREATE, tokens[1], tick, length)
    if op in (OP_ACCESS, OP_DELETE):
        if len(tokens) != 3:
            raise ValueError(f"{op} takes path, tick: {line!r}")
        tick = parse_non_negative_int(tokens[2], "tick")
        return OpEvent(op, tokens[1], tick)
    raise ValueError(f"unknown operation {op!r}")


class EditsLog:
    """Append-only operation log backed by one file.

    :meth:`entries` reads the whole log, truncating a torn last line (one
    with no newline), and leaves :attr:`last_tick` at the last entry's tick,
    so the strictly-increasing append precondition survives restarts. A log
    that holds entries refuses :meth:`append` until they have been read.

    :attr:`entry_count` is how many entries the file holds, kept with no
    read: :meth:`entries` sets it, :meth:`append` adds one and :meth:`reset`
    zeroes it. The store checkpoints by it (see ``tiering``).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.last_tick = -1
        self.entry_count = 0
        self._writer = None
        self._end = 0  # the file's length while _writer is open, kept with no syscall
        self._unread = self.path.exists() and self.path.stat().st_size > 0

    def append(self, event: OpEvent) -> None:
        if self._unread:
            raise OutOfOrderEditError(f"{self.path}: read its entries before appending")
        if event.tick <= self.last_tick:
            raise OutOfOrderEditError(
                f"tick {event.tick} does not advance the log (last was {self.last_tick})"
            )
        if self._writer is None:
            self._writer = open(self.path, "ab")
            self._end = self._writer.tell()
        data = (event.encode() + "\n").encode("utf-8")
        try:
            self._writer.write(data)
            self._writer.flush()
        except OSError:
            with suppress(OSError):  # closing flushes what is left, and may fail again
                self._writer.close()
            self._writer = None
            os.truncate(self.path, self._end)
            raise
        self._end += len(data)
        self.last_tick = event.tick
        self.entry_count += 1

    def entries(self) -> Iterator[OpEvent]:
        """Yield all logged events in order, validating as it goes."""
        if not self.path.exists():
            return
        last = -1
        offset = 0
        count = 0
        with open(self.path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.endswith(b"\n"):
                    logger.warning("%s: dropping a torn last line of %d bytes",
                                   self.path, len(line))
                    os.truncate(self.path, offset)
                    break
                offset += len(line)
                try:
                    event = parse_op_line(line[:-1].decode("utf-8"))
                except ValueError as exc:  # UnicodeDecodeError included
                    raise CorruptLogError(f"{self.path}: line {lineno}: {exc}") from None
                if event.tick <= last:
                    raise CorruptLogError(
                        f"{self.path}: line {lineno}: tick {event.tick} not increasing"
                    )
                last = event.tick
                count += 1
                yield event
        self.last_tick = last
        self.entry_count = count
        self._unread = False

    def reset(self) -> None:
        """Drop all entries, e.g. after a checkpoint made them redundant."""
        self.close()
        open(self.path, "w").close()
        self.last_tick = -1
        self.entry_count = 0
        self._unread = False

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
