"""Checkpoint image: the hot tier, and the commit point of both tiers.

File layout: a single header line ``FSIMAGE v4 <record_count> <clock>
<cold_end>`` followed by one record line per file (see
:mod:`tiermeta.recordio`), sorted by path so that saving the same namespace
twice yields byte-identical files. ``clock`` is the logical clock at the
checkpoint: every tick taken before it, a DELETE's included, is below it.
``cold_end`` is the length of the cold file ``fsimage2``, fsynced before the
image is written; the image covers that prefix and nothing after it.
Writes go to a temp file in the destination directory and are renamed into
place, so a partially written image is never visible at the destination path.
An image of any other version is refused, not converted.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import recordio
from .errors import CorruptImageError, PathExistsError
from .namespace import HotStore

HEADER_MAGIC = "FSIMAGE"
FORMAT_VERSION = "v4"


def save_fsimage(store: HotStore, dest: str | Path, clock: int, cold_end: int) -> None:
    """Atomically write a checkpoint of ``store``, taken at tick ``clock``, to
    ``dest``; it commits the first ``cold_end`` bytes of the cold file."""
    dest = Path(dest)
    tmp = dest.with_name(dest.name + ".tmp")
    paths = sorted(store.paths())
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(f"{HEADER_MAGIC} {FORMAT_VERSION} {len(paths)} {clock} {cold_end}\n")
            for row in store.rows(paths):  # no record built
                f.write(recordio.encode_record(row) + "\n")
            f.flush()
            os.fsync(f.fileno())
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, dest)


def _read_header(f, src: str | Path) -> tuple[int, int, int]:
    """The record count, clock and cold end in the header of image ``src``,
    open as ``f``."""
    header = f.readline()
    if not header.endswith(b"\n"):
        raise CorruptImageError(f"{src}: truncated or missing header")
    text = header[:-1].decode("utf-8", "replace")
    parts = text.split(" ")
    if parts[0] != HEADER_MAGIC:
        raise CorruptImageError(f"{src}: not an image file: {text!r}")
    if len(parts) < 2 or parts[1] != FORMAT_VERSION:
        raise CorruptImageError(f"{src}: unsupported version in header {text!r}")
    if len(parts) != 5:
        raise CorruptImageError(
            f"{src}: header is not '{HEADER_MAGIC} {FORMAT_VERSION} <count> <clock> <cold_end>':"
            f" {text!r}"
        )
    try:
        return (recordio.parse_non_negative_int(parts[2], "record count"),
                recordio.parse_non_negative_int(parts[3], "clock"),
                recordio.parse_non_negative_int(parts[4], "cold_end"))
    except ValueError as exc:
        raise CorruptImageError(f"{src}: header: {exc}") from None


def read_commit(src: str | Path) -> tuple[int, int]:
    """The clock and the cold end stored in the header of the image ``src``."""
    with open(src, "rb") as f:
        return _read_header(f, src)[1:]


def load_fsimage(src: str | Path) -> HotStore:
    """Read a checkpoint back into a fresh hot store.

    Every record is decoded and checked: a line that is not UTF-8, that
    :func:`recordio.decode_record` refuses (another geometry, a creation tick
    after ``last_access``) or whose ``last_access`` is not below the clock
    fails the load and is named. The records are read
    ``recordio.READ_CHUNK`` bytes of whole lines at a time, and each chunk is
    decoded and inserted in bulk
    (:func:`recordio.decode_lines`, :meth:`HotStore.insert_columns`); a chunk
    that fails any bulk check is read again one line at a time, which finds
    the bad line and names it.
    """
    store = HotStore()
    with open(src, "rb") as f:
        expected, clock, _ = _read_header(f, src)
        lineno = 2
        while lines := f.readlines(recordio.READ_CHUNK):
            if not _insert_chunk(store, lines, clock):
                _insert_lines(store, lines, lineno, clock, src)
            lineno += len(lines)
    if len(store) != expected:
        raise CorruptImageError(f"{src}: header says {expected} records, file has {len(store)}")
    return store


def _insert_chunk(store: HotStore, lines: list[bytes], clock: int) -> bool:
    """Insert the records of ``lines`` in bulk; False, with nothing inserted,
    if any line is torn or bad, or its path taken."""
    if not lines[-1].endswith(b"\n"):
        return False
    try:
        columns = recordio.decode_lines(b"".join(lines).decode("utf-8"))
    except UnicodeDecodeError:
        return False
    if columns is None or max(columns[3]) >= clock:  # every last_access below the clock
        return False
    try:
        store.insert_columns(*columns)
    except PathExistsError:
        return False
    return True


def _insert_lines(store: HotStore, lines: list[bytes], lineno: int, clock: int,
                  src: str | Path) -> None:
    """Insert the records of ``lines``, the first at ``lineno``, one at a time;
    the first bad line fails the load and is named."""
    for lineno, line in enumerate(lines, start=lineno):
        if not line.endswith(b"\n"):
            raise CorruptImageError(f"{src}: line {lineno}: truncated record")
        try:
            record = recordio.decode_record(line[:-1].decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError included
            raise CorruptImageError(f"{src}: line {lineno}: {exc}") from None
        if record.last_access >= clock:
            raise CorruptImageError(
                f"{src}: line {lineno}: last_access {record.last_access} "
                f"is not below the clock {clock}"
            )
        try:
            store.insert(record)
        except PathExistsError:
            raise CorruptImageError(
                f"{src}: line {lineno}: duplicate path {record.path}") from None
