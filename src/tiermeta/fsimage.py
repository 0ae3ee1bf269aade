"""Checkpoint image: a complete snapshot of the hot-tier namespace.

File layout: a single header line ``FSIMAGE v3 <record_count> <clock>``
followed by one record line per file (see :mod:`tiermeta.recordio`), sorted
by path so that saving the same namespace twice yields byte-identical files.
``clock`` is the logical clock at the checkpoint: every tick taken before it,
a DELETE's included, is below it, so a restart issues none of them again.
Writes go to a temp file in the destination directory and are renamed into
place, so a partially written image is never visible at the destination path.
A version 3 record line ends in the creation tick where a version 2 line
listed the blocks; an image of any other version is refused, not converted.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import recordio
from .errors import CorruptImageError
from .namespace import HotStore

HEADER_MAGIC = "FSIMAGE"
FORMAT_VERSION = "v3"


def save_fsimage(store: HotStore, dest: str | Path, clock: int) -> None:
    """Atomically write a checkpoint of ``store``, taken at tick ``clock``, to ``dest``."""
    dest = Path(dest)
    tmp = dest.with_name(dest.name + ".tmp")
    records = sorted(store, key=lambda r: r.path)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(f"{HEADER_MAGIC} {FORMAT_VERSION} {len(records)} {clock}\n")
            for record in records:
                f.write(recordio.encode_record(record) + "\n")
            f.flush()
            os.fsync(f.fileno())
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, dest)


def _read_header(f, src: str | Path) -> tuple[int, int]:
    """The record count and clock in the header of image ``src``, open as ``f``."""
    header = f.readline()
    if not header.endswith(b"\n"):
        raise CorruptImageError(f"{src}: truncated or missing header")
    text = header[:-1].decode("utf-8", "replace")
    parts = text.split(" ")
    if parts[0] != HEADER_MAGIC:
        raise CorruptImageError(f"{src}: not an image file: {text!r}")
    if len(parts) < 2 or parts[1] != FORMAT_VERSION:
        raise CorruptImageError(f"{src}: unsupported version in header {text!r}")
    if len(parts) != 4:
        raise CorruptImageError(
            f"{src}: header is not '{HEADER_MAGIC} {FORMAT_VERSION} <count> <clock>': {text!r}"
        )
    try:
        return (recordio.parse_non_negative_int(parts[2], "record count"),
                recordio.parse_non_negative_int(parts[3], "clock"))
    except ValueError as exc:
        raise CorruptImageError(f"{src}: header: {exc}") from None


def read_clock(src: str | Path) -> int:
    """The clock stored in the header of the image ``src``."""
    with open(src, "rb") as f:
        return _read_header(f, src)[1]


def load_fsimage(src: str | Path) -> HotStore:
    """Read a checkpoint back into a fresh hot store.

    Every record is decoded and checked: a line that is not UTF-8, that
    :func:`recordio.decode_record` refuses (another geometry, a creation tick
    after ``last_access``) or whose ``last_access`` is not below the clock
    fails the load and is named.
    """
    store = HotStore()
    with open(src, "rb") as f:
        expected, clock = _read_header(f, src)
        loaded = 0
        for lineno, line in enumerate(f, start=2):
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
            if record.path in store:
                raise CorruptImageError(f"{src}: line {lineno}: duplicate path {record.path}")
            store.insert(record)
            loaded += 1
    if loaded != expected:
        raise CorruptImageError(f"{src}: header says {expected} records, file has {loaded}")
    return store
