"""Checkpoint image: a complete snapshot of the hot-tier namespace.

File layout: a single header line ``FSIMAGE v1 <record_count>`` followed by
one record line per file (see :mod:`tiermeta.recordio`), sorted by path so
that saving the same namespace twice yields byte-identical files. Writes go
to a temp file in the destination directory and are renamed into place, so a
partially written image is never visible at the destination path.
"""

from __future__ import annotations

import os
from pathlib import Path

from . import recordio
from .errors import CorruptImageError
from .namespace import HotStore

HEADER_MAGIC = "FSIMAGE"
FORMAT_VERSION = "v1"


def save_fsimage(store: HotStore, dest: str | Path) -> None:
    """Atomically write a checkpoint of ``store`` to ``dest``."""
    dest = Path(dest)
    tmp = dest.with_name(dest.name + ".tmp")
    records = sorted(store, key=lambda r: r.path)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write(f"{HEADER_MAGIC} {FORMAT_VERSION} {len(records)}\n")
            for record in records:
                f.write(recordio.encode_record(record) + "\n")
            f.flush()
            os.fsync(f.fileno())
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, dest)


def load_fsimage(src: str | Path) -> HotStore:
    """Read a checkpoint back into a fresh hot store.

    Every record is decoded and checked: one that :func:`recordio.decode_record`
    refuses (a block list that is not the derived one, another geometry) fails
    the load and names its line.
    """
    store = HotStore()
    with open(src, "r", encoding="utf-8", newline="\n") as f:
        header = f.readline()
        if not header.endswith("\n"):
            raise CorruptImageError(f"{src}: truncated or missing header")
        parts = header.rstrip("\n").split(" ")
        if len(parts) != 3 or parts[0] != HEADER_MAGIC:
            raise CorruptImageError(f"{src}: not an image file: {header.rstrip()!r}")
        if parts[1] != FORMAT_VERSION:
            raise CorruptImageError(f"{src}: unsupported version {parts[1]!r}")
        try:
            expected = int(parts[2])
        except ValueError:
            raise CorruptImageError(f"{src}: bad record count {parts[2]!r}") from None
        loaded = 0
        for lineno, line in enumerate(f, start=2):
            if not line.endswith("\n"):
                raise CorruptImageError(f"{src}: line {lineno}: truncated record")
            try:
                record = recordio.decode_record(line[:-1])
            except ValueError as exc:
                raise CorruptImageError(f"{src}: line {lineno}: {exc}") from None
            if record.path in store:
                raise CorruptImageError(f"{src}: line {lineno}: duplicate path {record.path}")
            store.insert(record)
            loaded += 1
    if loaded != expected:
        raise CorruptImageError(f"{src}: header says {expected} records, file has {loaded}")
    return store
