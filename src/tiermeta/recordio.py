"""Record line codec shared by the checkpoint image and the cold store.

One record per line, UTF-8, LF, tab-separated fields:

    path <TAB> length <TAB> block_size <TAB> replication <TAB> last_access <TAB> count <TAB> blocks

``blocks`` is a comma-separated list of ``blockId@size@genStamp@node1;node2;...``
entries, or the empty string for a zero-length file. The format is meant to be
read with eyes and diffed with standard tools.

Every record has the same geometry (see :mod:`tiermeta.namespace`), so the
``block_size`` and ``replication`` fields always hold ``BLOCK_SIZE`` and
``REPLICATION``, and a line with any other value is refused. A record does
not store its blocks (see :class:`~tiermeta.namespace.MetadataRecord`): the
writer derives the list, and the reader derives it again from the length and
the first block id and requires the two to be equal.
"""

from __future__ import annotations

from .errors import FileTooLargeError
from .namespace import (
    BLOCK_INDEX_BITS,
    BLOCK_SIZE,
    DATANODE_COUNT,
    REPLICATION,
    MetadataRecord,
    block_count,
)

FIELD_COUNT = 7
_BLOCK_PARTS = ("block id", "size", "generation stamp", "replicas")
_REPLICAS = range(min(REPLICATION, DATANODE_COUNT))
_BLOCK_SIZE_TEXT = str(BLOCK_SIZE)
_REPLICATION_TEXT = str(REPLICATION)


def format_blocks(length: int, created: int) -> str:
    """The ``blocks`` field of a record: :func:`~tiermeta.namespace.split_blocks`
    in line form, written from the same arithmetic without building blocks."""
    n_blocks = block_count(length, BLOCK_SIZE)
    first = created << BLOCK_INDEX_BITS
    last = n_blocks - 1
    return ",".join([
        f"{first + i}@{BLOCK_SIZE if i < last else length - last * BLOCK_SIZE}@{created}@"
        + ";".join([str((first + i + j) % DATANODE_COUNT) for j in _REPLICAS])
        for i in range(n_blocks)
    ])


def encode_record(record: MetadataRecord) -> str:
    """Serialize one record to its line form (no trailing newline)."""
    blocks = format_blocks(record.length, record.created)
    return (
        f"{record.path}\t{record.length}\t{BLOCK_SIZE}\t"
        f"{REPLICATION}\t{record.last_access}\t{record.count}\t{blocks}"
    )


def decode_record(line: str) -> MetadataRecord:
    """Parse one record line; raises ValueError on any malformation.

    The block size and replication must be the fixed ones, and the creation
    tick is read from the first block id. The block list must then equal,
    byte for byte, the one that tick and the length give, so every value on
    the line is checked and ``encode_record(decode_record(line)) == line``.
    """
    fields = line.split("\t")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} tab-separated fields, got {len(fields)}")
    path, length_s, bs_s, repl_s, la_s, count_s, blocks_s = fields
    if not path.startswith("/"):
        raise ValueError(f"record path is not absolute: {path!r}")
    length = parse_non_negative_int(length_s, "length")
    if bs_s != _BLOCK_SIZE_TEXT:
        raise ValueError(f"block_size is {bs_s!r}, not the fixed {BLOCK_SIZE}")
    if repl_s != _REPLICATION_TEXT:
        raise ValueError(f"replication is {repl_s!r}, not the fixed {REPLICATION}")
    last_access = parse_non_negative_int(la_s, "last_access")
    count = parse_non_negative_int(count_s, "count")
    try:
        n_blocks = block_count(length, BLOCK_SIZE)
    except FileTooLargeError as exc:
        raise ValueError(str(exc)) from None
    listed = blocks_s.count(",") + 1 if blocks_s else 0
    if listed != n_blocks:
        raise ValueError(
            f"length {length} takes {n_blocks} blocks of {BLOCK_SIZE}, the line lists {listed}"
        )
    created = 0
    if n_blocks:
        first = blocks_s.split("@", 1)[0]
        if not _is_decimal(first):
            raise ValueError(f"malformed block entry: {blocks_s.split(',', 1)[0]!r}")
        created = int(first) >> BLOCK_INDEX_BITS
        if created == last_access:
            created = last_access  # the same object, as in a record never reopened
        expected = format_blocks(length, created)
        if blocks_s != expected:
            raise ValueError(_block_mismatch(blocks_s, expected))
    return MetadataRecord(path, length, created, last_access, count)


def _block_mismatch(got: str, expected: str) -> str:
    """Name the first entry of a block list that differs from the derived one."""
    for entry, want in zip(got.split(","), expected.split(",")):
        if entry == want:
            continue
        parts = entry.split("@")
        if len(parts) != len(_BLOCK_PARTS):
            return f"malformed block entry: {entry!r}"
        if not parts[-1]:
            return f"malformed block entry: {entry!r}: no replicas"
        for name, part, derived in zip(_BLOCK_PARTS, parts, want.split("@")):
            if part != derived:
                return f"malformed block entry: {entry!r}: {name} is not the derived {derived!r}"
    return f"block list is not the derived {expected!r}"


def _is_decimal(text: str) -> bool:
    """ASCII digits in the one form ``str`` writes: no sign, no leading zero."""
    return text.isdigit() and text.isascii() and (text[0] != "0" or text == "0")


def parse_non_negative_int(text: str, what: str) -> int:
    """An on-disk int (record field, edit length or tick) in the form ``str``
    writes; raises ValueError naming ``what`` otherwise."""
    if _is_decimal(text):
        return int(text)
    if text.startswith("-") and _is_decimal(text[1:]):
        raise ValueError(f"{what} is negative: {text}")
    raise ValueError(f"{what} is not an integer: {text!r}")
