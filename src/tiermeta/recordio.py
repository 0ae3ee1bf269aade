"""Record line codec shared by the checkpoint image and the cold store.

One record per line, UTF-8, LF, tab-separated fields:

    path <TAB> length <TAB> block_size <TAB> replication <TAB> last_access <TAB> count <TAB> blocks

``blocks`` is a comma-separated list of ``blockId@size@genStamp@node1;node2;...``
entries, or the empty string for a zero-length file. The format is meant to be
read with eyes and diffed with standard tools.
"""

from __future__ import annotations

from .namespace import BlockInfo, MetadataRecord

FIELD_COUNT = 7
LAST_ACCESS_FIELD = 4


def encode_record(record: MetadataRecord) -> str:
    """Serialize one record to its line form (no trailing newline)."""
    blocks = ",".join(
        f"{b.block_id}@{b.size}@{b.generation_stamp}@"
        + ";".join(str(n) for n in b.replicas)
        for b in record.blocks
    )
    return (
        f"{record.path}\t{record.length}\t{record.block_size}\t"
        f"{record.replication}\t{record.last_access}\t{record.count}\t{blocks}"
    )


def decode_record(line: str) -> MetadataRecord:
    """Parse one record line; raises ValueError on any malformation."""
    fields = line.split("\t")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} tab-separated fields, got {len(fields)}")
    path, length_s, bs_s, repl_s, la_s, count_s, blocks_s = fields
    if not path.startswith("/"):
        raise ValueError(f"record path is not absolute: {path!r}")
    length = _non_negative_int(length_s, "length")
    block_size = _non_negative_int(bs_s, "block_size")
    replication = _non_negative_int(repl_s, "replication")
    last_access = _non_negative_int(la_s, "last_access")
    count = _non_negative_int(count_s, "count")
    blocks: list[BlockInfo] = []
    if blocks_s:
        for part in blocks_s.split(","):
            pieces = part.split("@")
            if len(pieces) != 4:
                raise ValueError(f"malformed block entry: {part!r}")
            bid = _non_negative_int(pieces[0], "block_id")
            size = _non_negative_int(pieces[1], "block size")
            stamp = _non_negative_int(pieces[2], "generation_stamp")
            if not pieces[3]:
                raise ValueError(f"block {bid} has no replicas")
            replicas = tuple(_non_negative_int(n, "replica id") for n in pieces[3].split(";"))
            blocks.append(BlockInfo(bid, size, stamp, replicas))
    return MetadataRecord(
        path=path,
        length=length,
        block_size=block_size,
        replication=replication,
        blocks=tuple(blocks),
        last_access=last_access,
        count=count,
    )


def decode_last_access(line: bytes) -> int:
    """Read only the ``last_access`` of one encoded record line.

    Checks the field count and that one field; the rest is left to
    :func:`decode_record`. Raises ValueError on either fault.
    """
    fields = line.split(b"\t")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} tab-separated fields, got {len(fields)}")
    return _non_negative_int(fields[LAST_ACCESS_FIELD].decode("utf-8", "replace"), "last_access")


def _non_negative_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {text!r}") from None
    if value < 0:
        raise ValueError(f"{what} is negative: {value}")
    return value
