"""Record line codec shared by the checkpoint image and the cold store.

One record per line, UTF-8, LF, tab-separated fields:

    path <TAB> length <TAB> block_size <TAB> replication <TAB> last_access <TAB> count <TAB> created

``created`` is the file's creation tick, and 0 for a zero-length file. The
line stores no block list: a record's blocks follow from its length and
creation tick (see :class:`~tiermeta.namespace.MetadataRecord`), and
``tiermeta inspect --path`` prints them. The format is meant to be read with
eyes and diffed with standard tools.

Every record has the same geometry (see :mod:`tiermeta.namespace`), so the
``block_size`` and ``replication`` fields always hold ``BLOCK_SIZE`` and
``REPLICATION``, and a line with any other value is refused.

:func:`decode_record` checks one line. :func:`decode_lines` checks many at
once with a pattern built from the same rules and takes exactly the lines
that :func:`decode_record` takes, so a caller that gets None from it can
rerun the lines one at a time to name the first bad one.
"""

from __future__ import annotations

import re
from itertools import compress
from operator import le, not_

from .errors import FileTooLargeError
from .namespace import (
    BLOCK_SIZE,
    FORBIDDEN_PATH_CHARS,
    MAX_BLOCKS_PER_FILE,
    REPLICATION,
    MetadataRecord,
    block_count,
    validate_path,
)

FIELD_COUNT = 7
# bytes of whole lines an open reads from fsimage or fsimage2 at a time; at
# 256 KiB the cold index scan's traced peak was three times the table it built
READ_CHUNK = 32 * 1024
MAX_INT = 2**63 - 1  # the largest value an array("q") column holds
_MAX_LENGTH = MAX_BLOCKS_PER_FILE * BLOCK_SIZE  # the longest file block_count allows
_BLOCK_SIZE_TEXT = str(BLOCK_SIZE)
_REPLICATION_TEXT = str(REPLICATION)
_GEOMETRY = f"\t{BLOCK_SIZE}\t{REPLICATION}\t"
# An int as str writes it: no sign, no leading zero, ASCII digits (\d takes
# any Unicode digit), and at most as many digits as MAX_INT.
_MORE_DIGITS = f"[0-9]{{0,{len(str(MAX_INT)) - 1}}}"
_INT = f"(0|[1-9]{_MORE_DIGITS})"
_PATH = "(/[^" + "".join(f"\\x{ord(c):02x}" for c in sorted(FORBIDDEN_PATH_CHARS)) + "]*)"
# one whole record line, in encode_record's field order; the count is at least 1
_RECORD_LINE = re.compile(
    f"^{_PATH}\t{_INT}{re.escape(_GEOMETRY)}{_INT}\t([1-9]{_MORE_DIGITS})\t{_INT}$", re.M)


def encode_record(record: tuple[str, int, int, int, int]) -> str:
    """The line of a record (no trailing newline): a :class:`MetadataRecord`,
    or a :meth:`~tiermeta.namespace.HotStore.rows` row in its field order."""
    path, length, created, last_access, count = record
    return f"{path}\t{length}{_GEOMETRY}{last_access}\t{count}\t{created}"


def decode_record(line: str) -> MetadataRecord:
    """Parse one record line; raises ValueError on any malformation.

    The path must pass :func:`validate_path`, as every path the store takes
    in does. The block size and replication must be the fixed ones, the
    length within the per-file block limit, the count at least 1, and the
    creation tick 0 for an empty file and never after ``last_access``. Every
    integer is in the one form ``str`` writes, so
    ``encode_record(decode_record(line)) == line``.
    """
    fields = line.split("\t")
    if len(fields) != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} tab-separated fields, got {len(fields)}")
    path, length_s, bs_s, repl_s, la_s, count_s, created_s = fields
    validate_path(path)
    length = parse_non_negative_int(length_s, "length")
    if bs_s != _BLOCK_SIZE_TEXT:
        raise ValueError(f"block_size is {bs_s!r}, not the fixed {BLOCK_SIZE}")
    if repl_s != _REPLICATION_TEXT:
        raise ValueError(f"replication is {repl_s!r}, not the fixed {REPLICATION}")
    last_access = parse_non_negative_int(la_s, "last_access")
    count = parse_non_negative_int(count_s, "count")
    if not count:
        raise ValueError("count is 0, but a record counts its own creation")
    created = parse_non_negative_int(created_s, "created")
    try:
        block_count(length)
    except FileTooLargeError as exc:
        raise ValueError(str(exc)) from None
    if created and not length:
        raise ValueError(f"created is {created} for a zero-length file, not 0")
    if created > last_access:
        raise ValueError(f"created {created} is after last_access {last_access}")
    return MetadataRecord(path, length, created, last_access, count)


def decode_lines(text: str) -> tuple[tuple[str, ...], list[int], list[int], list[int],
                                      list[int]] | None:
    """The columns ``(paths, lengths, created, last_access, counts)`` of the
    record lines in ``text``, one or more, each ending in a newline; None if
    :func:`decode_record` refuses any of them.

    The bulk form of :func:`decode_record`: one pattern match over the whole
    text, then checks over each column, with no Python call per line.
    """
    rows = _RECORD_LINE.findall(text)
    if not rows or len(rows) != text.count("\n"):  # some line did not match
        return None
    paths, length_s, la_s, count_s, created_s = zip(*rows)
    lengths, last_access, counts, created = (list(map(int, column))
                                             for column in (length_s, la_s, count_s, created_s))
    if (max(lengths) > _MAX_LENGTH or max(last_access) > MAX_INT or max(counts) > MAX_INT
            or any(compress(created, map(not_, lengths)))  # created 0 for an empty file
            or not all(map(le, created, last_access))):
        return None
    return paths, lengths, created, last_access, counts


def _is_decimal(text: str) -> bool:
    """ASCII digits in the one form ``str`` writes: no sign, no leading zero."""
    return text.isdigit() and text.isascii() and (text[0] != "0" or text == "0")


def parse_non_negative_int(text: str, what: str) -> int:
    """An on-disk int (record field, edit length or tick) in the form ``str``
    writes, up to ``MAX_INT``; raises ValueError naming ``what`` otherwise."""
    if _is_decimal(text):
        if len(text) < 19 or len(text) == 19 and int(text) <= MAX_INT:  # no int() of huge text
            return int(text)
        raise ValueError(f"{what} is above {MAX_INT}: {text}")
    if text.startswith("-") and _is_decimal(text[1:]):
        raise ValueError(f"{what} is negative: {text}")
    raise ValueError(f"{what} is not an integer: {text!r}")
