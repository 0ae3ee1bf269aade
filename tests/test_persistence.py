"""Record codec, checkpoint image, edits log, cold store."""

import gc
import os
import random
import re
import sys
import tracemalloc
from array import array
from itertools import count

import pytest
from conftest import FailingFile, new_record
from hypothesis import example, given, settings, strategies as st

from tiermeta import coldstore, fsimage, recordio
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import EditsLog, OpEvent, parse_op_line
from tiermeta.errors import (
    ColdStoreWriteFailureError,
    CompactionAbortedError,
    CorruptImageError,
    CorruptLogError,
    NotFoundError,
    OutOfOrderEditError,
    PathExistsError,
)
from tiermeta.fsimage import load_fsimage, read_commit, save_fsimage
from tiermeta.namespace import (
    BLOCK_SIZE,
    MAX_BLOCKS_PER_FILE,
    REPLICATION,
    HotStore,
    MetadataRecord,
)
from tiermeta.server import COLD_NAME, EDITS_NAME, IMAGE_NAME, open_store
from tiermeta.tiering import TieredStore, TieringConfig
from tiermeta.recordio import (
    decode_lines,
    decode_record,
    encode_record,
    parse_non_negative_int,
)

# -- record lines ----------------------------------------------------------

GOLDEN_LINE = "/data/report.txt\t136314880\t67108864\t3\t50\t2\t42"
# the same record as version 2 wrote it, with its block list in place of the tick
V2_GOLDEN_LINE = (
    "/data/report.txt\t136314880\t67108864\t3\t50\t2\t"
    "44040192@67108864@42@0;1,44040193@67108864@42@1;0,44040194@2097152@42@0;1"
)


def test_record_line_format_is_pinned():
    store = HotStore()  # every record: 64 MiB blocks, replication 3, 2 nodes
    store.create("/data/report.txt", 130 * 1024 * 1024, tick=42)
    store.access("/data/report.txt", tick=50)
    record = store.get("/data/report.txt")
    assert encode_record(record) == GOLDEN_LINE
    assert [encode_record(row) for row in store.rows(["/data/report.txt"])] == [GOLDEN_LINE]
    assert decode_record(GOLDEN_LINE) == record


def test_zero_length_record_is_created_at_0():
    store = HotStore()
    store.create("/a/empty", 0, tick=9)
    record = store.get("/a/empty")
    line = encode_record(record)
    assert line == "/a/empty\t0\t67108864\t3\t9\t1\t0"
    assert decode_record(line) == record


@st.composite
def record_strategy(draw):
    path = draw(st.from_regex(r"/[a-z0-9_.\-/]{1,30}", fullmatch=True))
    n_blocks = draw(st.integers(min_value=0, max_value=5))
    tail = draw(st.integers(min_value=1, max_value=BLOCK_SIZE))
    length = 0 if n_blocks == 0 else (n_blocks - 1) * BLOCK_SIZE + tail
    tick = draw(st.integers(min_value=0, max_value=2**40))
    return MetadataRecord(
        path=path,
        length=length,
        created=tick if length else 0,
        last_access=tick + draw(st.integers(min_value=0, max_value=2**40)),
        count=draw(st.integers(min_value=1, max_value=10**6)),
    )


@given(record_strategy())
def test_record_round_trip(record):
    line = encode_record(record)
    assert line.split("\t")[6] == str(record.created)
    assert decode_record(line) == record


TOO_LONG = MAX_BLOCKS_PER_FILE * BLOCK_SIZE + 1


@pytest.mark.parametrize(
    "line, what",
    [
        ("/a\t1\t2", "fields"),
        ("/a\t1\t67108864\t3\t1\t1", "expected 7 tab-separated fields, got 6"),
        ("/a\t1\t67108864\t3\t1\t1\t1\t1", "expected 7 tab-separated fields, got 8"),
        ("notabsolute\t1\t67108864\t3\t1\t1\t1", "absolute"),
        ("/a\tx\t67108864\t3\t1\t1\t1", "length is not an integer: 'x'"),
        ("/a\t-1\t67108864\t3\t1\t1\t1", "length is negative: -1"),
        (f"/a\t{TOO_LONG}\t67108864\t3\t1\t1\t1",
         "1048577 blocks exceeds the per-file limit of 1048576"),
        ("/a\t1\t1024\t3\t1\t1\t1", "block_size is '1024', not the fixed 67108864"),
        ("/a\t1\t67108864\t2\t1\t1\t1", "replication is '2', not the fixed 3"),
        ("/a\t1\t67108864\t3\tx\t1\t1", "last_access is not an integer: 'x'"),
        ("/a\t1\t67108864\t3\t9223372036854775808\t1\t1",
         "last_access is above 9223372036854775807: 9223372036854775808"),
        ("/a\t1\t67108864\t3\t1\t-1\t1", "count is negative: -1"),
        ("/a\t1\t67108864\t3\t1\tx\t1", "count is not an integer: 'x'"),
        ("/a\t1\t67108864\t3\t1\t0\t1", "count is 0, but a record counts its own creation"),
        ("/a\t1\t67108864\t3\t1\t1\tx", "created is not an integer: 'x'"),
        ("/a\t1\t67108864\t3\t1\t1\t", "created is not an integer: ''"),
        ("/a\t1\t67108864\t3\t1\t1\t-1", "created is negative: -1"),
        ("/a\t1\t67108864\t3\t1\t1\t01", "created is not an integer: '01'"),
        ("/a\t1\t67108864\t3\t1\t1\t2", "created 2 is after last_access 1"),
        ("/a\t0\t67108864\t3\t5\t1\t5", "created is 5 for a zero-length file, not 0"),
        (V2_GOLDEN_LINE, "created is not an integer: '44040192@67108864@42@0;1,"),
        # paths that no request, trace line or edit can name
        ("/a b\t1\t67108864\t3\t1\t1\t1", "path contains whitespace or NUL: '/a b'"),
        ("/a\x00\t1\t67108864\t3\t1\t1\t1", "path contains whitespace or NUL: '/a\\x00'"),
        ("/a\r\t1\t67108864\t3\t1\t1\t1", "path contains whitespace or NUL: '/a\\r'"),
    ],
)
def test_record_decode_rejects(line, what):
    with pytest.raises(ValueError, match=re.escape(what)):
        decode_record(line)


def test_decode_accepts_the_longest_file():
    line = f"/a\t{TOO_LONG - 1}\t67108864\t3\t1\t1\t1"
    assert encode_record(decode_record(line)) == line


def test_decode_rejects_ints_not_written_in_plain_digits():
    with pytest.raises(ValueError, match="length is not an integer: '1_0'"):
        decode_record("/a\t1_0\t 64\t3\t+5\t1\t0")
    for text in (" 64", "+5", "\u0663", "07"):
        with pytest.raises(ValueError, match="last_access is not an integer"):
            decode_record(f"/a\t0\t67108864\t3\t{text}\t1\t0")
        with pytest.raises(ValueError, match="created is not an integer"):
            decode_record(f"/a\t10\t67108864\t3\t99\t1\t{text}")


@st.composite
def one_character_off(draw, line):
    i = draw(st.integers(min_value=0, max_value=len(line)))
    char = draw(st.one_of(st.sampled_from("0123456789\t/ -+_\u0663"), st.characters()))
    how = draw(st.sampled_from(("replace", "insert", "delete")))
    if how == "insert":
        return line[:i] + char + line[i:]
    if how == "replace":
        return line[:i] + char + line[i + 1:]
    return line[:i] + line[i + 1:]


@given(one_character_off(GOLDEN_LINE))
@example(GOLDEN_LINE.replace("\t50\t", "\t05\t"))
@example(GOLDEN_LINE.replace("\t3\t", "\t4\t"))
@example(GOLDEN_LINE[:-2] + "51")
def test_every_line_decode_accepts_encodes_back_to_itself(line):
    columns = decode_lines(line + "\n")  # the bulk decoder takes exactly the same lines
    try:
        record = decode_record(line)
    except ValueError:
        assert columns is None
        return
    assert encode_record(record) == line
    assert [MetadataRecord(*row) for row in zip(*columns)] == [record]


def test_decoded_ints_reuse_equal_ints_of_their_line():
    line = "/one\t100\t67108864\t3\t42\t1\t42"
    one = decode_record(line)
    assert one.created is one.last_access
    (block,) = one.blocks
    assert block.size is one.length
    assert block.generation_stamp is one.last_access
    assert encode_record(one) == line


def test_records_hold_only_strings_and_ints(tmp_path):
    store = TieredStore(ColdStore(tmp_path / "c2"), TieringConfig(threshold_records=2))
    store.create("/t/old", 130 * 1024 * 1024)
    store.create("/t/new", 10)  # its pass sends "/t/old" cold
    store.checkpoint(tmp_path / "img")
    created = store.hot.get("/t/new")
    promoted = store.open("/t/old")
    loaded = load_fsimage(tmp_path / "img").get("/t/new")
    store.close()
    assert store.metrics.counters()["promotions"] == 1 and loaded == created
    for record in (created, loaded, promoted):
        # a record refers to its class and to each field's value
        fields = [value for value in gc.get_referents(record) if value is not MetadataRecord]
        assert len(fields) == 5 and record.path in fields
        assert {type(value) for value in fields} == {str, int}, fields


def _traced_bytes(build, with_peak=False):
    """What ``build()`` returns and the bytes it leaves allocated; with
    ``with_peak``, also the most it held at once while it ran."""
    # A full collection also empties the free lists of small objects, so the
    # objects built are all counted and none freed while building is.
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        peak = tracemalloc.get_traced_memory()[1] - base
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
        return (result, retained, peak) if with_peak else (result, retained)
    finally:
        tracemalloc.stop()


def _objects_per_record(records):
    """Distinct objects the records hold, per record; a shared one counts once."""
    seen = set()
    for r in records:
        fields = (r, r.path, r.length, r.created, r.last_access, r.count)
        seen.update(map(id, fields))
    return len(seen) / len(records)


def test_loaded_store_holds_no_more_than_the_one_saved(tmp_path):
    def build():
        store = HotStore()
        for i in range(3000):
            store.create(f"/m/{i:06d}", 1000 + 37 * i, 5000 + i)
        for i in range(0, 3000, 3):
            store.access(f"/m/{i:06d}", 90000 + i)
        return store

    created, created_bytes = _traced_bytes(build)
    save_fsimage(created, tmp_path / "img", 100_000, 0)
    loaded, loaded_bytes = _traced_bytes(lambda: load_fsimage(tmp_path / "img"))
    assert list(loaded) == list(created)
    assert _objects_per_record(list(loaded)) <= _objects_per_record(list(created))
    # Allocator and dict-growth detail move the bytes by a few per cent either
    # way; unshared copies in the loaded records would add about 15%.
    assert loaded_bytes / len(loaded) <= 1.05 * created_bytes / len(created)


# -- checkpoint image ------------------------------------------------------

def sample_store(n=5):
    """A hot store of ``n + 1`` ticks' history; its clock is at ``n + 1``."""
    store = HotStore()
    for i in range(n):
        store.create(f"/s/{i:03d}", i * 1000, i)
    store.access("/s/001", n)
    return store


def test_image_round_trip(tmp_path):
    store = sample_store()
    dest = tmp_path / "img"
    save_fsimage(store, dest, 6, 123)
    loaded = load_fsimage(dest)
    assert {r.path: r for r in loaded} == {r.path: r for r in store}
    assert read_commit(dest) == (6, 123)


def test_image_save_load_save_is_byte_identical(tmp_path):
    store = sample_store()
    first, second = tmp_path / "img1", tmp_path / "img2"
    save_fsimage(store, first, 6, 123)
    save_fsimage(load_fsimage(first), second, *read_commit(first))
    assert first.read_bytes() == second.read_bytes()
    assert not (tmp_path / "img1.tmp").exists()


def test_image_empty_namespace_is_header_only(tmp_path):
    dest = tmp_path / "img"
    save_fsimage(HotStore(), dest, 7, 0)  # every record deleted, the clock kept
    assert dest.read_text() == "FSIMAGE v4 0 7 0\n"
    assert len(load_fsimage(dest)) == 0
    assert read_commit(dest) == (7, 0)


def test_image_failed_save_leaves_destination_intact(tmp_path, monkeypatch):
    dest = tmp_path / "img"
    save_fsimage(sample_store(), dest, 6, 0)
    original = dest.read_bytes()

    def boom(fd):
        raise OSError("no space")

    monkeypatch.setattr(os, "fsync", boom)
    with pytest.raises(OSError):
        save_fsimage(HotStore(), dest, 6, 0)
    assert dest.read_bytes() == original
    assert not (tmp_path / "img.tmp").exists()


def test_image_golden_bytes(tmp_path):
    store = HotStore()
    store.create("/a/empty", 0, tick=0)
    store.create("/data/report.txt", 130 * 1024 * 1024, tick=42)
    store.access("/data/report.txt", tick=50)
    dest = tmp_path / "img"
    save_fsimage(store, dest, 51, 1234)
    assert dest.read_text() == (
        "FSIMAGE v4 2 51 1234\n"
        "/a/empty\t0\t67108864\t3\t0\t1\t0\n"
        + GOLDEN_LINE + "\n"
    )


EMPTY_A = "/a\t0\t67108864\t3\t0\t1\t0\n"
# a record line after its path, with another geometry
BLOCK_SIZE_1024 = "\t10\t1024\t3\t5\t1\t5"
REPLICATION_2 = "\t10\t67108864\t2\t5\t1\t5"
ONE_BLOCK = "\t10\t67108864\t3\t5\t1\t5"


@pytest.mark.parametrize(
    "content, what",
    [
        ("", "header"),
        ("BOGUS v4 0 1 0\n", "not an image"),
        ("FSIMAGE v2 0 1\n", "unsupported version in header 'FSIMAGE v2 0 1'"),
        ("FSIMAGE v2 1 51\n" + V2_GOLDEN_LINE + "\n", "unsupported version"),
        ("FSIMAGE v3 0 1\n", "unsupported version in header 'FSIMAGE v3 0 1'"),
        ("FSIMAGE v9 0 1 0\n", "version"),
        ("FSIMAGE v1 0\n", "unsupported version in header 'FSIMAGE v1 0'"),
        ("FSIMAGE\n", "version"),
        ("FSIMAGE v4 x 1 0\n", "record count is not an integer: 'x'"),
        ("FSIMAGE v4 0 1\n", "header is not 'FSIMAGE v4 <count> <clock> <cold_end>'"),
        ("FSIMAGE v4 0 1 2 3\n", "header is not"),
        ("FSIMAGE v4 0 0_0 0\n", "clock is not an integer: '0_0'"),
        ("FSIMAGE v4 0 -1 0\n", "clock is negative: -1"),
        ("FSIMAGE v4 0 9223372036854775808 0\n",
         "clock is above 9223372036854775807: 9223372036854775808"),
        ("FSIMAGE v4 0 1 +5\n", "cold_end is not an integer: '\\+5'"),
        ("FSIMAGE v4 0 1 -1\n", "cold_end is negative: -1"),
        ("FSIMAGE v4 1 0 0\n" + EMPTY_A, "line 2: last_access 0 is not below the clock 0"),
        ("FSIMAGE v4 1 4 0\n/a" + ONE_BLOCK + "\n", "line 2: last_access 5 is not below the clock 4"),
        ("FSIMAGE v4 2 1 0\n" + EMPTY_A, "header says 2"),
        ("FSIMAGE v4 1 1 0\n" + EMPTY_A + EMPTY_A.replace("/a", "/b"), "header says 1"),
        ("FSIMAGE v4 1 1 0\ngarbage line\n", "line 2"),
        ("FSIMAGE v4 2 1 0\n" + EMPTY_A + EMPTY_A, "line 3: duplicate path /a$"),
        ("FSIMAGE v4 3 6 0\n" + EMPTY_A + "/b" + ONE_BLOCK + "\n" + EMPTY_A,
         "line 4: duplicate path /a$"),
        ("FSIMAGE v4 1 1 0\n" + EMPTY_A[:-1], "truncated"),
        ("FSIMAGE v4 1 6 0\n/a" + BLOCK_SIZE_1024 + "\n",
         "line 2: block_size is '1024', not the fixed 67108864"),
        ("FSIMAGE v4 1 6 0\n/a" + REPLICATION_2 + "\n", "line 2: replication is '2', not the fixed 3"),
        ("FSIMAGE v4 1 51 0\n" + V2_GOLDEN_LINE + "\n", "line 2: created is not an integer"),
    ],
)
def test_image_load_rejects_corruption(tmp_path, content, what):
    dest = tmp_path / "img"
    dest.write_text(content)
    with pytest.raises(CorruptImageError, match=what):
        load_fsimage(dest)


# an integer field written in a form other than the one str writes
INT_FAULTS = ("007", "+7", "1_0", "\u0665", "1\u0665", "-1", "1" * 20, str(2**63))
IMAGE_FAULTS = INT_FAULTS + ("geometry", "count 0", "created after last_access",
                             "created for an empty file", "last_access at the clock",
                             "duplicate path", "not UTF-8", "no final newline")
IMAGE_CLOCK = 100


@st.composite
def image_with_a_fault(draw):
    """The bytes of an image of 2-40 records, and the fault put in one line
    (None: no fault)."""
    n = draw(st.integers(min_value=2, max_value=40))
    rows = []
    for i in range(n):
        length = draw(st.sampled_from((0, 1, BLOCK_SIZE, 5 * BLOCK_SIZE + 3)))
        created = draw(st.integers(min_value=1, max_value=40)) if length else 0
        last_access = created + draw(st.integers(min_value=0, max_value=IMAGE_CLOCK - 41))
        suffix = draw(st.sampled_from(("", "\u00e9", "\u0665")))  # multi-byte UTF-8 too
        rows.append([f"/f/{i:02d}{suffix}", str(length), str(BLOCK_SIZE), str(REPLICATION),
                     str(last_access), str(draw(st.integers(min_value=1, max_value=9))),
                     str(created)])
    fault = draw(st.sampled_from((None,) + IMAGE_FAULTS))
    at = draw(st.integers(min_value=0, max_value=n - 1))
    row = rows[at]
    if fault in INT_FAULTS:
        row[draw(st.sampled_from((1, 4, 5, 6)))] = fault
    elif fault == "geometry":
        row[draw(st.sampled_from((2, 3)))] = "1"
    elif fault == "count 0":
        row[5] = "0"
    elif fault == "created after last_access":
        row[1], row[6] = "1", str(int(row[4]) + 1)
    elif fault == "created for an empty file":
        row[1], row[4], row[6] = "0", str(max(int(row[4]), 1)), "1"
    elif fault == "last_access at the clock":
        row[4] = str(IMAGE_CLOCK + draw(st.integers(min_value=0, max_value=1)))
    elif fault == "duplicate path":
        # often a neighbour, so that both lines are in one chunk
        near = [j for j in (at - 1, at + 1) if 0 <= j < n]
        others = [j for j in range(n) if j != at]
        row[0] = rows[draw(st.sampled_from(near) | st.sampled_from(others))][0]
    lines = [("\t".join(r) + "\n").encode() for r in rows]
    if fault == "not UTF-8":
        lines[at] = lines[at].replace(b"/f/", b"/f\xff/")
    data = f"FSIMAGE v4 {n} {IMAGE_CLOCK} 0\n".encode() + b"".join(lines)
    return (data[:-1] if fault == "no final newline" else data), fault


def _load_outcome(path):
    """The loaded records in order, or the load's error message."""
    try:
        return list(load_fsimage(path))
    except CorruptImageError as exc:
        return str(exc)


def _chunked_and_per_line_loads(path, chunk):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(recordio, "READ_CHUNK", chunk)
        chunked = _load_outcome(path)
        m.setattr(fsimage, "_insert_chunk", lambda *args: False)  # every line on its own
        return chunked, _load_outcome(path)


@settings(max_examples=300)
@given(image_with_a_fault(), st.integers(min_value=1, max_value=300))
def test_the_chunked_image_load_agrees_with_the_per_line_load(tmp_path_factory, image, chunk):
    data, fault = image
    path = tmp_path_factory.getbasetemp() / "chunked_image"
    path.write_bytes(data)
    # a chunk of a few lines, so faults fall on both sides of a chunk boundary
    chunked, per_line = _chunked_and_per_line_loads(path, chunk)
    assert chunked == per_line
    assert isinstance(per_line, str) == (fault is not None), per_line


def test_an_int_fault_in_any_field_fails_the_chunked_load_as_it_fails_the_per_line_load(
        tmp_path):
    path = tmp_path / "img"
    good = ["/a", "1", str(BLOCK_SIZE), str(REPLICATION), "5", "2", "1"]
    for field in (1, 4, 5, 6):  # length, last_access, count, created
        for text in INT_FAULTS:
            bad = good[:field] + [text] + good[field + 1:]
            path.write_text(f"FSIMAGE v4 2 {IMAGE_CLOCK} 0\n" + "\t".join(good) + "\n"
                            + "\t".join(bad).replace("/a", "/b") + "\n")
            chunked, per_line = _chunked_and_per_line_loads(path, recordio.READ_CHUNK)
            assert chunked == per_line
            assert per_line.startswith(f"{path}: line 3: "), per_line


# -- edits log -------------------------------------------------------------

def test_op_line_round_trip():
    for event in (
        OpEvent("CREATE", "/a", 3, 1000),
        OpEvent("ACCESS", "/a", 4),
        OpEvent("DELETE", "/a", 5),
    ):
        assert parse_op_line(event.encode()) == event


@pytest.mark.parametrize(
    "line",
    ["CREATE /a 5", "ACCESS /a", "DELETE /a 1 2", "TOUCH /a 1", "ACCESS /a x", ""],
)
def test_op_line_rejects(line):
    with pytest.raises(ValueError):
        parse_op_line(line)


def test_op_line_rejects_ints_not_written_in_plain_digits():
    with pytest.raises(ValueError, match="length is not an integer: '1_0'"):
        parse_op_line("CREATE /a 1_0 5")
    for tick in ("+5", "5_0", "\u0663", "\t5", "05"):
        with pytest.raises(ValueError, match="tick is not an integer"):
            parse_op_line(f"ACCESS /a {tick}")


def test_on_disk_ints_stop_at_the_largest_64_bit_value():
    assert parse_non_negative_int("9223372036854775807", "tick") == 2**63 - 1
    for text in ("9223372036854775808", "99999999999999999999", "1" * 5000):
        with pytest.raises(ValueError, match="tick is above 9223372036854775807"):
            parse_non_negative_int(text, "tick")


def test_log_append_and_scan(tmp_path):
    log = EditsLog(tmp_path / "edits")
    events = [OpEvent("CREATE", "/a", 0, 9), OpEvent("ACCESS", "/a", 1), OpEvent("DELETE", "/a", 4)]
    for e in events:
        log.append(e)
    assert list(log.entries()) == events
    with pytest.raises(OutOfOrderEditError):
        log.append(OpEvent("ACCESS", "/a", 4))
    log.close()
    # reading the reopened log recovers the last tick
    log2 = EditsLog(tmp_path / "edits")
    assert list(log2.entries()) == events
    assert log2.last_tick == 4
    with pytest.raises(OutOfOrderEditError):
        log2.append(OpEvent("ACCESS", "/a", 2))
    log2.reset()
    assert list(log2.entries()) == []
    log2.append(OpEvent("CREATE", "/b", 0, 1))
    log2.close()


def read_log(path):
    """A log at ``path`` with every entry read, as recovery leaves it."""
    log = EditsLog(path)
    for _ in log.entries():
        pass
    return log


def test_log_reads_its_last_tick_from_the_final_line(tmp_path):
    path = tmp_path / "edits"
    assert read_log(path).last_tick == -1
    long_path = "/" + "x" * 10_000
    log = EditsLog(path)
    for event in [OpEvent("CREATE", "/a", 3, 1), OpEvent("CREATE", long_path, 8, 2)]:
        log.append(event)
    log.close()
    assert read_log(path).last_tick == 8
    complete = path.read_bytes()
    path.write_bytes(complete + b"ACCESS /a 11")  # a torn append: no final newline
    log = read_log(path)
    assert log.last_tick == 8
    assert path.read_bytes() == complete
    assert [e.tick for e in log.entries()] == [3, 8]  # a second read sees the same log
    assert log.last_tick == 8
    path.write_bytes(b"CREATE /a9 1")
    assert read_log(path).last_tick == -1
    assert path.read_bytes() == b""
    path.write_bytes(b"")
    assert read_log(path).last_tick == -1


def test_a_log_that_was_not_read_refuses_appends(tmp_path):
    path = tmp_path / "edits"
    path.write_text("CREATE /a 5 7\n")
    log = EditsLog(path)
    with pytest.raises(OutOfOrderEditError, match="read its entries before appending"):
        log.append(OpEvent("ACCESS", "/a", 8))
    assert path.read_text() == "CREATE /a 5 7\n"
    entries = log.entries()
    next(entries)  # a read that stops short still refuses
    with pytest.raises(OutOfOrderEditError, match="read its entries"):
        log.append(OpEvent("ACCESS", "/a", 8))
    entries.close()
    assert list(log.entries()) == [OpEvent("CREATE", "/a", 7, 5)]
    with pytest.raises(OutOfOrderEditError, match="tick 7 does not advance"):
        log.append(OpEvent("ACCESS", "/a", 7))
    log.append(OpEvent("ACCESS", "/a", 8))
    log.close()
    assert path.read_text() == "CREATE /a 5 7\nACCESS /a 8\n"


def test_log_rejects_corruption(tmp_path):
    path = tmp_path / "edits"
    path.write_text("CREATE /a 5 0\nnot a line\n")
    with pytest.raises(CorruptLogError, match="line 2"):
        list(EditsLog(path).entries())
    path.write_text("CREATE /a 5 7\nACCESS /a 7\n")
    with pytest.raises(CorruptLogError, match="not increasing"):
        list(EditsLog(path).entries())


def test_a_torn_last_edit_is_dropped_and_the_store_opens(tmp_path, caplog):
    log = tmp_path / EDITS_NAME
    log.write_bytes(b"CREATE /a 1 0\nCREATE /a9 1")  # a kill during the second append
    store = open_store(tmp_path)
    assert [r.message for r in caplog.records] == [
        f"{log}: dropping a torn last line of 12 bytes"
    ]
    assert list(store.hot.paths()) == ["/a"]
    store.create("/b", 1)
    store.close()
    assert log.read_bytes() == b"CREATE /a 1 0\nCREATE /b 1 1\n"
    reopened = open_store(tmp_path)
    try:
        assert sorted(reopened.hot.paths()) == ["/a", "/b"]
    finally:
        reopened.close()


def test_recovery_over_an_empty_log_leaves_the_image_unchanged(tmp_path):
    store = open_store(tmp_path)
    store.create("/a", 5)
    store.checkpoint(tmp_path / IMAGE_NAME)  # empties the log
    store.close()
    recovered = open_store(tmp_path)
    assert list(recovered.hot) == list(store.hot)
    assert recovered.clock == store.clock
    recovered.close()


def test_apply_create_then_delete_yields_no_record(tmp_path):
    store = TieredStore(ColdStore(tmp_path / "c2"))
    store.apply_event(OpEvent("CREATE", "/tmp/x", 0, 9))
    store.apply_event(OpEvent("DELETE", "/tmp/x", 1))
    assert len(store.hot) == 0 and len(store.cold) == 0
    assert store.clock == 2
    store.close()


def test_apply_event_is_strict(tmp_path):
    store = TieredStore(ColdStore(tmp_path / "c2"))
    with pytest.raises(NotFoundError, match="/ghost"):
        store.apply_event(OpEvent("ACCESS", "/ghost", 0))
    store.apply_event(OpEvent("CREATE", "/a", 1, 1))
    with pytest.raises(PathExistsError, match="/a"):
        store.apply_event(OpEvent("CREATE", "/a", 2, 1))
    with pytest.raises(NotFoundError, match="/b"):
        store.apply_event(OpEvent("DELETE", "/b", 3))
    with pytest.raises(ValueError, match="RENAME"):
        store.apply_event(OpEvent("RENAME", "/a", 4))
    assert store.clock == 2  # a refused event consumes no tick
    store.close()


def test_checkpoint_plus_log_replay_equals_live(tmp_path, caplog):
    # the recovery identity: image at last checkpoint + later edits = live
    # state; a threshold above the op count keeps every record hot
    config = TieringConfig(threshold_records=2000)
    for seed in range(10):
        rng = random.Random(seed)
        data_dir = tmp_path / f"store-{seed}"
        store = open_store(data_dir, config)
        store.checkpoint(data_dir / IMAGE_NAME)
        for _ in range(1000):
            roll = rng.random()
            live = [r.path for r in store.hot]
            if roll < 0.5 or not live:
                path = f"/t/{rng.randrange(200):03d}"
                if path not in store.hot:
                    store.create(path, rng.randrange(10**10))
            elif roll < 0.8:
                store.open(rng.choice(live))
            elif roll < 0.95:
                store.delete(rng.choice(live))
            else:
                store.checkpoint(data_dir / IMAGE_NAME)
        store.close()
        caplog.clear()
        recovered = open_store(data_dir, config)
        assert not caplog.records, caplog.text  # no edit was skipped
        assert {r.path: r for r in recovered.hot} == {r.path: r for r in store.hot}
        assert len(recovered.cold) == 0
        assert recovered.clock == store.clock
        recovered.close()


def test_reopen_after_delete_and_checkpoint_keeps_the_clock(tmp_path):
    store = open_store(tmp_path)
    store.create("/keep", 10)
    store.create("/gone", 10)
    store.delete("/gone")
    store.checkpoint(tmp_path / IMAGE_NAME)
    store.close()
    recovered = open_store(tmp_path)
    try:
        assert recovered.clock == store.clock
    finally:
        recovered.close()



def test_a_log_left_by_a_checkpoint_that_did_not_reset_it_is_refused(tmp_path, caplog):
    # a crash between the image rename and the log reset: every logged tick
    # is below the new image's clock, and none of those edits is applied again
    store = open_store(tmp_path, TieringConfig(recency_window=0))
    for path in ("/a", "/b", "/c"):
        store.create(path, 10)
    store.separate()  # all three go cold
    store.checkpoint(tmp_path / IMAGE_NAME)
    store.open("/a")  # 3: a promotion
    store.create("/d", 10)  # 4
    store.delete("/d")  # 5
    store.open("/a")  # 6
    store.delete("/c")  # 7: a cold delete, its tombstone on disk
    save_fsimage(store.hot, tmp_path / IMAGE_NAME, store.clock, store.cold.sync())
    store.close()
    assert (tmp_path / EDITS_NAME).read_text().count("\n") == 5
    caplog.clear()
    recovered = open_store(tmp_path)
    try:
        image = load_fsimage(tmp_path / IMAGE_NAME)
        assert {r.path: r for r in recovered.hot} == {r.path: r for r in image}
        assert recovered.cold.paths() == ["/b"]
        assert recovered.clock == read_commit(tmp_path / IMAGE_NAME)[0] == 8
        # every edit is below the image's clock: one line counts them, none applies
        assert [r.message for r in caplog.records] == [
            f"{tmp_path / EDITS_NAME}: 5 edits below the image's clock 8 are in the image already"
        ]
    finally:
        recovered.close()


@pytest.mark.parametrize(
    "content, where",
    [
        (b"CREATE /a 1 0\nCREATE /\xff 1 1\n", "line 2"),  # the final line
        (b"CREATE /\xff 1 0\nCREATE /b 1 1\n", "line 1"),
    ],
    ids=["last-line", "first-line"],
)
def test_a_log_line_that_is_not_utf8_fails_open_store_naming_it(tmp_path, content, where):
    (tmp_path / EDITS_NAME).write_bytes(content)
    with pytest.raises(CorruptLogError, match=f"{EDITS_NAME}: {where}: 'utf-8' codec"):
        open_store(tmp_path)


def test_an_image_line_that_is_not_utf8_fails_open_store_naming_it(tmp_path):
    (tmp_path / IMAGE_NAME).write_bytes(
        b"FSIMAGE v4 2 1 0\n" + EMPTY_A.encode() + EMPTY_A.replace("/a", "/\xff").encode("latin-1")
    )
    with pytest.raises(CorruptImageError, match=f"{IMAGE_NAME}: line 3: 'utf-8' codec"):
        open_store(tmp_path)


# -- cold store ------------------------------------------------------------

def cold_records(n, prefix="/c"):
    return [new_record(f"{prefix}/{i:04d}", i * 10, i) for i in range(n)]


def test_cold_append_get_delete(tmp_path):
    cold = ColdStore(tmp_path / "c2")
    records = cold_records(10)
    cold.append_records(records)
    assert len(cold) == 10
    assert cold.get("/c/0003") == records[3]
    assert cold.get("/missing") is None
    cold.delete("/c/0003")
    assert cold.get("/c/0003") is None
    assert len(cold) == 9
    cold.close()
    # tombstone survives reopen
    cold2 = ColdStore(tmp_path / "c2")
    assert cold2.get("/c/0003") is None
    assert cold2.get("/c/0004") == records[4]
    cold2.close()


def test_cold_latest_entry_wins(tmp_path):
    cold = ColdStore(tmp_path / "c2")
    old = cold_records(1)[0]
    new = old._replace(count=99)
    cold.append_records([old])
    cold.append_records([new])
    assert cold.get(old.path).count == 99
    cold.close()
    cold2 = ColdStore(tmp_path / "c2")
    assert cold2.get(old.path).count == 99
    cold2.close()


def test_cold_scan_matches_index_after_reopen(tmp_path):
    rng = random.Random(3)
    cold = ColdStore(tmp_path / "c2")
    live = {}
    for record in cold_records(200):
        cold.append_records([record])
        live[record.path] = record
        if rng.random() < 0.3:
            victim = rng.choice(sorted(live))
            cold.delete(victim)
            del live[victim]
    cold.close()
    cold2 = ColdStore(tmp_path / "c2")
    assert sorted(cold2.paths()) == sorted(live)
    for path, record in live.items():
        assert cold2.get(path) == record
    cold2.close()


def test_cold_compaction_drops_dead_entries(tmp_path):
    cold = ColdStore(tmp_path / "c2")
    records = cold_records(100)
    cold.append_records(records)
    doomed = [r.path for r in records[::5]][:40] + [r.path for r in records[1::5]][:20]
    doomed = doomed[:40]
    for path in doomed:
        cold.delete(path)
    before = list(cold.records())
    assert cold.compact() == 60
    lines = (tmp_path / "c2").read_bytes().splitlines()
    assert len(lines) == 60
    assert list(cold.records()) == before  # same records, same order
    assert cold.get(before[0].path) == before[0]
    cold.close()


def test_cold_compaction_abort_leaves_file_intact(tmp_path, monkeypatch):
    cold = ColdStore(tmp_path / "c2")
    cold.append_records(cold_records(10))
    cold.delete("/c/0000")
    original = (tmp_path / "c2").read_bytes()

    def boom(fd):
        raise OSError("no space")

    monkeypatch.setattr(os, "fsync", boom)
    with pytest.raises(CompactionAbortedError):
        cold.compact()
    monkeypatch.undo()
    assert (tmp_path / "c2").read_bytes() == original
    assert not (tmp_path / "c2.tmp").exists()
    assert cold.get("/c/0005") is not None
    cold.close()


def test_cold_append_is_all_or_nothing(tmp_path):
    cold = ColdStore(tmp_path / "c2")
    cold.append_records(cold_records(5))
    size_before = (tmp_path / "c2").stat().st_size
    cold._file = FailingFile(cold._file)
    with pytest.raises(ColdStoreWriteFailureError):
        cold.append_records(cold_records(5, prefix="/d"))
    assert (tmp_path / "c2").stat().st_size == size_before
    assert len(cold) == 5
    assert "/d/0000" not in cold
    # store still usable afterwards
    cold.append_records(cold_records(3, prefix="/e"))
    assert cold.get("/e/0002") is not None
    cold.close()
    cold2 = ColdStore(tmp_path / "c2")
    assert sorted(cold2.paths()) == sorted(cold_records(5)[i].path for i in range(5)) + [
        "/e/0000", "/e/0001", "/e/0002"
    ]
    cold2.close()


def test_a_failed_tombstone_is_cut_back_off(tmp_path):
    cold = ColdStore(tmp_path / "c2")
    cold.append_records(cold_records(3))
    size_before = (tmp_path / "c2").stat().st_size
    cold._file = FailingFile(cold._file)
    with pytest.raises(ColdStoreWriteFailureError):
        cold.delete("/c/0002")
    assert (tmp_path / "c2").stat().st_size == size_before
    assert "/c/0002" in cold and len(cold) == 3
    # the next append starts a line of its own, and a later delete works
    cold.append_records(cold_records(2, prefix="/d"))
    cold.delete("/c/0000")
    cold.close()
    reopened = ColdStore(tmp_path / "c2")
    assert reopened.paths() == ["/c/0001", "/c/0002", "/d/0000", "/d/0001"]
    reopened.close()


def test_a_failed_log_append_is_cut_back_off(tmp_path):
    log = EditsLog(tmp_path / EDITS_NAME)
    log.append(OpEvent("CREATE", "/a", 0, 1))
    log._writer = FailingFile(log._writer)
    with pytest.raises(OSError, match="disk full"):
        log.append(OpEvent("CREATE", "/b", 1, 1))
    assert log.last_tick == 0
    log.append(OpEvent("CREATE", "/c", 2, 1))
    log.close()
    assert (tmp_path / EDITS_NAME).read_text() == "CREATE /a 1 0\nCREATE /c 1 2\n"
    store = open_store(tmp_path)
    try:
        assert sorted(store.hot.paths()) == ["/a", "/c"]
    finally:
        store.close()


@pytest.mark.parametrize(
    "rest, reason",
    [
        (BLOCK_SIZE_1024, "block_size is '1024', not the fixed 67108864"),
        (REPLICATION_2, "replication is '2', not the fixed 3"),
    ],
    ids=["block-size", "replication"],
)
def test_cold_refuses_a_record_of_another_geometry_on_first_read(tmp_path, rest, reason):
    path = tmp_path / "c2"
    good = cold_records(1)[0]
    line = f"/c/odd{rest}\n"
    path.write_text(line + encode_record(good) + "\n")
    cold = ColdStore(path)  # the index scan reads paths only
    try:
        assert cold.get(good.path) == good
        with pytest.raises(CorruptImageError, match=re.escape(f"{path}: offset 0: {reason}")):
            cold.get("/c/odd")
    finally:
        cold.close()


def test_cold_rejects_corrupt_line(tmp_path):
    (tmp_path / "c2").write_text("what is this\n")
    with pytest.raises(CorruptImageError, match="line 1"):
        ColdStore(tmp_path / "c2")


def test_cold_closes_its_file_when_the_index_scan_fails(tmp_path, opened_files):
    (tmp_path / "c2").write_bytes(encode_record(cold_records(1)[0]).encode() + b"\nbad\n")
    opened = opened_files(coldstore)
    with pytest.raises(CorruptImageError, match="line 2"):
        ColdStore(tmp_path / "c2")
    assert len(opened) == 1 and opened[0].closed


@pytest.mark.parametrize(
    "line, where",
    [
        (b"/\xff\t0\t67108864\t3\t0\t1\t0\n", "line 2"),
        (b"TOMB /\xff\n", "line 2"),
    ],
    ids=["record-path", "tombstone-path"],
)
def test_a_cold_path_that_is_not_utf8_fails_the_open_naming_its_line(tmp_path, line, where):
    path = tmp_path / "c2"
    path.write_bytes(encode_record(cold_records(1)[0]).encode() + b"\n" + line)
    with pytest.raises(CorruptImageError, match=f"{path}: {where}: 'utf-8' codec"):
        ColdStore(path)


def test_a_cold_field_that_is_not_utf8_fails_the_read_naming_its_offset(tmp_path):
    path = tmp_path / "c2"
    good = encode_record(cold_records(1)[0]).encode() + b"\n"
    path.write_bytes(good + b"/c/odd\t1\xff\t67108864\t3\t0\t1\t0\n")
    cold = ColdStore(path)
    try:
        with pytest.raises(CorruptImageError, match=f"{path}: offset {len(good)}: 'utf-8' codec"):
            cold.get("/c/odd")
    finally:
        cold.close()


def _refused_then_cut(path, complete, torn, lineno):
    """Open ``complete + torn`` and check that the open fails naming line
    ``lineno`` and leaves the bytes; then cut the tail off by hand and open
    the complete lines."""
    path.write_bytes(complete + torn)
    with pytest.raises(CorruptImageError) as refused:
        ColdStore(path)
    assert str(refused.value) == f"{path}: line {lineno}: truncated record"
    assert path.read_bytes() == complete + torn
    os.truncate(path, len(complete))
    return ColdStore(path)


def test_a_torn_last_cold_record_fails_the_open_and_stays(tmp_path):
    path = tmp_path / "c2"
    first, second = cold_records(2)
    complete = encode_record(first).encode() + b"\n"
    cold = _refused_then_cut(path, complete, encode_record(second).encode()[:9], 2)
    assert cold.paths() == [first.path]
    cold.append_records([second])
    cold.close()
    reopened = ColdStore(path)
    try:
        assert [reopened.get(p) for p in reopened.paths()] == [first, second]
    finally:
        reopened.close()


def test_a_torn_last_tombstone_fails_the_open_and_deletes_nothing(tmp_path):
    path = tmp_path / "c2"
    records = [new_record(p, 10, i) for i, p in enumerate(("/c1", "/c10", "/c2"))]
    complete = b"".join(encode_record(r).encode() + b"\n" for r in records)
    cold = _refused_then_cut(path, complete, b"TOMB /c1", 4)  # cut from "TOMB /c10\n"
    assert cold.paths() == ["/c1", "/c10", "/c2"]
    cold.delete("/c2")
    cold.close()
    assert path.read_bytes() == complete + b"TOMB /c2\n"
    reopened = ColdStore(path)
    try:
        assert reopened.paths() == ["/c1", "/c10"]
    finally:
        reopened.close()


@pytest.mark.parametrize("appended", [3, 40])
def test_an_open_indexes_the_lines_it_counted_and_leaves_a_writer_s_appends(
        tmp_path, monkeypatch, appended):
    """A writer (a served store's spill, say) appends whole lines and a torn
    one after the open has counted the lines: the open indexes the counted
    lines and leaves every appended byte in place."""
    path = tmp_path / "c2"
    records = one_block_records(3 + appended)
    counted = b"".join(encode_record(r).encode() + b"\n" for r in records[:3])
    later = b"".join(encode_record(r).encode() + b"\n" for r in records[3:])
    later += encode_record(records[0]).encode()[:12]
    path.write_bytes(counted)
    real_slots_for = coldstore._slots_for

    def append_then_size(entries):  # called between the count and the scan
        monkeypatch.setattr(coldstore, "_slots_for", real_slots_for)
        with open(path, "ab") as writer:
            writer.write(later)
        return real_slots_for(entries)

    monkeypatch.setattr(coldstore, "_slots_for", append_then_size)
    cold = ColdStore(path)
    try:
        assert path.read_bytes() == counted + later
        assert cold.paths() == [r.path for r in records[:3]]
        assert [cold.get(r.path) for r in records] == records[:3] + [None] * appended
    finally:
        cold.close()


def one_block_records(n):
    store = HotStore()
    for i in range(n):
        store.create(f"/k/{i:06d}", 1, i)
    return list(store)


def test_the_cold_index_costs_at_most_64_bytes_per_record(tmp_path):
    path = tmp_path / "c2"
    path.write_bytes(b"".join(encode_record(r).encode() + b"\n" for r in one_block_records(40_000)))
    cold, retained, peak = _traced_bytes(lambda: ColdStore(path), with_peak=True)
    try:
        assert len(cold) == 40_000
        assert retained / len(cold) <= 64
        # a temporary copy of the table, or one grown by doubling, peaks higher
        assert peak <= 2 * retained
    finally:
        cold.close()


def _index_bytes(cold):
    """Bytes of the containers a cold store keeps its index in."""
    return sum(sys.getsizeof(v) for v in vars(cold).values() if isinstance(v, (array, dict)))


def test_promoting_every_cold_record_shrinks_the_index_to_its_floor(tmp_path):
    records = one_block_records(40_000)
    store = TieredStore(ColdStore(tmp_path / "c2"))
    empty = ColdStore(tmp_path / "empty")
    try:
        store.cold.append_records(records)
        for record in records:
            store.open(record.path)
        assert len(store.cold) == 0 and len(store.hot) == 40_000
        assert _index_bytes(store.cold) == _index_bytes(empty)
        assert len(store.cold._keys) == len(store.cold._offs) == coldstore._MIN_SLOTS
    finally:
        store.close()
        empty.close()


def _cold_scenario(directory):
    """Every cold-store operation on a few paths, /c1 and /c10 among them;
    what each one gave, and the file compaction leaves."""
    directory.mkdir()
    path = directory / "c2"
    ticks = count()
    c1, c10, c2, c3 = (new_record(p, 10 * i + 1, next(ticks))
                       for i, p in enumerate(["/c1", "/c10", "/c2", "/c3"]))
    bulk = [new_record(f"/d/{i:02d}", 1, next(ticks)) for i in range(30)]
    seen = {}
    cold = ColdStore(path)
    cold.append_records([c1, c10, c2, c3])
    seen["in"] = [p in cold for p in ("/c1", "/c10", "/c100", "/c", "/c2")]
    seen["get"] = [cold.get(p) for p in ("/c10", "/c100")]
    seen["deleted"] = [cold.delete("/c1"), cold.delete("/c1")]
    seen["after delete"] = ["/c1" in cold, cold.get("/c1"), cold.get("/c10"), cold.paths()]
    cold.append_records([c1])  # the same path again, after its tombstone
    newer_c3 = MetadataRecord(c3.path, c3.length, c3.created, next(ticks), 99)
    cold.append_records([newer_c3] + bulk)  # a later line wins without a tombstone
    seen["grown"] = [len(cold), cold.get("/c3"), cold.paths()]
    for record in bulk[2:]:
        cold.delete(record.path)
    cold.delete("/c2")
    seen["shrunk"] = [len(cold), cold.paths(), list(cold.records())]
    cold.close()
    cold = ColdStore(path)  # record, tombstone and record-again lines
    seen["reopened"] = [len(cold), cold.paths(), list(cold.records()), cold.get("/c1"), "/c2" in cold]
    seen["compacted"] = [cold.compact(), cold.paths(), [cold.get(p) for p in cold.paths()]]
    cold.close()
    seen["file"] = path.read_bytes()
    return seen


def test_colliding_cold_keys_change_no_result(tmp_path, monkeypatch):
    apart = _cold_scenario(tmp_path / "apart")
    assert apart["in"] == [True, True, False, False, True]
    assert apart["deleted"] == [True, False]  # a second delete finds nothing
    assert apart["after delete"][:2] == [False, None]
    assert apart["reopened"][1] == ["/c10", "/c1", "/c3", "/d/00", "/d/01"]
    assert apart["reopened"][2][2].count == 99
    monkeypatch.setattr(coldstore, "_key", lambda path: 1)
    assert _cold_scenario(tmp_path / "colliding") == apart


COLD_PATHS = ("/c/0", "/c/1", "/c/2", "/c/é")
NOT_A_COLD_LINE = (b"junk\n", b"\n", b"TOMB/c/0\n", b"/c/0 no tab\n", b"/c/\xff\t1\n",
                   b"TOMB /c/\xff\n")


@st.composite
def cold_file(draw):
    """A cold file of random record and tombstone lines over a few paths, so
    paths are spilled again after a tombstone within one chunk and across
    chunks; perhaps with a torn last line, or a line that is neither."""
    lines = []
    for tick in range(draw(st.integers(min_value=0, max_value=60))):
        path = draw(st.sampled_from(COLD_PATHS))
        if draw(st.booleans()):
            lines.append(encode_record((path, 1, 0, tick, 1)).encode() + b"\n")
        else:
            lines.append(b"TOMB " + path.encode() + b"\n")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))),
                     draw(st.sampled_from(NOT_A_COLD_LINE)))
    data = b"".join(lines)
    if draw(st.booleans()):
        torn = draw(st.sampled_from((encode_record(("/c/1", 1, 0, 99, 1)).encode(),
                                     b"TOMB /c/1")))
        data += torn[:draw(st.integers(min_value=1, max_value=len(torn)))]
    return data


def _scan_outcome(path, data):
    """What a cold store opened on ``data`` holds, and the file after the
    open; or the open's error message."""
    path.write_bytes(data)
    try:
        cold = ColdStore(path)
    except CorruptImageError as exc:
        return str(exc), path.read_bytes()
    try:
        return (len(cold), cold.paths(), [cold.get(p) for p in COLD_PATHS + ("/c/9",)],
                path.read_bytes())
    finally:
        cold.close()


@settings(max_examples=300)
@given(cold_file(), st.integers(min_value=1, max_value=200), st.booleans())
def test_the_chunked_cold_scan_builds_the_index_the_per_line_scan_builds(
        tmp_path_factory, data, chunk, colliding):
    path = tmp_path_factory.getbasetemp() / "chunked_cold"
    with pytest.MonkeyPatch.context() as m:
        m.setattr(recordio, "READ_CHUNK", chunk)  # a few lines a chunk
        if colliding:
            m.setattr(coldstore, "_key", lambda path: 1)
        chunked = _scan_outcome(path, data)
        m.setattr(ColdStore, "_index_chunk", lambda *args: False)  # every line on its own
        assert chunked == _scan_outcome(path, data)


def _counting_preads(monkeypatch):
    calls = []
    real = os.pread

    def counted(fd, n, offset):
        calls.append(offset)
        return real(fd, n, offset)

    monkeypatch.setattr(os, "pread", counted)
    return calls


@pytest.mark.parametrize("chunk, preads", [(recordio.READ_CHUNK, 0), (1, 50)],
                         ids=["same-chunk", "a-line-a-chunk"])
def test_a_tombstone_is_confirmed_against_its_chunk_and_read_back_from_an_earlier_one(
        tmp_path, monkeypatch, chunk, preads):
    """100 records, then a tombstone for every other one: in one chunk the
    open reads no path back; a line a chunk reads back one per tombstone."""
    path = tmp_path / "c2"
    records = one_block_records(100)
    path.write_bytes(b"".join(encode_record(r).encode() + b"\n" for r in records)
                     + b"".join(b"TOMB " + r.path.encode() + b"\n" for r in records[::2]))
    assert path.stat().st_size < recordio.READ_CHUNK
    monkeypatch.setattr(recordio, "READ_CHUNK", chunk)
    calls = _counting_preads(monkeypatch)
    cold = ColdStore(path)
    try:
        assert len(calls) == preads
        assert cold.paths() == [r.path for r in records[1::2]]
    finally:
        cold.close()


def test_a_store_never_compacts_the_cold_file_its_image_commits(tmp_path, monkeypatch):
    """Past the floor and the ratio, neither a live store nor its recovery
    compacts: every byte below ``cold_end`` stays, and the log's promotions
    replay onto it."""
    monkeypatch.setattr(coldstore, "COMPACT_MIN_LINES", 4)
    compactions = []
    monkeypatch.setattr(ColdStore, "compact", lambda self: compactions.append(self.path))
    config = TieringConfig(threshold_records=20, recency_window=0)
    store = open_store(tmp_path, config)
    for i in range(40):
        store.create(f"/f/{i:02d}", 1)  # a pass, and its checkpoint, at every 20th create
    cold_end = read_commit(tmp_path / IMAGE_NAME)[1]
    committed = (tmp_path / COLD_NAME).read_bytes()[:cold_end]
    for path in store.cold.paths():
        store.open(path)  # a promotion: a tombstone, and the record's line dead
    dead = store.cold._lines - len(store.cold)
    assert store.cold._lines >= 4 and dead > coldstore.COMPACT_DEAD_PER_LIVE * len(store.cold)
    store.close()  # no checkpoint: recovery replays the promotions
    reopened = open_store(tmp_path, config)
    try:
        assert len(reopened.cold) == 0
        assert reopened.cold._lines > 4
        assert (tmp_path / COLD_NAME).read_bytes()[:cold_end] == committed
        assert compactions == []
    finally:
        reopened.close()
