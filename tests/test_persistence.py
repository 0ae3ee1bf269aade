"""Record codec, checkpoint image, edits log, cold store."""

import gc
import os
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from tiermeta import coldstore, namespace
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import EditsLog, OpEvent, parse_op_line, replay_edits
from tiermeta.errors import (
    ColdStoreWriteFailureError,
    CompactionAbortedError,
    CorruptImageError,
    CorruptLogError,
    OutOfOrderEditError,
)
from tiermeta.fsimage import load_fsimage, save_fsimage
from tiermeta.namespace import (
    DEFAULT_BLOCK_SIZE,
    SHARED_TUPLE_MAX_LEN,
    SHARED_VALUES_CAP,
    BlockInfo,
    HotStore,
    LogicalClock,
    MetadataRecord,
    split_blocks,
)
from tiermeta.recordio import decode_record, encode_record

# -- record lines ----------------------------------------------------------

GOLDEN_LINE = (
    "/data/report.txt\t136314880\t67108864\t3\t50\t2\t"
    "44040192@67108864@42@0;1,44040193@67108864@42@1;0,44040194@2097152@42@0;1"
)


def test_record_line_format_is_pinned():
    store = HotStore()  # defaults: 64 MiB blocks, replication 3, 2 nodes
    store.create("/data/report.txt", 130 * 1024 * 1024, tick=42)
    record = store.access("/data/report.txt", tick=50)
    assert encode_record(record) == GOLDEN_LINE
    assert decode_record(GOLDEN_LINE) == record


def test_zero_length_record_has_empty_blocks_field():
    store = HotStore()
    record = store.create("/a/empty", 0, tick=0)
    line = encode_record(record)
    assert line == "/a/empty\t0\t67108864\t3\t0\t1\t"
    assert decode_record(line) == record


@st.composite
def record_strategy(draw):
    path = draw(st.from_regex(r"/[a-z0-9_.\-/]{1,30}", fullmatch=True))
    block_size = draw(st.integers(min_value=1, max_value=2**30))
    n_blocks = draw(st.integers(min_value=0, max_value=5))
    tail = draw(st.integers(min_value=1, max_value=block_size))
    length = 0 if n_blocks == 0 else (n_blocks - 1) * block_size + tail
    tick = draw(st.integers(min_value=0, max_value=2**40))
    replication = draw(st.integers(min_value=1, max_value=4))
    nodes = draw(st.integers(min_value=1, max_value=5))
    return MetadataRecord(
        path=path,
        length=length,
        block_size=block_size,
        replication=replication,
        blocks=split_blocks(length, block_size, tick, replication, nodes),
        last_access=draw(st.integers(min_value=0, max_value=2**40)),
        count=draw(st.integers(min_value=1, max_value=10**6)),
    )


@given(record_strategy())
def test_record_round_trip(record):
    assert decode_record(encode_record(record)) == record


@pytest.mark.parametrize(
    "line, what",
    [
        ("/a\t1\t2", "fields"),
        ("notabsolute\t1\t1\t1\t1\t1\t", "absolute"),
        ("/a\tx\t1\t1\t1\t1\t", "integer"),
        ("/a\t-1\t1\t1\t1\t1\t", "negative"),
        ("/a\t1\t1\t1\t1\t1\t123@4", "block"),
        ("/a\t1\t1\t1\t1\t1\t123@4@5@", "replicas"),
    ],
)
def test_record_decode_rejects(line, what):
    with pytest.raises(ValueError, match=what):
        decode_record(line)


# -- shared values in decoded records --------------------------------------


def test_decoded_ints_reuse_equal_ints_of_their_line():
    line = "/one\t100\t67108864\t3\t42\t1\t44040192@100@42@0;1"
    one = decode_record(line)
    (block,) = one.blocks
    assert block.size is one.length
    assert block.generation_stamp is one.last_access
    assert encode_record(one) == line


def test_loaded_and_cold_records_share_rings_and_block_size(tmp_path, empty_shared_tables):
    store = HotStore()
    for i in range(6):  # the 3-block files put their middle block on the other ring
        store.create(f"/s/{i}", (1 + 2 * (i % 2)) * DEFAULT_BLOCK_SIZE - 1, tick=i)
    save_fsimage(store, tmp_path / "img")
    cold = ColdStore(tmp_path / "c2")
    cold.append_records(list(store))
    loaded = list(load_fsimage(tmp_path / "img"))
    read = [cold.get(r.path) for r in store]
    cold.close()
    assert loaded == read == list(store)
    blocks = [b for r in loaded + read for b in r.blocks]
    rings = {id(namespace.share((0, 1))), id(namespace.share((1, 0)))}
    assert {id(b.replicas) for b in blocks} == rings
    assert {id(r.block_size) for r in loaded + read} == {id(loaded[0].block_size)}


def test_replica_table_is_capped(empty_shared_tables):
    originals = [
        MetadataRecord(f"/cap/{i}", 5, 8, 2, (BlockInfo(i << 20, 5, i, (i, i + 1)),), i, 1)
        for i in range(SHARED_VALUES_CAP + 50)
    ]
    decoded = [decode_record(encode_record(r)) for r in originals]
    assert len(namespace._shared_values) == SHARED_VALUES_CAP
    assert decoded == originals
    last = decoded[-1].blocks[0].replicas
    assert decode_record(encode_record(originals[-1])).blocks[0].replicas is not last
    first = decoded[0].blocks[0].replicas
    assert decode_record(encode_record(originals[0])).blocks[0].replicas is first


def test_long_replica_tuples_are_not_kept(empty_shared_tables):
    nodes = ";".join(str(n) for n in range(SHARED_TUPLE_MAX_LEN + 1))
    line = f"/long\t5\t8\t2\t1\t1\t1048576@5@1@{nodes}"
    record = decode_record(line)
    assert len(record.blocks[0].replicas) == SHARED_TUPLE_MAX_LEN + 1
    assert record.blocks[0].replicas not in namespace._shared_values
    assert encode_record(record) == line


def _traced_bytes(build):
    # A full collection also empties the free lists of small objects, so the
    # objects built are all counted and none freed while building is.
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def _objects_per_record(records):
    """Distinct objects the records hold, per record; a shared one counts once."""
    seen = set()
    for r in records:
        fields = (r, r.path, r.length, r.block_size, r.replication, r.blocks, r.last_access, r.count)
        seen.update(map(id, fields))
        for b in r.blocks:
            seen.update(map(id, (b, b.block_id, b.size, b.generation_stamp, b.replicas)))
    return len(seen) / len(records)


def test_loaded_store_holds_no_more_than_the_one_saved(tmp_path, empty_shared_tables):
    def build():
        store = HotStore()
        for i in range(3000):
            store.create(f"/m/{i:06d}", 1000 + 37 * i, 5000 + i)
        for i in range(0, 3000, 3):
            store.access(f"/m/{i:06d}", 90000 + i)
        return store

    created, created_bytes = _traced_bytes(build)
    save_fsimage(created, tmp_path / "img")
    loaded, loaded_bytes = _traced_bytes(lambda: load_fsimage(tmp_path / "img"))
    assert list(loaded) == list(created)
    assert _objects_per_record(list(loaded)) <= _objects_per_record(list(created))
    # Allocator and dict-growth detail move the bytes by a few per cent either
    # way; unshared copies in the loaded records would add about 15%.
    assert loaded_bytes / len(loaded) <= 1.05 * created_bytes / len(created)


# -- checkpoint image ------------------------------------------------------

def sample_store(n=5):
    store = HotStore()
    clock = LogicalClock()
    for i in range(n):
        store.create(f"/s/{i:03d}", i * 1000, clock.tick())
    store.access("/s/001", clock.tick())
    return store


def test_image_round_trip(tmp_path):
    store = sample_store()
    dest = tmp_path / "img"
    save_fsimage(store, dest)
    loaded = load_fsimage(dest)
    assert {r.path: r for r in loaded} == {r.path: r for r in store}


def test_image_save_load_save_is_byte_identical(tmp_path):
    store = sample_store()
    first, second = tmp_path / "img1", tmp_path / "img2"
    save_fsimage(store, first)
    save_fsimage(load_fsimage(first), second)
    assert first.read_bytes() == second.read_bytes()
    assert not (tmp_path / "img1.tmp").exists()


def test_image_empty_namespace_is_header_only(tmp_path):
    dest = tmp_path / "img"
    save_fsimage(HotStore(), dest)
    assert dest.read_text() == "FSIMAGE v1 0\n"
    assert len(load_fsimage(dest)) == 0


def test_image_failed_save_leaves_destination_intact(tmp_path, monkeypatch):
    dest = tmp_path / "img"
    save_fsimage(sample_store(), dest)
    original = dest.read_bytes()

    def boom(fd):
        raise OSError("no space")

    monkeypatch.setattr(os, "fsync", boom)
    with pytest.raises(OSError):
        save_fsimage(HotStore(), dest)
    assert dest.read_bytes() == original
    assert not (tmp_path / "img.tmp").exists()


def test_image_golden_bytes(tmp_path):
    store = HotStore()
    store.create("/a/empty", 0, tick=0)
    store.create("/data/report.txt", 130 * 1024 * 1024, tick=42)
    store.access("/data/report.txt", tick=50)
    dest = tmp_path / "img"
    save_fsimage(store, dest)
    assert dest.read_text() == (
        "FSIMAGE v1 2\n"
        "/a/empty\t0\t67108864\t3\t0\t1\t\n"
        + GOLDEN_LINE + "\n"
    )


@pytest.mark.parametrize(
    "content, what",
    [
        ("", "header"),
        ("BOGUS v1 0\n", "not an image"),
        ("FSIMAGE v9 0\n", "version"),
        ("FSIMAGE v1 x\n", "count"),
        ("FSIMAGE v1 2\n/a\t0\t1\t1\t0\t1\t\n", "header says 2"),
        ("FSIMAGE v1 1\n/a\t0\t1\t1\t0\t1\t\n/b\t0\t1\t1\t0\t1\t\n", "header says 1"),
        ("FSIMAGE v1 1\ngarbage line\n", "line 2"),
        ("FSIMAGE v1 2\n/a\t0\t1\t1\t0\t1\t\n/a\t0\t1\t1\t0\t1\t\n", "duplicate"),
        ("FSIMAGE v1 1\n/a\t0\t1\t1\t0\t1\t", "truncated"),
    ],
)
def test_image_load_rejects_corruption(tmp_path, content, what):
    dest = tmp_path / "img"
    dest.write_text(content)
    with pytest.raises(CorruptImageError, match=what):
        load_fsimage(dest)


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


def test_log_append_and_scan(tmp_path):
    log = EditsLog(tmp_path / "edits")
    events = [OpEvent("CREATE", "/a", 0, 9), OpEvent("ACCESS", "/a", 1), OpEvent("DELETE", "/a", 4)]
    for e in events:
        log.append(e)
    assert list(log.entries()) == events
    with pytest.raises(OutOfOrderEditError):
        log.append(OpEvent("ACCESS", "/a", 4))
    log.close()
    # reopen recovers the last tick
    log2 = EditsLog(tmp_path / "edits")
    assert log2.last_tick == 4
    with pytest.raises(OutOfOrderEditError):
        log2.append(OpEvent("ACCESS", "/a", 2))
    log2.reset()
    assert list(log2.entries()) == []
    log2.append(OpEvent("CREATE", "/b", 0, 1))
    log2.close()


def test_log_reads_its_last_tick_from_the_final_line(tmp_path):
    path = tmp_path / "edits"
    assert EditsLog(path).last_tick == -1
    long_path = "/" + "x" * 10_000  # longer than one read back from the end
    log = EditsLog(path)
    for event in [OpEvent("CREATE", "/a", 3, 1), OpEvent("CREATE", long_path, 8, 2)]:
        log.append(event)
    log.close()
    assert EditsLog(path).last_tick == 8
    path.write_bytes(path.read_bytes() + b"ACCESS /a 11")  # no final newline
    assert EditsLog(path).last_tick == 11
    path.write_bytes(b"")
    assert EditsLog(path).last_tick == -1


def test_log_rejects_corruption(tmp_path):
    path = tmp_path / "edits"
    path.write_text("CREATE /a 5 0\nnot a line\n")
    with pytest.raises(CorruptLogError, match="line 2"):
        list(EditsLog(path).entries())
    path.write_text("CREATE /a 5 7\nACCESS /a 7\n")
    with pytest.raises(CorruptLogError, match="not increasing"):
        list(EditsLog(path).entries())


def test_replay_empty_log_leaves_base_unchanged():
    base = HotStore()
    base.create("/a", 5, 0)
    before = {r.path: r for r in base}
    assert replay_edits(base, []) is base
    assert {r.path: r for r in base} == before


def test_replay_create_then_delete_yields_no_record():
    base = HotStore()
    events = [OpEvent("CREATE", "/tmp/x", 0, 9), OpEvent("DELETE", "/tmp/x", 1)]
    assert len(replay_edits(base, events)) == 0


def test_replay_is_strict():
    base = HotStore()
    with pytest.raises(CorruptLogError, match="ACCESS /ghost"):
        replay_edits(base, [OpEvent("ACCESS", "/ghost", 0)])
    base.create("/a", 1, 0)
    with pytest.raises(CorruptLogError, match="CREATE /a"):
        replay_edits(base, [OpEvent("CREATE", "/a", 1, 1)])
    with pytest.raises(CorruptLogError, match="DELETE /b"):
        replay_edits(base, [OpEvent("DELETE", "/b", 2)])


def test_checkpoint_plus_log_replay_equals_live(tmp_path):
    # the recovery identity: image at last checkpoint + later edits = live state
    for seed in range(10):
        rng = random.Random(seed)
        clock = LogicalClock()
        store = HotStore()
        log = EditsLog(tmp_path / f"edits-{seed}")
        image = tmp_path / f"img-{seed}"
        save_fsimage(store, image)
        for _ in range(1000):
            roll = rng.random()
            live = [r.path for r in store]
            if roll < 0.5 or not live:
                path = f"/t/{rng.randrange(200):03d}"
                if path not in store:
                    tick = clock.tick()
                    store.create(path, rng.randrange(10**10), tick)
                    log.append(OpEvent("CREATE", path, tick, store.get(path).length))
            elif roll < 0.8:
                path = rng.choice(live)
                tick = clock.tick()
                store.access(path, tick)
                log.append(OpEvent("ACCESS", path, tick))
            elif roll < 0.95:
                path = rng.choice(live)
                tick = clock.tick()
                store.remove(path)
                log.append(OpEvent("DELETE", path, tick))
            else:
                save_fsimage(store, image)
                log.reset()
        recovered = replay_edits(load_fsimage(image), log.entries())
        assert {r.path: r for r in recovered} == {r.path: r for r in store}
        log.close()


# -- cold store ------------------------------------------------------------

def cold_records(n, prefix="/c"):
    store = HotStore()
    clock = LogicalClock()
    return [store.create(f"{prefix}/{i:04d}", i * 10, clock.tick()) for i in range(n)]


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
    old, new = cold_records(1)[0], cold_records(1)[0]
    new.count = 99
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


class FailingFile:
    """Write-through wrapper that fails after leaking a partial write."""

    def __init__(self, real):
        self._real = real

    def write(self, data):
        self._real.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._real, name)


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
