"""Hot-tier model: block splitting, clock, path rules, store bookkeeping."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from tiermeta.coldstore import ColdStore
from tiermeta.editlog import OP_ACCESS, OP_CREATE, OpEvent
from tiermeta.errors import (
    FileTooLargeError,
    InvalidPathError,
    NotInHotTierError,
    PathExistsError,
)
from tiermeta.namespace import (
    BLOCK_INDEX_BITS,
    BLOCK_SIZE,
    DATANODE_COUNT,
    MAX_BLOCKS_PER_FILE,
    REPLICATION,
    HotStore,
    MetadataRecord,
    estimate_memory,
    split_blocks,
    validate_path,
)
from tiermeta.tiering import TieredStore, partition_records

MIB = 1024 * 1024


def test_split_130mib_file():
    blocks = split_blocks(130 * MIB, 42)
    assert [b.size for b in blocks] == [64 * MIB, 64 * MIB, 2 * MIB]
    assert [b.block_id for b in blocks] == [(42 << BLOCK_INDEX_BITS) | i for i in range(3)]
    assert all(b.generation_stamp == 42 for b in blocks)
    # replication 3 capped at 2 nodes, replicas on distinct nodes
    assert all(len(b.replicas) == 2 and len(set(b.replicas)) == 2 for b in blocks)


def test_split_zero_length_has_no_blocks():
    assert split_blocks(0, 0) == ()


def test_split_exact_multiple():
    blocks = split_blocks(64 * MIB, 0)
    assert len(blocks) == 1
    assert blocks[0].size == 64 * MIB


def test_split_rejects_oversized_file():
    with pytest.raises(FileTooLargeError):
        split_blocks(MAX_BLOCKS_PER_FILE * BLOCK_SIZE + 1, 0)


@given(
    n_blocks=st.integers(min_value=0, max_value=500),
    tail=st.integers(min_value=1, max_value=BLOCK_SIZE),
    tick=st.integers(min_value=0, max_value=2**40),
)
def test_split_block_arithmetic(n_blocks, tail, tick):
    # length chosen so the file has n_blocks blocks, the last tail long
    length = 0 if n_blocks == 0 else (n_blocks - 1) * BLOCK_SIZE + tail
    blocks = split_blocks(length, tick)
    assert len(blocks) == n_blocks
    assert sum(b.size for b in blocks) == length
    assert all(b.size == BLOCK_SIZE for b in blocks[:-1])
    if blocks:
        assert 1 <= blocks[-1].size <= BLOCK_SIZE
    ids = [b.block_id for b in blocks]
    assert ids == sorted(set(ids))
    for b in blocks:
        assert b.block_id >> BLOCK_INDEX_BITS == tick
        assert len(b.replicas) == min(REPLICATION, DATANODE_COUNT)
        assert len(set(b.replicas)) == len(b.replicas)
        assert all(0 <= r < DATANODE_COUNT for r in b.replicas)


def test_clock_ticks_once_per_event(tmp_path):
    store = TieredStore(ColdStore(tmp_path / "c2"))
    store.create("/a", 1)
    store.open("/a")
    store.delete("/a")
    assert store.clock == 3
    store.apply_event(OpEvent(OP_CREATE, "/b", 10, 1))  # a replayed tick: the clock jumps past it
    assert store.clock == 11
    with pytest.raises(ValueError, match=r"tick 5 is in the past \(clock is at 11\)"):
        store.apply_event(OpEvent(OP_ACCESS, "/b", 5))
    assert store.clock == 11 and store.hot.get("/b").count == 1
    store.close()


def test_path_validation():
    validate_path("/a/b.c")
    for bad in ("", "relative/x", "/sp ace", "/ta\tb", "/nl\n", "/nul\x00"):
        with pytest.raises(InvalidPathError):
            validate_path(bad)


def test_memory_estimate_scales_linearly():
    assert estimate_memory(0) == 0
    assert estimate_memory(1) == 600
    assert estimate_memory(10) == 6000
    with pytest.raises(ValueError):
        estimate_memory(-1)


def test_memory_estimate_matches_capacity_claims():
    # 1.8M records should land within 10% of 1 GB,
    # the 1.26M threshold within 10% of 700 MB (decimal units)
    assert abs(estimate_memory(1_800_000) - 1_000_000_000) <= 100_000_000
    assert abs(estimate_memory(1_260_000) - 700_000_000) <= 70_000_000


def test_create_counts_as_first_access():
    store = HotStore()
    store.create("/x", 100, tick=5)
    record = store.get("/x")
    assert record.count == 1
    assert record.last_access == 5


def test_access_bumps_bookkeeping():
    store = HotStore()
    store.create("/x", 100, tick=0)
    store.access("/x", tick=7)
    record = store.get("/x")
    assert (record.last_access, record.count) == (7, 2)
    store.access("/x", tick=9)
    record = store.get("/x")
    assert (record.last_access, record.count) == (9, 3)


def test_store_rejections():
    store = HotStore()
    store.create("/x", 1, tick=0)
    with pytest.raises(PathExistsError):
        store.create("/x", 1, tick=1)
    assert store.access("/missing", tick=2) is False
    assert "/missing" not in store
    with pytest.raises(NotInHotTierError):
        store.remove("/missing")
    with pytest.raises(ValueError):
        store.create("/neg", -1, tick=3)


def test_store_against_dict_model():
    import random

    rng = random.Random(11)
    store = HotStore()
    model: dict[str, list[int]] = {}  # path -> [last_access, count]
    now = 0  # the next tick
    for _ in range(2000):
        path = f"/m/{rng.randrange(40)}"
        op = rng.random()
        if op < 0.4:
            if path in model:
                with pytest.raises(PathExistsError):
                    store.create(path, 1, now)
            else:
                store.create(path, rng.randrange(10**9), now)
                model[path] = [now, 1]
                now += 1
        elif op < 0.8:
            if path in model:
                assert store.access(path, now) is True
                model[path][0] = now
                model[path][1] += 1
                now += 1
            else:
                assert store.access(path, now) is False
        else:
            if path in model:
                store.remove(path)
                del model[path]
    assert len(store) == len(model)
    for path, (la, count) in model.items():
        record = store.get(path)
        assert record is not None
        assert (record.last_access, record.count) == (la, count)
    assert store.total_access_count() == sum(c for _, c in model.values())


def test_columns_against_a_dict_oracle():
    """Random creates, accesses, removes and inserts over 40 paths, so slots
    are freed and reused; after each step every read agrees with a dict."""
    rng = random.Random(19)
    store = HotStore()
    oracle: dict[str, MetadataRecord] = {}  # insertion-ordered, as the store iterates
    universe = [f"/p/{i:02d}" for i in range(40)]
    tick = 0
    for step in range(2000):
        path = rng.choice(universe)
        op = rng.choice(("create", "access", "remove", "insert"))
        tick += 1
        if op == "create" and path not in oracle:
            length = rng.choice((0, 1, rng.randrange(1, 10**12)))
            store.create(path, length, tick)
            oracle[path] = MetadataRecord(path, length, tick if length else 0, tick, 1)
        elif op == "access" and path in oracle:
            store.access(path, tick)
            old = oracle[path]
            oracle[path] = MetadataRecord(path, old.length, old.created, tick, old.count + 1)
        elif op == "remove" and path in oracle:
            store.remove(path)
            del oracle[path]
        elif op == "insert" and path not in oracle:  # a promotion
            created = rng.randrange(tick)
            record = MetadataRecord(path, 1, created, rng.randrange(created, tick),
                                    rng.randrange(1, 6))
            store.insert(record)
            oracle[path] = record
        where = f"step {step}: {op} {path}"
        assert len(store) == len(oracle), where
        for p in universe:
            assert (p in store) == (p in oracle), where
            assert store.get(p) == oracle.get(p), where
        assert list(store.paths()) == list(oracle), where
        assert list(store) == list(oracle.values()), where
        total = sum(r.count for r in oracle.values())
        assert store.total_access_count() == total, where
        if oracle:
            # the rule restated (README "The separation rule"): a file goes
            # iff now - last_access > window and count * n <= total
            now, window, n = tick + 1, rng.randrange(tick + 1), len(oracle)
            out = [p for p, r in oracle.items()
                   if now - r.last_access > window and r.count * n <= total]
            kept = [p for p in oracle if p not in out]
            assert partition_records(store, now, window) == (kept, out), where


def test_an_accessed_record_holds_at_most_110_bytes():
    # a slotted record with boxed length, created and last_access held 184 B
    paths = [f"/m/{i:07d}" for i in range(20_000)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        store = HotStore()
        for i, path in enumerate(paths):
            store.create(path, 1 + i * 4096, i)
        for i, path in enumerate(paths):
            store.access(path, 20_000 + i)
        held = (tracemalloc.get_traced_memory()[0] - base) / len(paths)
    finally:
        tracemalloc.stop()
    assert len(store) == len(paths)
    assert held <= 110, f"{held:.1f} B per record"


# -- derived blocks --------------------------------------------------------


def test_created_record_holds_its_tick_and_derives_its_blocks():
    store = HotStore()
    store.create("/d/a", 130 * MIB, tick=42)
    record = store.get("/d/a")
    assert record.created == 42
    assert record.blocks == split_blocks(130 * MIB, 42)
    store.access("/d/a", tick=50)
    assert record.created == 42
    assert record.blocks == split_blocks(130 * MIB, 42)
    store.create("/d/empty", 0, tick=51)
    assert store.get("/d/empty").created == 0


def test_create_refuses_a_file_past_the_block_limit():
    store = HotStore()
    with pytest.raises(FileTooLargeError):
        store.create("/big", MAX_BLOCKS_PER_FILE * BLOCK_SIZE + 1, tick=0)
    assert "/big" not in store and len(store) == 0
    # the largest file allowed is still created, without building its blocks
    store.create("/max", MAX_BLOCKS_PER_FILE * BLOCK_SIZE, tick=1)
    assert store.get("/max").created == 1
