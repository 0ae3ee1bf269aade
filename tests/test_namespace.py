"""Hot-tier model: block splitting, clock, path rules, store bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from tiermeta import namespace
from tiermeta.errors import (
    FileTooLargeError,
    InvalidPathError,
    NotInHotTierError,
    PathExistsError,
)
from tiermeta.namespace import (
    BLOCK_INDEX_BITS,
    DEFAULT_BLOCK_SIZE,
    MAX_BLOCKS_PER_FILE,
    SHARED_VALUES_CAP,
    HotStore,
    LogicalClock,
    estimate_memory,
    share,
    split_blocks,
    validate_path,
)

MIB = 1024 * 1024


def test_split_130mib_file():
    blocks = split_blocks(130 * MIB, DEFAULT_BLOCK_SIZE, 42, 3, 2)
    assert [b.size for b in blocks] == [64 * MIB, 64 * MIB, 2 * MIB]
    assert [b.block_id for b in blocks] == [(42 << BLOCK_INDEX_BITS) | i for i in range(3)]
    assert all(b.generation_stamp == 42 for b in blocks)
    # replication 3 capped at 2 nodes, replicas on distinct nodes
    assert all(len(b.replicas) == 2 and len(set(b.replicas)) == 2 for b in blocks)


def test_split_zero_length_has_no_blocks():
    assert split_blocks(0, DEFAULT_BLOCK_SIZE, 0, 3, 2) == ()


def test_split_exact_multiple():
    blocks = split_blocks(64 * MIB, DEFAULT_BLOCK_SIZE, 0, 3, 2)
    assert len(blocks) == 1
    assert blocks[0].size == 64 * MIB


def test_split_rejects_oversized_file():
    with pytest.raises(FileTooLargeError):
        split_blocks(MAX_BLOCKS_PER_FILE + 1, 1, 0, 3, 2)


@given(
    n_blocks=st.integers(min_value=0, max_value=500),
    tail=st.integers(min_value=1, max_value=256 * MIB),
    block_size=st.integers(min_value=1, max_value=256 * MIB),
    tick=st.integers(min_value=0, max_value=2**40),
    replication=st.integers(min_value=1, max_value=5),
    nodes=st.integers(min_value=1, max_value=8),
)
def test_split_block_arithmetic(n_blocks, tail, block_size, tick, replication, nodes):
    # length chosen so the file has n_blocks blocks, the last min(tail, block_size) long
    length = 0 if n_blocks == 0 else (n_blocks - 1) * block_size + min(tail, block_size)
    blocks = split_blocks(length, block_size, tick, replication, nodes)
    assert len(blocks) == n_blocks
    assert sum(b.size for b in blocks) == length
    assert all(b.size == block_size for b in blocks[:-1])
    if blocks:
        assert 1 <= blocks[-1].size <= block_size
    ids = [b.block_id for b in blocks]
    assert ids == sorted(set(ids))
    for b in blocks:
        assert b.block_id >> BLOCK_INDEX_BITS == tick
        assert len(b.replicas) == min(replication, nodes)
        assert len(set(b.replicas)) == len(b.replicas)
        assert all(0 <= r < nodes for r in b.replicas)


def test_clock_ticks_once_per_event():
    clock = LogicalClock()
    assert [clock.tick() for _ in range(3)] == [0, 1, 2]
    assert clock.tick_at(10) == 10
    assert clock.now == 11
    with pytest.raises(ValueError):
        clock.tick_at(5)


def test_path_validation():
    validate_path("/a/b.c")
    for bad in ("", "relative/x", "/sp ace", "/ta\tb", "/nl\n", "/nul\x00"):
        with pytest.raises(InvalidPathError):
            validate_path(bad)


def test_memory_estimate_scales_linearly():
    assert estimate_memory(0, 600) == 0
    assert estimate_memory(1, 600) == 600
    assert estimate_memory(10, 600) == 6000
    with pytest.raises(ValueError):
        estimate_memory(-1, 600)


def test_memory_estimate_matches_capacity_claims():
    # 1.8M records should land within 10% of 1 GB,
    # the 1.26M threshold within 10% of 700 MB (decimal units)
    assert abs(estimate_memory(1_800_000, 600) - 1_000_000_000) <= 100_000_000
    assert abs(estimate_memory(1_260_000, 600) - 700_000_000) <= 70_000_000


def test_create_counts_as_first_access():
    store = HotStore()
    record = store.create("/x", 100, tick=5)
    assert record.count == 1
    assert record.last_access == 5


def test_access_bumps_bookkeeping():
    store = HotStore()
    store.create("/x", 100, tick=0)
    record = store.access("/x", tick=7)
    assert (record.last_access, record.count) == (7, 2)
    record = store.access("/x", tick=9)
    assert (record.last_access, record.count) == (9, 3)


def test_store_rejections():
    store = HotStore()
    store.create("/x", 1, tick=0)
    with pytest.raises(PathExistsError):
        store.create("/x", 1, tick=1)
    with pytest.raises(NotInHotTierError):
        store.access("/missing", tick=2)
    with pytest.raises(NotInHotTierError):
        store.remove("/missing")
    with pytest.raises(ValueError):
        store.create("/neg", -1, tick=3)


def test_store_against_dict_model():
    import random

    rng = random.Random(11)
    store = HotStore()
    model: dict[str, list[int]] = {}  # path -> [last_access, count]
    clock = LogicalClock()
    for _ in range(2000):
        path = f"/m/{rng.randrange(40)}"
        op = rng.random()
        if op < 0.4:
            if path in model:
                with pytest.raises(PathExistsError):
                    store.create(path, 1, clock.now)
            else:
                t = clock.tick()
                store.create(path, rng.randrange(10**9), t)
                model[path] = [t, 1]
        elif op < 0.8:
            if path in model:
                t = clock.tick()
                store.access(path, t)
                model[path][0] = t
                model[path][1] += 1
            else:
                with pytest.raises(NotInHotTierError):
                    store.access(path, clock.now)
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


# -- shared values ---------------------------------------------------------


def test_created_records_on_one_ring_share_their_replicas(empty_shared_tables):
    store = HotStore()  # 2 nodes: even block ids start on node 0, odd on node 1
    a = store.create("/r/a", 10, tick=0)
    b = store.create("/r/b", 10, tick=2)
    c = store.create("/r/c", 3 * DEFAULT_BLOCK_SIZE, tick=4)
    assert a.blocks[0].replicas == (0, 1)
    assert b.blocks[0].replicas is a.blocks[0].replicas
    assert c.blocks[0].replicas is a.blocks[0].replicas
    assert c.blocks[1].replicas == (1, 0)
    assert c.blocks[1].replicas is share((1, 0))
    assert c.blocks[2].replicas is a.blocks[0].replicas


def test_share_keeps_the_first_object_until_the_cap(empty_shared_tables):
    first = tuple([7, 8])
    assert share(first) is first
    assert share(tuple([7, 8])) is first
    for i in range(SHARED_VALUES_CAP + 10):
        share(1000 + i)
    assert len(namespace._shared_values) == SHARED_VALUES_CAP
    late = tuple([9, 10])
    assert share(late) is late
    assert share(tuple([9, 10])) is not late  # past the cap nothing new is kept

