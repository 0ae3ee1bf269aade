"""Separation policy and the two-tier store facade.

The separation predicate is checked against an independent brute-force
oracle that evaluates keep <=> recent or (count > mean) with exact rational
arithmetic, so the integer cross-multiplication in the implementation is
never trusted with verifying itself.
"""

import errno
import os
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from conftest import FailingFile

from tiermeta import coldstore, editlog, recordio, tiering
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import OP_ACCESS, OP_CREATE, OP_DELETE, EditsLog, OpEvent
from tiermeta.errors import (
    ColdStoreWriteFailureError,
    EmptyStoreError,
    FileTooLargeError,
    InvalidPathError,
    NotFoundError,
    PathExistsError,
    TierMetaError,
)
from tiermeta.fsimage import read_commit
from tiermeta.namespace import (
    BLOCK_SIZE,
    BYTES_PER_RECORD,
    MAX_BLOCKS_PER_FILE,
    HotStore,
    MetadataRecord,
)
from tiermeta.server import COLD_NAME, EDITS_NAME, IMAGE_NAME, open_store
from tiermeta.tiering import TieredStore, TieringConfig, partition_records


def oracle_partition(records, now, window):
    """Reference implementation: exact mean via Fraction, no shortcuts."""
    records = list(records)
    mean = Fraction(sum(r.count for r in records), len(records))
    kept, evicted = [], []
    for r in records:
        recent = (now - r.last_access) <= window
        above_mean = Fraction(r.count) > mean
        (kept if recent or above_mean else evicted).append(r)
    return kept, evicted


def plain_record(path, count, last_access):
    return MetadataRecord(path=path, length=0, created=0, last_access=last_access, count=count)


def hot_of(records):
    """A hot tier holding ``records``, in their order."""
    hot = HotStore()
    for record in records:
        hot.insert(record)
    return hot


# Six-record worked example: now=100, W=20, counts sum 24 so mean is 4.0.
# r1 and r5 and r3 are recent; r6 is over the mean; r2 is neither; r4 sits
# exactly on the mean and the tie goes to eviction.
EXAMPLE = [
    plain_record("/r1", count=10, last_access=95),
    plain_record("/r2", count=1, last_access=10),
    plain_record("/r3", count=1, last_access=90),
    plain_record("/r4", count=4, last_access=50),
    plain_record("/r5", count=2, last_access=99),
    plain_record("/r6", count=6, last_access=30),
]


def test_worked_example():
    kept, evicted = partition_records(hot_of(EXAMPLE), now=100, window=20)
    assert sorted(evicted) == ["/r2", "/r4"]
    assert sorted(kept) == ["/r1", "/r3", "/r5", "/r6"]


def test_worked_example_against_oracle():
    kept, evicted = oracle_partition(EXAMPLE, now=100, window=20)
    assert sorted(r.path for r in evicted) == ["/r2", "/r4"]
    assert sorted(r.path for r in kept) == ["/r1", "/r3", "/r5", "/r6"]


def test_tie_with_mean_is_evicted():
    # both records sit exactly on the mean and neither is recent
    records = [plain_record("/a", 4, 0), plain_record("/b", 4, 1)]
    kept, evicted = partition_records(hot_of(records), now=100, window=10)
    assert kept == []
    assert len(evicted) == 2


def test_singleton_is_its_own_mean():
    record = plain_record("/only", 7, 0)
    kept, evicted = partition_records(hot_of([record]), now=100, window=10)
    assert (kept, evicted) == ([], ["/only"])
    kept, evicted = partition_records(hot_of([record]), now=5, window=10)
    assert (kept, evicted) == (["/only"], [])


def test_all_recent_keeps_everything():
    records = [plain_record(f"/r{i}", 1, 90 + i) for i in range(5)]
    kept, evicted = partition_records(hot_of(records), now=100, window=50)
    assert len(kept) == 5 and evicted == []


def test_empty_tier_has_no_mean():
    with pytest.raises(EmptyStoreError):
        partition_records(HotStore(), now=0, window=0)


def test_partition_matches_oracle_on_random_instances():
    rng = random.Random(17)
    for case in range(200):
        n = rng.randrange(1, 400)
        now = rng.randrange(1, 10**6)
        window = rng.randrange(0, now)
        records = [
            plain_record(
                f"/p/{i}",
                count=rng.choice((1, 1, 1, rng.randrange(1, 50))),
                last_access=rng.randrange(0, now),
            )
            for i in range(n)
        ]
        kept, evicted = partition_records(hot_of(records), now, window)
        oracle_kept, oracle_evicted = oracle_partition(records, now, window)
        assert kept == [r.path for r in oracle_kept]
        assert evicted == [r.path for r in oracle_evicted]
        # partition, not a copy or a filter
        assert len(kept) + len(evicted) == n
        assert set(kept) | set(evicted) == {r.path for r in records}


def test_mean_uses_state_before_eviction():
    # counts 1 and 100: mean 50.5 keeps only the busy record; had the mean
    # been recomputed after evicting /idle it would still hold, so pin the
    # other direction too: three records where eviction shifts the mean.
    records = [plain_record("/idle", 1, 0), plain_record("/busy", 100, 0)]
    kept, evicted = partition_records(hot_of(records), now=1000, window=10)
    assert kept == ["/busy"]
    assert evicted == ["/idle"]


# -- facade ------------------------------------------------------------------


def make_store(tmp_path, threshold=8, window=None):
    config = TieringConfig(threshold_records=threshold, recency_window=window)
    return TieredStore(ColdStore(tmp_path / "fsimage2"), config)


def test_window_defaults_to_three_quarters_of_threshold():
    config = TieringConfig(threshold_records=1_200_000)
    assert config.recency_window == 900_000
    assert TieringConfig(threshold_records=8, recency_window=2).recency_window == 2


def test_maybe_separate_fires_exactly_at_threshold(tmp_path):
    store = make_store(tmp_path, threshold=8, window=6)
    for i in range(7):
        store.create(f"/f{i}", 1)
    assert store.metrics.events == []
    store.create("/f7", 1)  # the create that reaches the threshold runs the pass
    [outcome] = store.metrics.events
    assert outcome.hot_size_before == 8
    # window 6 of 8: creates at ticks 0..7, now=8, keep last_access >= 2
    assert outcome.evicted_count == 2
    assert len(store.hot) == 6
    assert sorted(store.cold.paths()) == ["/f0", "/f1"]
    assert outcome.freed_bytes_estimate == 2 * BYTES_PER_RECORD
    store.close()


def test_promotion_round_trip(tmp_path):
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    assert "/f0" in store.cold and "/f0" not in store.hot
    before = store.stat("/f0")[0]
    record = store.open("/f0")  # promotes
    assert record.path == "/f0"
    assert record.count == before.count + 1  # the promoting access counts
    assert record.last_access == store.clock - 1
    assert "/f0" in store.hot and "/f0" not in store.cold
    assert store.metrics.cold_hits == 1
    assert store.metrics.counters()["promotions"] == 1
    store.close()


def test_a_record_handed_out_is_a_snapshot(tmp_path):
    """A record keeps its values while its file is opened again, and refuses
    assignment, from either tier."""
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    records = [store.stat("/f0")[0], store.cold.get("/f0"), store.stat("/f3")[0],
               store.open("/f3")]
    before = [repr(record) for record in records]
    store.open("/f0")  # promotes
    store.open("/f0")
    store.open("/f3")
    assert [repr(record) for record in records] == before
    for record in records:
        with pytest.raises(AttributeError):
            record.count = 99
    store.close()


def test_a_replayed_access_with_a_past_tick_leaves_a_cold_path_cold(tmp_path):
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    cold_file = (tmp_path / "fsimage2").read_bytes()
    with pytest.raises(ValueError, match="tick 1 is in the past"):
        store.apply_event(OpEvent(OP_ACCESS, "/f0", 1))
    assert (tmp_path / "fsimage2").read_bytes() == cold_file  # no tombstone
    assert "/f0" in store.cold and "/f0" not in store.hot
    assert store.clock == 4 and store.metrics.cold_hits == 0
    store.apply_event(OpEvent(OP_ACCESS, "/f0", 9))  # a tick that is not past promotes
    assert store.hot.get("/f0") == MetadataRecord("/f0", 10, 0, 9, 2)
    assert "/f0" not in store.cold
    store.close()


def test_take_reads_and_tombstones_a_cold_record_in_one_call(tmp_path):
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    cold, cold_file = store.cold, tmp_path / "fsimage2"
    size = cold_file.stat().st_size
    assert cold.take("/nope") is None and cold_file.stat().st_size == size
    assert cold.take("/f0") == MetadataRecord("/f0", 10, 0, 0, 1)
    assert "/f0" not in cold and len(cold) == 0
    assert cold_file.read_bytes()[size:] == b"TOMB /f0\n"
    assert cold.take("/f0") is None
    store.close()


def test_a_pass_holds_at_most_100_bytes_per_evicted_record(tmp_path):
    # the pass holds paths and offsets, not a record and a line per evicted
    # record; the cold index the spill grows is counted too
    store = make_store(tmp_path, threshold=1_000_000, window=10_000)
    for i in range(40_000):
        store.create(f"/s/{i:07d}", 1 + i)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        event = store.separate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert event.evicted_count == 30_000 and len(store.hot) == 10_000
    assert peak / event.evicted_count <= 100, f"{peak / event.evicted_count:.1f} B"
    store.close()


def test_stat_is_read_only(tmp_path):
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    clock_before = store.clock
    record, tier = store.stat("/f0")
    assert tier == "cold"
    assert record.count == 1
    assert "/f0" in store.cold  # no promotion
    record, tier = store.stat("/f3")
    assert tier == "hot"
    assert record.count == 1  # no bump
    assert store.clock == clock_before  # no tick
    with pytest.raises(NotFoundError):
        store.stat("/nope")
    store.close()


def test_create_collides_with_cold_records(tmp_path):
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    with pytest.raises(PathExistsError):
        store.create("/f0", 1)  # cold
    with pytest.raises(PathExistsError):
        store.create("/f3", 1)  # hot
    store.close()


def test_refused_operations_consume_no_tick(tmp_path):
    store = make_store(tmp_path, threshold=2, window=0)
    store.edits = EditsLog(tmp_path / "edits.log")
    store.create("/a", 1)
    store.create("/b", 1)  # its pass, window 0 and equal counts: both go cold
    store.open("/b")  # promotes
    assert "/a" in store.cold and "/b" in store.hot
    assert store.clock == 3
    too_large = MAX_BLOCKS_PER_FILE * BLOCK_SIZE + 1
    refused = [
        (FileTooLargeError, store.create, "/big", too_large),
        (ValueError, store.create, "/neg", -1),
        (InvalidPathError, store.create, "rel", 1),
        (PathExistsError, store.create, "/a", 1),  # cold
        (PathExistsError, store.create, "/b", 1),  # hot
        (NotFoundError, store.open, "/nope"),
        (NotFoundError, store.delete, "/nope"),
    ]
    for error, operation, *args in refused:
        with pytest.raises(error):
            operation(*args)
        assert store.clock == 3
    store.create("/c", 1)
    store.close()
    assert [e.tick for e in EditsLog(tmp_path / "edits.log").entries()] == [0, 1, 2, 3]


def test_delete_reaches_both_tiers(tmp_path):
    store = make_store(tmp_path, threshold=4, window=3)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0
    store.delete("/f0")  # cold
    store.delete("/f3")  # hot
    with pytest.raises(NotFoundError):
        store.delete("/f0")
    for path in ("/f0", "/f3"):
        with pytest.raises(NotFoundError):
            store.open(path)
    # deleted paths can be created again
    store.create("/f0", 1)
    store.close()


def test_separation_with_nothing_to_evict_warns(tmp_path, caplog):
    store = make_store(tmp_path, threshold=4, window=100)
    for i in range(4):
        store.create(f"/f{i}", 1)
    with caplog.at_level("WARNING"):
        outcome = store.separate()
    assert outcome.evicted_count == 0
    assert outcome.kept_count == 4
    assert len(store.hot) == 4
    assert any("evicted nothing" in m for m in caplog.messages)
    store.close()


def test_a_create_whose_pass_fails_is_applied_and_logged(tmp_path, caplog):
    config = TieringConfig(threshold_records=4, recency_window=3)
    store = open_store(tmp_path, config)
    for i in range(3):
        store.create(f"/f{i}", 10)

    def refuse(records):
        raise ColdStoreWriteFailureError("disk full")

    store.cold.append_records = refuse
    # reaches the threshold; its spill fails, and the create stands
    store.create("/f3", 10)
    assert "/f3" in store.hot
    assert "disk full" in caplog.text
    assert len(store.hot) == 4
    assert len(store.cold) == 0
    assert store.metrics.events == []
    logged = (tmp_path / EDITS_NAME).read_text().splitlines()
    assert [line.split()[1] for line in logged] == [f"/f{i}" for i in range(4)]
    store.close()
    reopened = open_store(tmp_path, config)
    try:
        assert sorted([*reopened.hot.paths(), *reopened.cold.paths()]) == [
            f"/f{i}" for i in range(4)
        ]
    finally:
        reopened.close()


def test_a_create_whose_checkpoint_fails_is_applied_and_logged(tmp_path, caplog, monkeypatch):
    config = TieringConfig(threshold_records=4, recency_window=3)
    store = open_store(tmp_path, config)
    for i in range(3):
        store.create(f"/f{i}", 10)

    def refuse(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tiering, "save_fsimage", refuse)
    # reaches the threshold; its pass spills /f0, its checkpoint fails, and the create stands
    store.create("/f3", 10)
    assert "/f3" in store.hot
    assert "checkpoint after a pass failed" in caplog.text
    assert store.cold.paths() == ["/f0"] and len(store.hot) == 3
    assert not (tmp_path / IMAGE_NAME).exists()
    logged = (tmp_path / EDITS_NAME).read_text().splitlines()
    assert [line.split()[1] for line in logged] == [f"/f{i}" for i in range(4)]
    store.close()
    monkeypatch.undo()
    reopened = open_store(tmp_path, config)  # the replayed log runs the pass again
    try:
        assert reopened.cold.paths() == ["/f0"]
        assert sorted(reopened.hot.paths()) == ["/f1", "/f2", "/f3"]
        assert reopened.clock == 4
    finally:
        reopened.close()


def edits_in(data_dir):
    return (data_dir / EDITS_NAME).read_bytes().count(b"\n")


def test_edits_log_stays_below_the_limit_fixed_at_the_last_image(tmp_path, monkeypatch):
    """After every acknowledged edit, across passes and reopens, edits.log holds
    fewer edits than the last image holds records, or than
    CHECKPOINT_MIN_EDITS if that is more."""
    monkeypatch.setattr(tiering, "CHECKPOINT_MIN_EDITS", 8)
    config = TieringConfig(threshold_records=40, recency_window=10)
    rng = random.Random(5)
    store = open_store(tmp_path, config)
    live, log_checkpoints = [], 0
    try:
        for i in range(3000):
            r = rng.random()
            if r < 0.01:
                store.close()
                store = open_store(tmp_path, config)
                continue
            if r < 0.25 or not live:
                live.append(f"/f{i}")
                store.create(live[-1], 10)
            elif r < 0.35:
                store.delete(live.pop(rng.randrange(len(live))))
            else:
                store.open(rng.choice(live))
                log_checkpoints += edits_in(tmp_path) == 0  # an OPEN runs no pass
            image = tmp_path / IMAGE_NAME
            image_records = int(image.read_bytes().split(b" ", 3)[2]) if image.exists() else 0
            assert edits_in(tmp_path) < max(image_records, 8), f"after edit {i}"
    finally:
        store.close()
    assert log_checkpoints > 20


def test_a_failed_log_length_checkpoint_waits_for_the_log_to_double(tmp_path, caplog,
                                                                     monkeypatch):
    monkeypatch.setattr(tiering, "CHECKPOINT_MIN_EDITS", 4)
    store = open_store(tmp_path, TieringConfig(threshold_records=100))
    store.create("/f", 10)
    real_save, attempts = tiering.save_fsimage, []

    def refuse(*args):
        attempts.append(edits_in(tmp_path))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tiering, "save_fsimage", refuse)
    for _ in range(11):
        store.open("/f")  # each one stands
    assert attempts == [4, 8]  # not one on each OPEN past 4
    assert caplog.text.count("checkpoint of a full edits.log failed") == 2
    assert edits_in(tmp_path) == 12 and not (tmp_path / IMAGE_NAME).exists()
    monkeypatch.setattr(tiering, "save_fsimage", real_save)  # the disk has room again
    for _ in range(3):
        store.open("/f")
    assert edits_in(tmp_path) == 15
    store.open("/f")  # the 16th edit
    assert edits_in(tmp_path) == 0 and read_commit(tmp_path / IMAGE_NAME)[0] == 16
    store.close()


def test_a_reopened_log_past_its_limit_checkpoints_on_the_first_edit(tmp_path, monkeypatch):
    store = open_store(tmp_path, TieringConfig(threshold_records=100))
    for i in range(6):
        store.create(f"/f{i}", 10)
    store.close()
    monkeypatch.setattr(tiering, "CHECKPOINT_MIN_EDITS", 4)
    store = open_store(tmp_path, TieringConfig(threshold_records=100))
    assert edits_in(tmp_path) == 6 and not (tmp_path / IMAGE_NAME).exists()  # the open wrote none
    store.open("/f0")
    assert edits_in(tmp_path) == 0 and read_commit(tmp_path / IMAGE_NAME)[0] == 7
    store.close()


@pytest.mark.parametrize("operation", ["open", "delete"])
def test_a_failed_cold_write_takes_no_tick(tmp_path, operation):
    config = TieringConfig(threshold_records=4, recency_window=3)
    store = open_store(tmp_path, config)
    for i in range(4):
        store.create(f"/f{i}", 10)  # the 4th spills /f0 and checkpoints
    store.open("/f1")  # an edit in the log

    def state():
        return (store.clock, (tmp_path / EDITS_NAME).read_bytes(),
                (tmp_path / COLD_NAME).read_bytes(), list(store.hot), store.cold.paths())

    before = state()
    store.cold._file = FailingFile(store.cold._file)  # the tombstone's write fails
    with pytest.raises(ColdStoreWriteFailureError):
        getattr(store, operation)("/f0")
    assert state() == before
    store.close()


@pytest.fixture
def file_io(monkeypatch):
    """A Counter of the store's file work while the test runs: ``os.pread``,
    ``os.fsync`` and ``os.replace`` calls, records decoded (one per
    ``decode_record`` call, and each row ``decode_lines`` returns),
    ``encode_record`` and ``parse_op_line`` calls, and bytes appended to
    ``edits.log``."""
    calls = Counter()

    def count(module, name, key):
        real = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(os, "pread", "pread")
    count(os, "fsync", "fsync")
    count(os, "replace", "replace")
    for module in (recordio, coldstore):
        count(module, "decode_record", "decode")
        count(module, "encode_record", "encode")
    count(editlog, "parse_op_line", "parse")
    real_decode_lines = recordio.decode_lines

    def decoding_lines(text):
        columns = real_decode_lines(text)
        calls["decode"] += len(columns[0]) if columns else 0
        return columns

    monkeypatch.setattr(recordio, "decode_lines", decoding_lines)
    real_append = EditsLog.append

    def appending(log, event):  # a checkpoint empties the log, so count each append
        before = log.path.stat().st_size if log.path.exists() else 0
        real_append(log, event)
        calls["edits_bytes"] += log.path.stat().st_size - before

    monkeypatch.setattr(EditsLog, "append", appending)
    return calls


def io_of(calls, store, operation, *args):
    """What ``operation(*args)`` on ``store`` does to its files: ``os.pread``
    calls, bytes onto ``fsimage2`` and onto ``edits.log``, ``os.fsync`` and
    ``os.replace`` calls, records decoded and ``encode_record`` calls."""
    calls.clear()
    cold_before = store.cold.path.stat().st_size
    operation(*args)
    return (calls["pread"], store.cold.path.stat().st_size - cold_before, calls["edits_bytes"],
            calls["fsync"], calls["replace"], calls["decode"], calls["encode"])


def test_file_io_per_operation(tmp_path, file_io, monkeypatch):
    """What each operation reads, writes, syncs, renames, decodes and encodes,
    on a store with an image: a change of work too small for wall time shows here."""
    store = open_store(tmp_path, TieringConfig(threshold_records=4, recency_window=0))
    for path in ("/f0", "/f1", "/f2", "/f3", "/h"):
        store.create(path, 10)  # the 4th spills all four and checkpoints

    def delete_unknown():
        with pytest.raises(NotFoundError):
            store.delete("/nope")

    table = {"hot OPEN": io_of(file_io, store, store.open, "/h"),
             "promotion": io_of(file_io, store, store.open, "/f0"),
             "hot STAT": io_of(file_io, store, store.stat, "/h"),
             "cold STAT": io_of(file_io, store, store.stat, "/f1"),
             "hot DELETE": io_of(file_io, store, store.delete, "/h"),
             "cold DELETE": io_of(file_io, store, store.delete, "/f1"),
             "unknown DELETE": io_of(file_io, store, delete_unknown),
             "CREATE, no pass": io_of(file_io, store, store.create, "/g0", 10)}
    store.create("/g1", 10)
    table["CREATE, pass and checkpoint"] = io_of(file_io, store, store.create, "/g2", 10)
    # this checkpoint fixes the log's limit at 2 edits: the image holds 1 record
    monkeypatch.setattr(tiering, "CHECKPOINT_MIN_EDITS", 2)
    store.checkpoint(store.image_path)
    store.open("/f0")
    table["OPEN that fills edits.log"] = io_of(file_io, store, store.open, "/f0")
    assert (tmp_path / EDITS_NAME).stat().st_size == 0
    # pread calls, bytes onto fsimage2, bytes onto edits.log, fsync, replace, decodes, encodes
    assert table == {
        "hot OPEN": (0, 0, 12, 0, 0, 0, 0),
        "promotion": (0, 9, 13, 0, 0, 1, 0),  # the line is read through the buffer; a tombstone
        "hot STAT": (0, 0, 0, 0, 0, 0, 0),
        "cold STAT": (0, 0, 0, 0, 0, 1, 0),
        "hot DELETE": (0, 0, 12, 0, 0, 0, 0),
        "cold DELETE": (1, 9, 13, 0, 0, 0, 0),  # one probe reads its path back; a tombstone
        "unknown DELETE": (0, 0, 0, 0, 0, 0, 0),
        "CREATE, no pass": (0, 0, 16, 0, 0, 0, 0),
        # three records spilled, the one kept written to the image; fsimage2 and
        # the image synced, the image renamed
        "CREATE, pass and checkpoint": (0, 76, 17, 2, 1, 0, 4),
        # the edit appended, then the checkpoint: the one image record written
        "OPEN that fills edits.log": (0, 0, 14, 2, 1, 0, 1),
    }
    store.close()


def test_file_io_per_record(tmp_path, file_io, monkeypatch):
    """How a pass, a checkpoint and a reopen scale with what they handle: each
    runs at two sizes, so a column that doubles is work per record and one
    that stays is work per operation. A reopen after many OPENs parses fewer
    edits than the image holds records, the limit that checkpoints the log."""
    config = TieringConfig(threshold_records=100, recency_window=0)

    def store_of(name, files):
        store = open_store(tmp_path / name, config)
        for i in range(files):
            store.create(f"/p{i}", 10)  # one block each; no pass below 100
        return store

    def reopen(store):
        store.close()
        file_io.clear()
        open_store(store.cold.path.parent, config).close()
        return file_io["pread"], file_io["decode"], file_io["parse"]

    table, reopens = {}, {}
    for n in (4, 8):
        store = store_of(f"run{n}", n)
        table[f"checkpoint of {n}"] = io_of(file_io, store, store.checkpoint, store.image_path)
        table[f"pass of {n}"] = io_of(file_io, store, store.separate)  # evicts all n
        store.close()
        reopens[f"{n} edits"] = reopen(store_of(f"edits{n}", n))
        store = store_of(f"image{n}", n)
        store.checkpoint(store.image_path)
        reopens[f"{n} image records"] = reopen(store)
        store = store_of(f"cold{n}", n)
        store.separate()
        store.checkpoint(store.image_path)
        reopens[f"{n} cold records"] = reopen(store)
        store = store_of(f"tombs{n}", n)
        store.separate()
        for i in range(n):
            store.delete(f"/p{i}")
        store.checkpoint(store.image_path)
        reopens[f"{n} cold records and {n} tombstones"] = reopen(store)
        store = store_of(f"opens{n}", n)
        with monkeypatch.context() as m:
            m.setattr(tiering, "CHECKPOINT_MIN_EDITS", 1)  # the limit: one edit per image record
            store.checkpoint(store.image_path)
            for i in range(4 * n - 1):  # a checkpoint after n, 2n and 3n OPENs
                store.open(f"/p{i % n}")
        reopens[f"{n} image records and {4 * n - 1} OPENs"] = reopen(store)
    # pread calls, bytes onto fsimage2, bytes onto edits.log, fsync, replace, decodes, encodes
    assert table == {
        "checkpoint of 4": (0, 0, 0, 2, 1, 0, 4),
        "checkpoint of 8": (0, 0, 0, 2, 1, 0, 8),
        "pass of 4": (0, 96, 0, 0, 0, 0, 4),
        "pass of 8": (0, 192, 0, 0, 0, 0, 8),
    }
    # a reopen's pread calls, records decoded and parse_op_line calls
    assert reopens == {
        "4 edits": (0, 0, 4),
        "8 edits": (0, 0, 8),
        "4 image records": (0, 4, 0),
        "8 image records": (0, 8, 0),
        "4 cold records": (0, 0, 0),
        "8 cold records": (0, 0, 0),
        "4 cold records and 4 tombstones": (4, 0, 0),  # each tombstone reads its path back
        "8 cold records and 8 tombstones": (8, 0, 0),
        "4 image records and 15 OPENs": (0, 4, 3),  # fewer parses than the limit of 4
        "8 image records and 31 OPENs": (0, 8, 7),
    }


def test_separate_on_empty_store_fails(tmp_path):
    store = make_store(tmp_path)
    with pytest.raises(EmptyStoreError):
        store.separate()
    store.close()


def test_mean_count(tmp_path):
    store = make_store(tmp_path, threshold=100)
    store.create("/a", 1)
    store.create("/b", 1)
    store.open("/a")
    store.open("/a")
    assert store.separate().mean_count == 2.0  # counts 3 and 1
    store.close()


class FlatReference:
    """Single-tier model: what the store would do with no separation at all."""

    def __init__(self):
        self.records: dict[str, list[int]] = {}  # path -> [count]

    def create(self, path):
        if path in self.records:
            return "exists"
        self.records[path] = [1]
        return "ok"

    def open(self, path):
        if path not in self.records:
            return "notfound"
        self.records[path][0] += 1
        return "ok"

    def delete(self, path):
        if path not in self.records:
            return "notfound"
        del self.records[path]
        return "ok"


def test_fuzz_against_flat_reference(tmp_path):
    """Random traces with forced separations behave like a flat namespace."""
    for seed in range(10):
        rng = random.Random(seed)
        store = TieredStore(
            ColdStore(tmp_path / f"c{seed}"),
            TieringConfig(threshold_records=30, recency_window=20),
        )
        ref = FlatReference()
        for _ in range(1000):
            path = f"/z/{rng.randrange(80):02d}"
            roll = rng.random()
            if roll < 0.45:
                expected = ref.create(path)
                try:
                    store.create(path, rng.randrange(1000))
                    got = "ok"
                except PathExistsError:
                    got = "exists"
            elif roll < 0.85:
                expected = ref.open(path)
                try:
                    store.open(path)
                    got = "ok"
                except NotFoundError:
                    got = "notfound"
            else:
                expected = ref.delete(path)
                try:
                    store.delete(path)
                    got = "ok"
                except NotFoundError:
                    got = "notfound"
            assert got == expected
            # tier disjointness and conservation after every step
            hot = set(store.hot.paths())
            cold = set(store.cold.paths())
            assert not hot & cold
            assert hot | cold == set(ref.records)
        assert store.metrics.events, "threshold 30 must force separations"
        # final per-record agreement, promotions included
        for path, (count,) in ref.records.items():
            record, _ = store.stat(path)
            assert record.count == count
        store.close()


def test_live_and_replay_agree(tmp_path):
    """Applying a live store's edits log to a fresh store rebuilds it exactly."""
    config = TieringConfig(threshold_records=30, recency_window=20)
    too_large = MAX_BLOCKS_PER_FILE * BLOCK_SIZE + 1
    for seed in range(10):
        rng = random.Random(seed)
        live = TieredStore(ColdStore(tmp_path / f"live{seed}"), config)
        live.edits = EditsLog(tmp_path / f"edits{seed}")
        seen = set()  # (operation, where the path was, or the refusal)
        for _ in range(1000):
            path = f"/z/{rng.randrange(80):02d}"
            where = "hot" if path in live.hot else "cold" if path in live.cold else "none"
            roll = rng.random()
            try:
                if roll < 0.45:
                    operation = "create"
                    trouble = rng.random()
                    if trouble < 0.05:
                        path = path[1:]  # not absolute
                    length = too_large if 0.05 <= trouble < 0.1 else rng.randrange(10**9)
                    live.create(path, length)
                elif roll < 0.85:
                    operation = "open"
                    live.open(path)
                else:
                    operation = "delete"
                    live.delete(path)
            except TierMetaError as exc:
                seen.add((operation, type(exc).__name__))
                continue
            seen.add((operation, where))
        assert seen == {
            ("create", "none"), ("create", "PathExistsError"),
            ("create", "InvalidPathError"), ("create", "FileTooLargeError"),
            ("open", "hot"), ("open", "cold"), ("open", "NotFoundError"),
            ("delete", "hot"), ("delete", "cold"), ("delete", "NotFoundError"),
        }

        replica = TieredStore(ColdStore(tmp_path / f"replica{seed}"), config)
        for event in live.edits.entries():
            replica.apply_event(event)

        assert list(replica.hot) == list(live.hot)
        assert sorted(replica.cold.paths()) == sorted(live.cold.paths())
        assert all(replica.cold.get(p) == live.cold.get(p) for p in live.cold.paths())
        assert replica.clock == live.clock
        for counter in ("creates", "deletes", "cold_hits", "events"):
            assert getattr(replica.metrics, counter) == getattr(live.metrics, counter)
        assert live.metrics.events, "threshold 30 must force separations"
        live.close()
        replica.close()


def test_the_store_runs_the_threshold_check_itself(tmp_path):
    """No caller runs a check: a plain store, a replica fed by apply_event and
    a store from open_store each run their own after every CREATE and DELETE,
    and the last one commits each pass with a checkpoint."""
    threshold = 20
    config = TieringConfig(threshold_records=threshold, recency_window=12)
    methods = {OP_CREATE: "create", OP_ACCESS: "open", OP_DELETE: "delete"}
    for seed in range(5):
        rng = random.Random(seed)
        plain = TieredStore(ColdStore(tmp_path / f"plain{seed}"), config)
        replica = TieredStore(ColdStore(tmp_path / f"replica{seed}"), config)
        data_dir = tmp_path / f"served{seed}"
        served = open_store(data_dir, config)
        for step in range(600):
            where = f"seed {seed}, step {step}"
            path = f"/h/{rng.randrange(60):02d}"
            roll = rng.random()
            op = OP_CREATE if roll < 0.5 else OP_ACCESS if roll < 0.8 else OP_DELETE
            args = (path, rng.randrange(1000)) if op == OP_CREATE else (path,)
            passes = len(plain.metrics.events)
            outcomes = []
            for store in (plain, served):
                try:
                    getattr(store, methods[op])(*args)
                    outcomes.append("ok")
                except (PathExistsError, NotFoundError) as exc:
                    outcomes.append(type(exc).__name__)
            assert outcomes[0] == outcomes[1], where
            if outcomes[0] != "ok":
                continue
            replica.apply_event(OpEvent(op, path, plain.clock - 1, *args[1:]))
            for store in (replica, served):
                assert list(store.hot.paths()) == list(plain.hot.paths()), where
                assert store.metrics.events == plain.metrics.events, where
            ran = plain.metrics.events[passes:]
            if op == OP_ACCESS:
                assert not ran, where  # a promotion runs no check
                continue
            if not ran:
                assert len(plain.hot) < threshold, where
                continue
            # the edit took the hot tier to the threshold, and one pass ran on it
            [event] = ran
            assert event.hot_size_before >= threshold, where
            assert len(plain.hot) == event.hot_size_before - event.evicted_count, where
            assert (data_dir / EDITS_NAME).read_bytes() == b"", where
            assert read_commit(data_dir / IMAGE_NAME)[0] == served.clock, where
        assert len(plain.metrics.events) > 5, "the sequence must reach the threshold often"
        for store in (plain, replica, served):
            store.close()


def test_live_and_replay_agree_when_every_cold_key_collides(tmp_path, monkeypatch):
    monkeypatch.setattr(coldstore, "_key", lambda path: 1)
    test_live_and_replay_agree(tmp_path)
