"""Crash recovery: the image commits both tiers, and a crash at any write
recovers exactly the acknowledged state."""

import os
import re
import shutil

import pytest

from tiermeta import tiering
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import EditsLog
from tiermeta.errors import CorruptImageError, CorruptLogError
from tiermeta.server import COLD_NAME, EDITS_NAME, IMAGE_NAME, open_store
from tiermeta.tiering import TieringConfig

CONFIG = TieringConfig(threshold_records=10, recency_window=4)


def tiers(store):
    """Each tier as path -> (length, created, last_access, count), and the clock."""
    def fields(records):
        return {r.path: (r.length, r.created, r.last_access, r.count) for r in records}

    return fields(store.hot), fields(store.cold.records()), store.clock


def reopened_tiers(data_dir, config=CONFIG):
    store = open_store(data_dir, config)
    try:
        return tiers(store)
    finally:
        store.close()


def test_a_promotion_after_the_checkpoint_survives_a_crash(tmp_path):
    store = open_store(tmp_path, CONFIG)
    for i in range(10):
        store.create(f"/p/{i}", 10)  # the 10th spills and checkpoints
    promoted = store.cold.paths()[0]
    store.open(promoted)  # its tombstone is written past the committed length
    live = tiers(store)
    store.close()  # a crash: no checkpoint
    assert promoted in live[0]
    assert reopened_tiers(tmp_path) == live


class Crash(Exception):
    pass


def test_a_spill_after_the_checkpoint_is_in_one_tier_after_a_crash(tmp_path, monkeypatch):
    store = open_store(tmp_path, CONFIG)
    for i in range(15):
        store.create(f"/s/{i:02d}", 10)  # the 10th spills and checkpoints

    def crash(image_path):
        raise Crash

    monkeypatch.setattr(store, "checkpoint", crash)
    with pytest.raises(Crash):
        store.create("/s/15", 10)  # the second spill, then the crash before its checkpoint
    assert len(store.metrics.events) == 2
    live = tiers(store)
    store.close()
    assert len(live[1]) == 12
    for _ in range(2):  # the reopen's own spill is past the committed length again
        assert reopened_tiers(tmp_path) == live


@pytest.mark.parametrize(
    "log, problem",
    [
        ("CREATE /a 5 3\nACCESS /ghost 4\n", "line 2: ACCESS /ghost: no such path: /ghost"),
        ("CREATE /a 5 3\nCREATE /a 5 4\n", "line 2: CREATE /a: path already exists: /a"),
        ("DELETE /a 3\n", "line 1: DELETE /a: no such path: /a"),
    ],
    ids=["access", "create", "delete"],
)
def test_a_logged_edit_that_cannot_apply_fails_the_open(tmp_path, log, problem):
    (tmp_path / EDITS_NAME).write_text(log)
    with pytest.raises(CorruptLogError, match=re.escape(f"{tmp_path / EDITS_NAME}: {problem}")):
        open_store(tmp_path)


def test_a_cold_file_shorter_than_the_committed_length_fails_the_open(tmp_path):
    store = open_store(tmp_path, CONFIG)
    for i in range(10):
        store.create(f"/p/{i}", 10)  # the 10th spills and checkpoints
    store.close()
    cold, image = tmp_path / COLD_NAME, tmp_path / IMAGE_NAME
    committed = cold.stat().st_size
    os.truncate(cold, committed - 1)
    with pytest.raises(CorruptImageError, match=re.escape(
        f"{cold} holds {committed - 1} bytes, {image} commits {committed}"
    )):
        open_store(tmp_path, CONFIG)
    cold.unlink()
    with pytest.raises(CorruptImageError, match=re.escape(f"{cold} holds 0 bytes")):
        open_store(tmp_path, CONFIG)
    assert not cold.exists()


# -- crash-point sweep -----------------------------------------------------


class DiskLog:
    """The store directory's bytes after each write the store makes.

    Wraps the cold file's appends and tombstones, the edits log's appends and
    reset, and the image's rename; the image's temp file is complete when the
    rename is called, so the state just before the rename is the one after
    the temp write.
    """

    def __init__(self, data_dir):
        self.data_dir = data_dir
        self.states = [self.read()]  # states[k]: after k writes
        self.kinds = [None]  # kinds[k]: what write k was

    def read(self):
        return {p.name: p.read_bytes() for p in self.data_dir.iterdir()}

    def wrote(self, kind):
        self.states.append(self.read())
        self.kinds.append(kind)

    def wrap(self, monkeypatch, owner, name):
        real = getattr(owner, name)
        kind = f"{owner.__name__}.{name}"

        def wrapped(*args, **kwargs):
            result = real(*args, **kwargs)
            self.wrote(kind)
            return result

        monkeypatch.setattr(owner, name, wrapped)

    def install(self, monkeypatch):
        for owner, name in ((ColdStore, "append_records"), (ColdStore, "delete"),
                            (ColdStore, "take"), (EditsLog, "append"), (EditsLog, "reset")):
            self.wrap(monkeypatch, owner, name)
        real_replace = os.replace

        def replace(src, dst):
            self.wrote("image temp write")
            real_replace(src, dst)
            self.wrote("image rename")

        monkeypatch.setattr(os, "replace", replace)

    def torn(self, k):
        """The directory with write ``k`` cut halfway: the file it appended to
        or created holds half of the new bytes; a rename or a reset, which is
        atomic, has not happened."""
        before, after = self.states[k - 1], self.states[k]
        state = dict(before)
        if self.kinds[k] in ("image rename", "EditsLog.reset"):
            return state
        for name, data in after.items():
            old = before.get(name, b"")
            if len(data) > len(old) and data.startswith(old):
                state[name] = data[:len(old) + (len(data) - len(old)) // 2]
        return state


class Oracle:
    """The namespace a session acknowledged, kept in a dict, and its clock."""

    def __init__(self):
        self.files, self.clock = {}, 0

    def create(self, path, length):
        self.files[path] = (length, self.clock if length else 0, self.clock, 1)
        self.clock += 1

    def open(self, path):
        length, created, _, count = self.files[path]
        self.files[path] = (length, created, self.clock, count + 1)
        self.clock += 1

    def delete(self, path):
        del self.files[path]
        self.clock += 1

    def state(self):
        return dict(self.files), self.clock


def session_steps():
    """create -> separate -> checkpoint -> promote -> cold delete -> creates up
    to a second spill and its checkpoint -> a few more edits -> a final checkpoint.

    With ``CHECKPOINT_MIN_EDITS`` at 4, edits.log also fills: on the 4th and
    8th CREATE, on the OPEN of /s/09 and on the CREATE of /s/13."""
    steps = [("create", f"/s/{i:02d}", 10 * i) for i in range(10)]
    steps += [("open", "/s/00"), ("delete", "/s/01"), ("delete", "/s/08"), ("open", "/s/09")]
    steps += [("create", f"/s/{i:02d}", 0) for i in range(10, 17)]
    steps += [("open", "/s/02"), ("create", "/s/17", 5), ("delete", "/s/03"), ("checkpoint",)]
    return steps


def run_session(data_dir, disk):
    """Run the session; returns, per step, the writes done once it was
    acknowledged, the write that logged its edit (None for a checkpoint),
    and the oracle's state and the live tiers' paths after it; and the steps
    that renamed an image into place."""
    store = open_store(data_dir, CONFIG)
    oracle = Oracle()
    acked, edit_write, renamed = [], [], []
    expected = [(oracle.state(), (set(), set()))]
    for op, *args in session_steps():
        writes = len(disk.states)
        if op == "checkpoint":
            store.checkpoint(data_dir / IMAGE_NAME)
        else:
            getattr(store, op)(*args)
            getattr(oracle, op)(*args)
        logged = [k for k in range(writes, len(disk.states)) if disk.kinds[k] == "EditsLog.append"]
        edit_write.append(logged[0] if logged else None)
        if "image rename" in disk.kinds[writes:]:
            renamed.append((op, *args))
        acked.append(len(disk.states) - 1)
        expected.append((oracle.state(), (set(store.hot.paths()), set(store.cold.paths()))))
    assert len(store.metrics.events) == 2  # the session spilled twice
    store.close()
    return acked, edit_write, expected, renamed


def test_a_crash_at_any_write_recovers_the_acknowledged_state(tmp_path, monkeypatch):
    live_dir = tmp_path / "live"
    live_dir.mkdir()
    disk = DiskLog(live_dir)
    disk.install(monkeypatch)
    monkeypatch.setattr(tiering, "CHECKPOINT_MIN_EDITS", 4)
    acked, edit_write, expected, renamed = run_session(live_dir, disk)
    monkeypatch.undo()
    assert ("open", "/s/09") in renamed  # a checkpoint of a full edits.log
    assert set(disk.kinds[1:]) == {"ColdStore.append_records", "ColdStore.delete",
                                   "ColdStore.take", "EditsLog.append", "EditsLog.reset",
                                   "image temp write", "image rename"}

    cases = [(k, disk.states[k], k) for k in range(len(disk.states))]
    cases += [(k, disk.torn(k), k - 1) for k in range(1, len(disk.states))]
    crash_dir = tmp_path / "crash"
    for k, files, complete in cases:
        # the steps acknowledged once ``complete`` writes were done, and the
        # step in flight, whose edit counts once it is written in full
        done = sum(1 for a in acked if a <= complete)
        if done < len(acked) and edit_write[done] is not None and edit_write[done] <= complete:
            done += 1
        (files_want, clock_want), (hot_want, cold_want) = expected[done]
        shutil.rmtree(crash_dir, ignore_errors=True)
        crash_dir.mkdir()
        for name, data in files.items():
            (crash_dir / name).write_bytes(data)
        for reopen in range(2):  # a second reopen must see what the first did
            where = (f"crash after {'all' if complete == k else 'half'} of write {k} "
                     f"({disk.kinds[k]}), reopen {reopen}")
            store = open_store(crash_dir, CONFIG)
            try:
                hot, cold = list(store.hot.paths()), store.cold.paths()
                assert not set(hot) & set(cold), where
                assert len(set(cold)) == len(cold), where
                assert (set(hot), set(cold)) == (hot_want, cold_want), where
                hot_files, cold_files, clock = tiers(store)
                assert {**hot_files, **cold_files} == files_want, where
                assert clock == clock_want, where
            finally:
                store.close()
