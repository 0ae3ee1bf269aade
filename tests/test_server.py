"""TCP protocol conformance, concurrency, and store lifecycle."""

import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import pytest
from conftest import GOLDEN_SESSION, Client, fuzz_client, parse_ok

from tiermeta import coldstore, editlog, recordio, tiering
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import EditsLog, OpEvent
from tiermeta.errors import CorruptImageError, CorruptLogError, OutOfOrderEditError
from tiermeta.fsimage import load_fsimage, save_fsimage
from tiermeta.namespace import HotStore
from tiermeta.server import (
    COLD_NAME,
    EDITS_NAME,
    IMAGE_NAME,
    MetadataServer,
    open_store,
    serve,
)
from tiermeta.tiering import TieringConfig


@pytest.fixture
def running_server(tmp_path):
    servers = []

    def boot(threshold=1000, window=None):
        config = TieringConfig(threshold_records=threshold, recency_window=window)
        store = open_store(tmp_path, config)
        server = MetadataServer(store, tmp_path / IMAGE_NAME)
        server.start()
        servers.append((server, store))
        return server

    yield boot
    for server, store in servers:
        server.shutdown()
        server.wait(2)
        store.close()


def test_golden_session(running_server):
    server = running_server()
    client = Client(server.bound_port)
    for request, expected in GOLDEN_SESSION:
        assert client.ask(request) == expected, f"request {request!r}"
    server.wait(5)
    client.close()


def test_promotion_visible_over_protocol(running_server):
    server = running_server(threshold=4, window=3)
    client = Client(server.bound_port)
    for i in range(4):
        assert client.ask(f"CREATE /p{i} 10") == f"OK created /p{i}"
    # the 4th create hit the threshold: window 3 of 4 evicts /p0 only
    assert client.ask("STAT /p0") == (
        "OK path=/p0 length=10 blocks=1 last_access=0 count=1 tier=cold"
    )
    assert client.ask("OPEN /p0") == (
        "OK path=/p0 length=10 blocks=1 last_access=4 count=2"
    )
    assert client.ask("STAT /p0") == (
        "OK path=/p0 length=10 blocks=1 last_access=4 count=2 tier=hot"
    )
    assert client.ask("REPORT") == (
        "OK hot_records=4 cold_records=0 creates=4 deletes=0 lookups=1 "
        "hot_hits=0 cold_hits=1 misses=0 promotions=1 separations=1 peak_hot_records=4"
    )
    assert client.ask("QUIT") == "OK bye"
    server.wait(5)
    client.close()


def test_pipelined_requests(running_server):
    server = running_server()
    client = Client(server.bound_port)
    client.sock.sendall(b"CREATE /pipe 1\nOPEN /pipe\nSTAT /pipe\n")
    assert client.f.readline().rstrip("\n") == "OK created /pipe"
    assert client.f.readline().rstrip("\n").startswith("OK path=/pipe")
    assert client.f.readline().rstrip("\n").endswith("tier=hot")
    client.close()


def test_internal_error_answers_and_keeps_the_connection(running_server, monkeypatch):
    server = running_server()
    client = Client(server.bound_port)
    assert client.ask("CREATE /e 1") == "OK created /e"
    real_open = server.store.open
    failures = []

    def open_once_broken(path):
        if not failures:
            failures.append(path)
            raise RuntimeError("disk on fire")
        return real_open(path)

    monkeypatch.setattr(server.store, "open", open_once_broken)
    assert client.ask("OPEN /e") == "ERR BADREQ internal error: disk on fire"
    assert client.ask("OPEN /e") == "OK path=/e length=1 blocks=1 last_access=1 count=2"
    client.close()


def test_concurrent_sessions_are_serializable(running_server, tmp_path):
    server = running_server(threshold=50, window=37)
    errors: list[str] = []
    models = [dict() for _ in range(4)]
    threads = [
        threading.Thread(
            target=fuzz_client,
            args=(server.bound_port, f"/c{i}", 1000 + i, errors, models[i]),
        )
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert errors == []
    # end state must equal the union of the per-client models: with disjoint
    # path spaces, any interleaving is equivalent to some serial order
    control = Client(server.bound_port)
    merged = {}
    for model in models:
        merged.update(model)
    for path, (length, count) in merged.items():
        fields = parse_ok(control.ask(f"STAT {path}"))
        assert (int(fields["length"]), int(fields["count"])) == (length, count), path
    report = dict(
        pair.split("=", 1) for pair in control.ask("REPORT")[3:].split(" ")
    )
    assert int(report["hot_records"]) + int(report["cold_records"]) == len(merged)
    assert int(report["separations"]) >= 1, "threshold 50 must separate during fuzz"
    assert (tmp_path / IMAGE_NAME).exists()  # separation checkpoints
    assert control.ask("QUIT") == "OK bye"
    server.wait(5)
    control.close()


def test_concurrent_requests_run_one_at_a_time(running_server, monkeypatch):
    # clients outnumber the cores, threads switch often, and each OPEN
    # sleeps inside the store, so without the request lock two would overlap
    server = running_server()
    setup = Client(server.bound_port)
    assert setup.ask("CREATE /shared 1") == "OK created /shared"
    clients, opens = 8, 50
    inside: list[str] = []
    most_inside = []
    real_open = server.store.open

    def open_slowly(path):
        inside.append(path)
        most_inside.append(len(inside))
        time.sleep(0.0005)
        try:
            return real_open(path)
        finally:
            inside.pop()

    monkeypatch.setattr(server.store, "open", open_slowly)
    errors: list[str] = []

    def open_many():
        client = Client(server.bound_port)
        try:
            for _ in range(opens):
                reply = client.ask("OPEN /shared")
                if not reply.startswith("OK path=/shared "):
                    errors.append(reply)
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=open_many) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert max(most_inside) == 1
    fields = parse_ok(setup.ask("STAT /shared"))
    assert int(fields["count"]) == 1 + clients * opens
    assert int(fields["last_access"]) == clients * opens
    setup.close()


def test_quit_checkpoints_and_recovery_restores(tmp_path):
    config = TieringConfig(threshold_records=4, recency_window=3)
    store = open_store(tmp_path, config)
    server = MetadataServer(store, tmp_path / IMAGE_NAME)
    server.start()
    client = Client(server.bound_port)
    for i in range(4):
        client.ask(f"CREATE /r{i} {i + 1}")
    client.ask("OPEN /r0")  # promote the record evicted by the 4th create
    client.ask("OPEN /r2")
    assert client.ask("QUIT") == "OK bye"
    server.wait(5)
    client.close()
    store.close()

    assert (tmp_path / "edits.log").read_bytes() == b""  # checkpoint truncated it
    recovered = open_store(tmp_path, config)
    try:
        state = {r.path: (r.length, r.count) for r in recovered.hot}
        assert state == {"/r0": (1, 2), "/r1": (2, 1), "/r2": (3, 2), "/r3": (4, 1)}
        assert len(recovered.cold) == 0
        assert recovered.clock.now > max(r.last_access for r in recovered.hot)
    finally:
        recovered.close()


def test_recovery_without_final_checkpoint_replays_edits(tmp_path):
    config = TieringConfig(threshold_records=100)
    store = open_store(tmp_path, config)
    server = MetadataServer(store, tmp_path / IMAGE_NAME)
    server.start()
    client = Client(server.bound_port)
    client.ask("CREATE /x 10")
    client.ask("CREATE /y 20")
    client.ask("OPEN /x")
    client.ask("DELETE /y")
    client.close()
    server.shutdown()  # hard stop: no QUIT, no checkpoint
    server.wait(5)
    store.close()

    recovered = open_store(tmp_path, config)
    try:
        state = {r.path: (r.length, r.count, r.last_access) for r in recovered.hot}
        assert state == {"/x": (10, 2, 2)}
        assert recovered.clock.now == 4  # past the DELETE tick
    finally:
        recovered.close()


def test_replayed_delete_of_cold_path_is_not_skipped(tmp_path, caplog):
    config = TieringConfig(threshold_records=100)
    store = open_store(tmp_path, config)
    for i in range(100):
        store.create(f"/d/{i:03d}", 10)
    store.separate()
    store.checkpoint(tmp_path / IMAGE_NAME)
    victim = store.cold.paths()[0]
    delete_tick = store.clock.now
    store.delete(victim)
    store.close()  # no checkpoint: the DELETE lives only in the log and its tombstone

    for _ in range(2):  # replay must not change what the next replay sees
        caplog.clear()
        with caplog.at_level("WARNING", logger="tiermeta.server"):
            recovered = open_store(tmp_path, config)
        try:
            assert "skipping unreplayable edit" not in caplog.text
            assert victim not in recovered.cold and victim not in recovered.hot
            assert len(recovered.hot) + len(recovered.cold) == 99
            assert recovered.clock.now == delete_tick + 1
        finally:
            recovered.close()


@pytest.mark.parametrize("stop", ["QUIT", "signal"])
def test_serve_writes_one_checkpoint_per_shutdown(tmp_path, monkeypatch, stop):
    saves = []
    real_save = tiering.save_fsimage

    def counting_save(hot, path):
        saves.append(path)
        real_save(hot, path)

    monkeypatch.setattr(tiering, "save_fsimage", counting_save)
    started = []
    ready = threading.Event()
    real_start = MetadataServer.start

    def start(self):
        real_start(self)
        started.append(self)
        ready.set()

    monkeypatch.setattr(MetadataServer, "start", start)
    thread = threading.Thread(target=serve, args=(tmp_path, TieringConfig(threshold_records=1000)))
    thread.start()
    try:
        assert ready.wait(10), "server never started"
        server = started[0]
        client = Client(server.bound_port)
        assert client.ask("CREATE /q/a 1") == "OK created /q/a"
        if stop == "QUIT":
            assert client.ask("QUIT") == "OK bye"
        else:
            server.shutdown()  # what the SIGINT/SIGTERM handler does
        client.close()
        thread.join(10)
        assert not thread.is_alive()
    finally:
        if started:
            started[0].shutdown()
        thread.join(10)
    assert len(saves) == 1
    assert [r.path for r in load_fsimage(tmp_path / IMAGE_NAME)] == ["/q/a"]
    assert (tmp_path / "edits.log").read_bytes() == b""


def test_serve_checkpoints_on_sigterm(tmp_path):
    # the CLI process must treat a signal like QUIT: stop, then checkpoint
    with subprocess.Popen(
        [sys.executable, "-m", "tiermeta.cli", "serve", str(tmp_path),
         "--bind", "127.0.0.1:0", "--threshold", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    ) as proc:
        try:
            assert select.select([proc.stdout], [], [], 10)[0], "server never spoke"
            line = proc.stdout.readline()
            assert line.startswith("listening on 127.0.0.1:"), line
            client = Client(int(line.rsplit(":", 1)[1]))
            assert client.ask("CREATE /sig/a 1000") == "OK created /sig/a"
            client.close()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()
    image = load_fsimage(tmp_path / IMAGE_NAME)
    assert [r.path for r in image] == ["/sig/a"]
    assert (tmp_path / "edits.log").read_bytes() == b""


# -- what recovery reads ---------------------------------------------------


def write_store_dir(data_dir, hot, cold, tombstoned=(), edits=()):
    """Lay out a store directory by hand.

    ``hot`` and ``cold`` map paths to the ``last_access`` of a one-block
    record; the image holds the hot ones, the cold file the cold ones in the
    order given. Each path in ``tombstoned`` is then deleted from the cold
    file, and ``edits`` go to the log.
    """
    image = HotStore()
    for path, tick in hot.items():
        image.create(path, 10, tick)
    save_fsimage(image, data_dir / IMAGE_NAME)
    spilled = HotStore()
    cold_store = ColdStore(data_dir / COLD_NAME)
    cold_store.append_records([spilled.create(p, 10, tick) for p, tick in cold.items()])
    for path in tombstoned:
        cold_store.delete(path)
    cold_store.close()
    log = EditsLog(data_dir / EDITS_NAME)
    for event in edits:
        log.append(event)
    log.close()


def rewrite_cold_field(data_dir, line, field, value):
    """Replace one tab-separated field of one cold-file line; returns the line's offset."""
    cold_path = data_dir / COLD_NAME
    lines = cold_path.read_bytes().splitlines(keepends=True)
    fields = lines[line].rstrip(b"\n").split(b"\t")
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    lines[line] = b"\t".join(fields) + b"\n"
    cold_path.write_bytes(b"".join(lines))
    return sum(len(x) for x in lines[:line])


@pytest.mark.parametrize(
    "cold, tombstoned, start",
    [
        # the highest persisted tick belongs only to a live cold record
        ({"/c/old": 3, "/c/live": 9}, (), 10),
        # a tombstoned cold line holds a higher tick than any live record
        ({"/c/dead": 20, "/c/live": 6}, ("/c/dead",), 8),
    ],
    ids=["live-cold-max", "tombstoned-max"],
)
def test_clock_restarts_past_hot_and_live_cold_records(tmp_path, cold, tombstoned, start):
    write_store_dir(tmp_path, hot={"/h/a": 5, "/h/b": 7}, cold=cold, tombstoned=tombstoned)
    store = open_store(tmp_path)
    try:
        assert store.clock.now == start
    finally:
        store.close()


def test_open_store_decodes_only_the_image_and_parses_each_edit_once(tmp_path, monkeypatch):
    hot = {f"/h/{i}": i for i in range(5)}
    cold = {f"/c/{i}": 5 + i for i in range(7)}
    edits = [
        OpEvent("CREATE", "/n/0", 20, 1),
        OpEvent("ACCESS", "/h/0", 21),
        OpEvent("DELETE", "/h/1", 22),
        OpEvent("CREATE", "/n/1", 23, 4),
    ]
    write_store_dir(tmp_path, hot, cold, tombstoned=("/c/0",), edits=edits)
    decoded, parsed = [], []
    real_decode, real_parse = recordio.decode_record, editlog.parse_op_line

    def counting_decode(line):
        decoded.append(line)
        return real_decode(line)

    def counting_parse(line):
        parsed.append(line)
        return real_parse(line)

    monkeypatch.setattr(recordio, "decode_record", counting_decode)
    monkeypatch.setattr(coldstore, "decode_record", counting_decode)
    monkeypatch.setattr(editlog, "parse_op_line", counting_parse)
    store = open_store(tmp_path)
    try:
        assert len(decoded) == len(hot)  # the image's records, no cold one
        assert len(edits) <= len(parsed) <= len(edits) + 1  # plus the tail, at most
        assert sorted(store.hot.paths()) == ["/h/0", "/h/2", "/h/3", "/h/4", "/n/0", "/n/1"]
        assert len(store.cold) == 6
        assert store.clock.now == 24
        assert store.edits.last_tick == 23
        with pytest.raises(OutOfOrderEditError):
            store.edits.append(OpEvent("ACCESS", "/n/0", 23))
        assert store.create("/n/2", 1).last_access == 24
    finally:
        store.close()


@pytest.mark.parametrize(
    "text, where",
    [
        ("CREATE /a 5 0\nnot a line\nCREATE /b 1 4\n", "line 2"),
        ("CREATE /a 5 0\nCREATE /b 1 2\nnot a line\n", "line 3"),
        ("CREATE /a 5 3\nCREATE /b 1 2\n", "line 2: tick 2 not increasing"),
    ],
    ids=["middle", "tail", "order"],
)
def test_corrupt_log_fails_open_store(tmp_path, text, where):
    (tmp_path / EDITS_NAME).write_text(text)
    with pytest.raises(CorruptLogError, match=where):
        open_store(tmp_path)


@pytest.mark.parametrize(
    "value, reason",
    [
        (b"-3", "last_access is negative"),
        (b"x", "last_access is not an integer"),
        (None, "expected 7 tab-separated fields, got 6"),
    ],
    ids=["negative", "not-integer", "missing-field"],
)
def test_bad_last_access_in_a_live_cold_line_fails_open_store(tmp_path, value, reason):
    write_store_dir(tmp_path, hot={}, cold={"/c/a": 1, "/c/b": 2})
    offset = rewrite_cold_field(tmp_path, 1, 4, value)
    with pytest.raises(CorruptImageError, match=f"{COLD_NAME}: offset {offset}: {reason}"):
        open_store(tmp_path)


def test_bad_last_access_in_a_tombstoned_cold_line_is_not_read(tmp_path):
    write_store_dir(tmp_path, hot={}, cold={"/c/a": 1, "/c/b": 2}, tombstoned=("/c/a",))
    rewrite_cold_field(tmp_path, 0, 4, b"x")
    store = open_store(tmp_path)
    try:
        assert store.clock.now == 3
        assert store.cold.paths() == ["/c/b"]
    finally:
        store.close()


def test_bad_block_list_in_a_cold_line_fails_its_first_read(running_server, tmp_path):
    write_store_dir(tmp_path, hot={"/h/a": 0}, cold={"/c/bad": 1, "/c/good": 2})
    rewrite_cold_field(tmp_path, 0, 6, b"garbage")
    server = running_server()  # opening reads last_access only
    assert server.store.clock.now == 3
    problem = f"{tmp_path / COLD_NAME}: offset 0: malformed block entry: 'garbage'"
    with pytest.raises(CorruptImageError, match=re.escape(problem)):
        server.store.cold.get("/c/bad")
    client = Client(server.bound_port)
    assert client.ask("OPEN /c/bad") == f"ERR BADREQ {problem}"
    assert client.ask("STAT /c/good") == (
        "OK path=/c/good length=10 blocks=1 last_access=2 count=1 tier=cold"
    )
    client.close()
