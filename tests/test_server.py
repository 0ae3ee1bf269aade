"""TCP protocol conformance, concurrency, and store lifecycle."""

import errno
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import pytest
from conftest import GOLDEN_SESSION, Client, FailingFile, fuzz_client, new_record, parse_ok

from tiermeta import coldstore, editlog, recordio, tiering
from tiermeta.cli import main as cli_main
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import EditsLog, OpEvent
from tiermeta.errors import (ColdStoreWriteFailureError, CorruptImageError, CorruptLogError,
                             OutOfOrderEditError)
from tiermeta.fsimage import load_fsimage, read_commit, save_fsimage
from tiermeta.namespace import HotStore
from tiermeta.server import (
    COLD_NAME,
    EDITS_NAME,
    IMAGE_NAME,
    MAX_REQUEST_BYTES,
    MetadataServer,
    open_store,
    serve,
)
from tiermeta.tiering import TieringConfig


@pytest.fixture
def running_server(tmp_path):
    servers = []
    threads_before = set(threading.enumerate())

    def boot(threshold=1000, window=None):
        config = TieringConfig(threshold_records=threshold, recency_window=window)
        store = open_store(tmp_path, config)
        server = MetadataServer(store)
        server.start()
        servers.append((server, store))
        return server

    yield boot
    for server, _ in servers:
        server.shutdown()
        server.wait(2)
    # every test closes its clients, and a connection's thread ends with it
    leftover = [t for t in threading.enumerate() if t not in threads_before]
    for t in leftover:
        t.join(5)
    for _, store in servers:
        store.close()
    assert [t.name for t in leftover if t.is_alive()] == []


def test_golden_session(running_server):
    server = running_server()
    client = Client(server.bound_port)
    for request, expected in GOLDEN_SESSION:
        assert client.ask(request) == expected, f"request {request!r}"
    server.wait(5)
    client.close()


# every verb given an argument count it does not take, with the exact reply
USAGE_ERRORS = [
    ("CREATE /u", "ERR BADREQ CREATE takes a path and a length"),
    ("CREATE /u 1 2", "ERR BADREQ CREATE takes a path and a length"),
    ("OPEN /u /v", "ERR BADREQ OPEN takes a path"),
    ("STAT", "ERR BADREQ STAT takes a path"),
    ("STAT /u /v", "ERR BADREQ STAT takes a path"),
    ("DELETE", "ERR BADREQ DELETE takes a path"),
    ("DELETE /u /v", "ERR BADREQ DELETE takes a path"),
    ("REPORT now", "ERR BADREQ REPORT takes no arguments"),
    ("QUIT now", "ERR BADREQ QUIT takes no arguments"),
    ("", "ERR BADREQ unknown verb ''"),
    ("create /u 1", "ERR BADREQ unknown verb 'create'"),
]


def test_a_verb_with_an_argument_count_it_does_not_take_gets_its_usage(running_server):
    server = running_server()
    client = Client(server.bound_port)
    for request, expected in USAGE_ERRORS:
        assert client.ask(request) == expected, f"request {request!r}"
    # none of them ran, and QUIT with an argument did not stop the server
    assert client.ask("REPORT") == (
        "OK hot_records=0 cold_records=0 creates=0 deletes=0 lookups=0 "
        "hot_hits=0 cold_hits=0 misses=0 promotions=0 separations=0 peak_hot_records=0"
    )
    assert client.ask("CREATE /u 1") == "OK created /u"
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


def test_a_connection_open_at_quit_is_refused_then_closed(running_server):
    server = running_server()
    other = Client(server.bound_port)
    assert other.ask("CREATE /o 1") == "OK created /o"
    quitter = Client(server.bound_port)
    assert quitter.ask("QUIT") == "OK bye"
    assert quitter.f.readline() == ""  # EOF
    server.wait(5)
    assert other.ask("STAT /o") == "ERR BADREQ server is shutting down"
    assert other.f.readline() == ""
    other.close()
    quitter.close()


def test_shutdown_after_quit_and_twice_returns_at_once(running_server):
    server = running_server()
    client = Client(server.bound_port)
    assert client.ask("QUIT") == "OK bye"
    server.wait(5)
    stopper = threading.Thread(target=lambda: (server.shutdown(), server.shutdown()), daemon=True)
    stopper.start()
    stopper.join(1)
    assert not stopper.is_alive()
    client.close()


def test_a_create_whose_spill_fails_is_answered_ok(running_server, caplog):
    server = running_server(threshold=2, window=0)
    client = Client(server.bound_port)
    assert client.ask("CREATE /s/a 1") == "OK created /s/a"
    real_append = server.store.cold.append_records
    refused = []

    def refuse_once(records):
        if not refused:
            refused.append(len(list(records)))
            raise ColdStoreWriteFailureError("disk full")
        real_append(records)

    server.store.cold.append_records = refuse_once
    assert client.ask("CREATE /s/b 1") == "OK created /s/b"  # reaches the threshold
    assert refused == [2] and "disk full" in caplog.text
    assert client.ask("STAT /s/b").endswith("tier=hot")
    assert client.ask("CREATE /s/c 1") == "OK created /s/c"  # its pass spills all three
    assert client.ask("STAT /s/a").endswith("tier=cold")
    assert "cold_records=3 " in client.ask("REPORT")
    client.close()


def test_pipelined_requests(running_server):
    server = running_server()
    client = Client(server.bound_port)
    client.sock.sendall(b"CREATE /pipe 1\nOPEN /pipe\nSTAT /pipe\n")
    assert client.f.readline().rstrip("\n") == "OK created /pipe"
    assert client.f.readline().rstrip("\n").startswith("OK path=/pipe")
    assert client.f.readline().rstrip("\n").endswith("tier=hot")
    client.close()


def test_a_request_that_is_not_utf8_is_answered_and_keeps_the_connection(running_server):
    server = running_server()
    client = Client(server.bound_port)
    client.sock.sendall(b"OPEN /\xff\nCREATE /u 1\n")
    assert client.f.readline() == "ERR BADREQ request is not UTF-8\n"
    assert client.f.readline() == "OK created /u\n"
    client.close()


def test_a_request_line_past_the_bound_is_refused_and_keeps_the_connection(running_server):
    server = running_server()
    client = Client(server.bound_port)
    n = MAX_REQUEST_BYTES
    client.sock.sendall(b"x" * n + b"\n")  # at the bound: read whole, and answered
    assert client.f.readline() == f"ERR BADREQ unknown verb {'x' * n!r}\n"
    # one byte past the bound, and ten times the bound: read in pieces and dropped
    client.sock.sendall(b"y" * (n + 1) + b"\n" + b"z" * (10 * n) + b"\nCREATE /after 1\n")
    too_long = f"ERR BADREQ request longer than {n} bytes\n"
    assert client.f.readline() == too_long
    assert client.f.readline() == too_long
    assert client.f.readline() == "OK created /after\n"
    client.close()


def test_an_internal_error_answers_and_stops_serve_without_a_checkpoint(
        tmp_path, monkeypatch, capsys):
    # an edit that cannot be logged is not acknowledged, and is not made
    # durable by a later checkpoint either
    started = []
    ready = threading.Event()
    real_start = MetadataServer.start

    def start(self):
        real_start(self)
        started.append(self)
        ready.set()

    monkeypatch.setattr(MetadataServer, "start", start)
    status = []
    argv = ["serve", str(tmp_path), "--bind", "127.0.0.1:0", "--threshold", "1000"]
    thread = threading.Thread(target=lambda: status.append(cli_main(argv)))
    thread.start()
    try:
        assert ready.wait(10), "server never started"
        client = Client(started[0].bound_port)
        assert client.ask("CREATE /a 1") == "OK created /a"
        started[0].store.edits._writer = FailingFile(started[0].store.edits._writer)
        assert client.ask("CREATE /b 1") == "ERR BADREQ internal error: disk full"
        thread.join(10)
        assert not thread.is_alive(), "the server kept serving"
        assert client.f.readline() == ""  # the connection is closed
        client.close()
    finally:
        if started:
            started[0].shutdown()
        thread.join(10)
    assert status == [1]
    out = capsys.readouterr()
    assert "checkpointed, bye" not in out.out
    assert "stopped without a checkpoint" in out.err
    assert not (tmp_path / IMAGE_NAME).exists()
    assert (tmp_path / EDITS_NAME).read_text() == "CREATE /a 1 0\n"
    reopened = open_store(tmp_path)
    try:
        assert list(reopened.hot.paths()) == ["/a"]
    finally:
        reopened.close()


def test_create_past_the_block_limit_is_refused_and_not_logged(running_server, tmp_path):
    server = running_server()
    client = Client(server.bound_port)
    assert client.ask("CREATE /ok 1") == "OK created /ok"
    # 2**20 blocks of 64 MiB, plus one byte
    assert client.ask("CREATE /big 70368744177665") == (
        "ERR BADREQ 1048577 blocks exceeds the per-file limit of 1048576"
    )
    assert client.ask("STAT /big") == "ERR NOTFOUND no such path: /big"
    client.close()
    assert "/big" not in server.store.hot
    assert (tmp_path / EDITS_NAME).read_text() == "CREATE /ok 1 0\n"


def test_a_create_length_in_any_form_but_plain_decimal_is_refused(running_server, tmp_path):
    server = running_server()
    client = Client(server.bound_port)
    for length, reason in [("1_000", "is not an integer: '1_000'"),
                           ("+7", "is not an integer: '+7'"),
                           ("007", "is not an integer: '007'"),
                           ("٥", "is not an integer: '٥'"),
                           ("-1", "is negative: -1")]:
        assert client.ask(f"CREATE /f {length}") == f"ERR BADREQ length {reason}"
    assert client.ask("CREATE /f 1000") == "OK created /f"
    client.close()
    assert (tmp_path / EDITS_NAME).read_text() == "CREATE /f 1000 0\n"


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
    server = MetadataServer(store)
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
        assert recovered.clock > max(r.last_access for r in recovered.hot)
    finally:
        recovered.close()


def test_recovery_without_final_checkpoint_replays_edits(tmp_path):
    config = TieringConfig(threshold_records=100)
    store = open_store(tmp_path, config)
    server = MetadataServer(store)
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
        assert recovered.clock == 4  # past the DELETE tick
    finally:
        recovered.close()


def test_replayed_delete_of_cold_path_is_not_skipped(tmp_path, caplog):
    config = TieringConfig(threshold_records=100)
    store = open_store(tmp_path, config)
    for i in range(100):
        store.create(f"/d/{i:03d}", 10)  # the 100th spills and checkpoints
    victim = store.cold.paths()[0]
    delete_tick = store.clock
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
            assert recovered.clock == delete_tick + 1
        finally:
            recovered.close()


@pytest.mark.parametrize("stop", ["QUIT", "signal"])
def test_serve_writes_one_checkpoint_per_shutdown(tmp_path, monkeypatch, stop):
    saves = []
    real_save = tiering.save_fsimage

    def counting_save(hot, path, *args):
        saves.append(path)
        real_save(hot, path, *args)

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


def test_the_store_is_closed_when_the_final_checkpoint_fails(tmp_path, monkeypatch,
                                                              opened_files):
    opened = opened_files(editlog, coldstore)
    store = open_store(tmp_path)
    store.create("/c/a", 1)  # opens edits.log for appending
    server = MetadataServer(store)

    def refuse(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(tiering, "save_fsimage", refuse)
    try:
        with pytest.raises(OSError):
            server._close_store()
    finally:
        server.shutdown()
    assert len(opened) == 2 and all(f.closed for f in opened)


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


def write_store_dir(data_dir, hot, cold, tombstoned=(), edits=(), clock=None):
    """Lay out a store directory by hand, as a checkpoint leaves it.

    ``hot`` and ``cold`` map paths to the ``last_access`` of a one-block
    record. The cold file gets the cold ones in the order given, then a
    tombstone for each path in ``tombstoned``; the image then holds the hot
    ones with ``clock`` in its header (by default one past every tick of
    both) and commits the cold file's length. ``edits`` go to the log.
    """
    cold_store = ColdStore(data_dir / COLD_NAME)
    cold_store.append_records([new_record(p, 10, tick) for p, tick in cold.items()])
    for path in tombstoned:
        cold_store.delete(path)
    cold_end = cold_store.sync()
    cold_store.close()
    image = HotStore()
    for path, tick in hot.items():
        image.create(path, 10, tick)
    if clock is None:
        clock = 1 + max([*hot.values(), *cold.values()], default=-1)
    save_fsimage(image, data_dir / IMAGE_NAME, clock, cold_end)
    log = EditsLog(data_dir / EDITS_NAME)
    for event in edits:
        log.append(event)
    log.close()


def rewrite_cold_field(data_dir, line, field, value):
    """Replace one tab-separated field of one cold-file line, and commit the
    cold file's new length in the image; returns the line's offset."""
    cold_path = data_dir / COLD_NAME
    lines = cold_path.read_bytes().splitlines(keepends=True)
    fields = lines[line].rstrip(b"\n").split(b"\t")
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    lines[line] = b"\t".join(fields) + b"\n"
    cold_path.write_bytes(b"".join(lines))
    image = data_dir / IMAGE_NAME
    save_fsimage(load_fsimage(image), image, read_commit(image)[0], cold_path.stat().st_size)
    return sum(len(x) for x in lines[:line])


def test_clock_restarts_at_the_image_clock(tmp_path):
    # the stored clock is above every record's tick: DELETEs took the rest
    cold = {"/c/old": 3, "/c/dead": 20, "/c/live": 9}
    write_store_dir(tmp_path, {"/h/a": 5, "/h/b": 7}, cold, ("/c/dead",), clock=25)
    store = open_store(tmp_path)
    try:
        assert store.clock == 25
    finally:
        store.close()


def test_a_spill_before_the_first_image_is_rolled_back(tmp_path, caplog):
    # no image yet: a spill, then a crash before the checkpoint after it
    store = open_store(tmp_path, TieringConfig(recency_window=0))
    store.create("/a", 10)
    store.create("/b", 10)
    store.separate()
    store.close()
    assert not (tmp_path / IMAGE_NAME).exists()
    spilled = (tmp_path / COLD_NAME).stat().st_size
    assert spilled > 0
    caplog.clear()
    recovered = open_store(tmp_path)
    try:
        # no image commits any of the cold file, and the log rebuilds both paths
        assert [r.message for r in caplog.records] == [
            f"{tmp_path / COLD_NAME}: dropping {spilled} bytes past the committed length 0"
        ]
        assert sorted(recovered.hot.paths()) == ["/a", "/b"]
        assert len(recovered.cold) == 0
        assert recovered.clock == 2
        recovered.create("/c", 10)
        assert recovered.hot.get("/c").created == 2
    finally:
        recovered.close()


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
    real_decode_lines = recordio.decode_lines

    def counting_decode(line, *args):
        decoded.append(line)
        return real_decode(line, *args)

    def counting_decode_lines(text):  # the image load decodes a chunk at a time
        columns = real_decode_lines(text)
        decoded.extend(columns[0] if columns else ())
        return columns

    def counting_parse(line):
        parsed.append(line)
        return real_parse(line)

    monkeypatch.setattr(recordio, "decode_record", counting_decode)
    monkeypatch.setattr(coldstore, "decode_record", counting_decode)
    monkeypatch.setattr(recordio, "decode_lines", counting_decode_lines)
    monkeypatch.setattr(editlog, "parse_op_line", counting_parse)
    store = open_store(tmp_path)
    try:
        assert len(decoded) == len(hot)  # the image's records, each once; no cold one
        assert len(parsed) == len(edits)
        assert sorted(store.hot.paths()) == ["/h/0", "/h/2", "/h/3", "/h/4", "/n/0", "/n/1"]
        assert len(store.cold) == 6
        assert store.clock == 24
        assert store.edits.last_tick == 23
        with pytest.raises(OutOfOrderEditError):
            store.edits.append(OpEvent("ACCESS", "/n/0", 23))
        store.create("/n/2", 1)
        assert store.hot.get("/n/2").last_access == 24
    finally:
        store.close()


@pytest.mark.parametrize(
    "text, where",
    [
        ("CREATE /a 5 0\nnot a line\nCREATE /b 1 4\n", "line 2"),
        ("CREATE /a 5 0\nCREATE /b 1 2\nnot a line\n", "line 3"),
        ("CREATE /a 5 3\nCREATE /b 1 2\n", "line 2: tick 2 not increasing"),
        ("CREATE /a 5 0\nACCESS /a 9223372036854775808\n",
         "line 2: tick is above 9223372036854775807: 9223372036854775808"),
    ],
    ids=["middle", "tail", "order", "tick-above-int64"],
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
        (b"9223372036854775808", "last_access is above 9223372036854775807"),
    ],
    ids=["negative", "not-integer", "missing-field", "above-int64"],
)
def test_bad_last_access_in_a_live_cold_line_fails_its_first_read(tmp_path, value, reason):
    write_store_dir(tmp_path, hot={}, cold={"/c/a": 1, "/c/b": 2})
    offset = rewrite_cold_field(tmp_path, 1, 4, value)
    store = open_store(tmp_path)  # opening decodes no cold line
    try:
        assert store.clock == 3
        assert store.stat("/c/a")[0].last_access == 1
        with pytest.raises(CorruptImageError, match=f"{COLD_NAME}: offset {offset}: {reason}"):
            store.open("/c/b")
    finally:
        store.close()


def test_bad_last_access_in_a_tombstoned_cold_line_is_not_read(tmp_path):
    write_store_dir(tmp_path, hot={}, cold={"/c/a": 1, "/c/b": 2}, tombstoned=("/c/a",))
    rewrite_cold_field(tmp_path, 0, 4, b"x")
    store = open_store(tmp_path)
    try:
        assert store.clock == 3
        assert store.cold.paths() == ["/c/b"]
    finally:
        store.close()


def test_a_cold_line_in_the_v2_form_fails_its_first_read(running_server, tmp_path):
    write_store_dir(tmp_path, hot={"/h/a": 0}, cold={"/c/bad": 1, "/c/good": 2})
    # version 2 wrote the block list where the creation tick now is
    v2_blocks = "1048576@10@1@0;1"
    rewrite_cold_field(tmp_path, 0, 6, v2_blocks.encode())
    server = running_server()  # opening decodes no cold line
    assert server.store.clock == 3
    problem = f"{tmp_path / COLD_NAME}: offset 0: created is not an integer: '{v2_blocks}'"
    with pytest.raises(CorruptImageError, match=re.escape(problem)):
        server.store.cold.get("/c/bad")
    client = Client(server.bound_port)
    assert client.ask("OPEN /c/bad") == f"ERR BADREQ {problem}"
    assert client.ask("STAT /c/good") == (
        "OK path=/c/good length=10 blocks=1 last_access=2 count=1 tier=cold"
    )
    client.close()
