"""Line-oriented TCP front end plus the store's on-disk lifecycle.

Protocol: one request per line (UTF-8, LF, space-separated tokens), one
response line per request.

    CREATE <path> <length>   -> OK created <path>
    OPEN <path>              -> OK path=<p> length=<n> blocks=<k> last_access=<t> count=<c>
    STAT <path>              -> same as OPEN plus tier=<hot|cold>, without
                                touching bookkeeping
    DELETE <path>            -> OK deleted <path>
    REPORT                   -> OK key=value ... (counters, one line)
    QUIT                     -> OK bye, then the whole server checkpoints
                                and shuts down

    errors                   -> ERR EXISTS|NOTFOUND|BADREQ <message>

Concurrency model: every connection gets a thread of its own, which reads
a request, handles it while holding one lock shared by all connections, and
writes the reply. Requests therefore run one at a time, so any interleaving
of concurrent clients is serializable.

A store's on-disk home is one directory: ``fsimage`` (hot-tier checkpoint),
``fsimage2`` (cold store), ``edits.log`` (operations since the checkpoint).
"""

from __future__ import annotations

import logging
import os
import signal
import socket
import threading
from pathlib import Path

from .coldstore import ColdStore
from .editlog import EditsLog
from .errors import (CorruptImageError, CorruptLogError, NotFoundError, PathExistsError,
                     TierMetaError)
from .fsimage import load_fsimage, read_commit
from .metrics import MetricsRecorder
from .namespace import LogicalClock, MetadataRecord, block_count
from .tiering import TieredStore, TieringConfig

logger = logging.getLogger(__name__)

IMAGE_NAME = "fsimage"
COLD_NAME = "fsimage2"
EDITS_NAME = "edits.log"
MAX_REQUEST_BYTES = 64 * 1024  # the longest request line read, its LF not counted


def open_store(data_dir: str | Path, config: TieringConfig | None = None) -> TieredStore:
    """Open (or initialize) the store living in ``data_dir``.

    The image is the one commit point of both tiers. It holds the hot tier,
    the clock and ``cold_end``, the length of ``fsimage2`` it covers (0 with
    no image: the log then holds everything). Recovery loads the image, cuts
    ``fsimage2`` back to ``cold_end`` and replays the log through
    ``apply_event``, which runs the separation rule as the live store ran it,
    so what the cold file gained after the checkpoint is rebuilt. The store's
    ``edits`` and ``image_path`` are attached only after the replay, so a
    replayed pass is not checkpointed. An edit whose tick is below the
    image's clock is in the image already and is skipped; any other edit must
    apply, or the open fails with CorruptLogError naming its line.

    Only what stays in RAM is decoded: every image record and each edit once,
    and no cold record. The cold index scan checks only that each line is a
    record or a tombstone; a cold record is checked on its first read.
    """
    config = config or TieringConfig()
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    image_path, cold_path = data_dir / IMAGE_NAME, data_dir / COLD_NAME
    hot, clock, cold_end = None, 0, 0
    if image_path.exists():
        hot = load_fsimage(image_path)
        clock, cold_end = read_commit(image_path)
    size = cold_path.stat().st_size if cold_path.exists() else 0
    if size < cold_end:
        raise CorruptImageError(f"{cold_path} holds {size} bytes, {image_path} commits {cold_end}")
    if size > cold_end:
        logger.warning("%s: dropping %d bytes past the committed length %d",
                       cold_path, size - cold_end, cold_end)
        os.truncate(cold_path, cold_end)
    cold = ColdStore(cold_path)
    try:
        store = TieredStore(cold, config, hot=hot)
        store.clock = LogicalClock(clock)
        edits = EditsLog(data_dir / EDITS_NAME)
        stale = 0
        for lineno, event in enumerate(edits.entries(), start=1):
            if event.tick < clock:
                stale += 1
                continue
            try:
                store.apply_event(event)
            except (TierMetaError, ValueError) as exc:
                raise CorruptLogError(f"{edits.path}: line {lineno}: "
                                      f"{event.op} {event.path}: {exc}") from None
        if stale:
            logger.warning("%s: %d edits below the image's clock %d are in the image already",
                           edits.path, stale, clock)
    except BaseException:
        cold.close()  # a store that failed to recover is never handed out
        raise
    store.edits, store.image_path = edits, image_path
    # Counters restart with the process; replayed history is not activity.
    store.metrics = MetricsRecorder()
    store.metrics.observe_hot_size(len(store.hot))
    return store


def format_record(record: MetadataRecord, tier: str | None = None) -> str:
    line = (
        f"OK path={record.path} length={record.length} "
        f"blocks={block_count(record.length)} "
        f"last_access={record.last_access} count={record.count}"
    )
    if tier is not None:
        line += f" tier={tier}"
    return line


class MetadataServer:
    """Serves a store from :func:`open_store` over TCP until a client sends QUIT."""

    def __init__(self, store: TieredStore, host: str = "127.0.0.1", port: int = 0):
        self.store = store
        self.host = host
        self.port = port
        self.bound_port: int | None = None
        self._listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        # held by whichever connection is handling a request; see _reader_loop
        self._store_lock = threading.Lock()
        self._stop = threading.Event()
        # set, under _store_lock, once the final checkpoint is written
        self._stopping = False
        self._accept_thread: threading.Thread | None = None

    def start(self) -> None:
        """Bind and begin serving; returns once the port is accepting."""
        self._listener = socket.create_server((self.host, self.port))
        self.bound_port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        logger.info("serving on %s:%d", self.host, self.bound_port)
        if self._stop.is_set():
            # shutdown was requested while we were still binding
            self.shutdown()

    def wait(self, timeout: float | None = None) -> None:
        """Block until the server has shut down (a client sent QUIT)."""
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)

    def shutdown(self) -> None:
        """Close sockets and stop threads; safe to call more than once.

        The final checkpoint belongs to QUIT handling and to :func:`serve`,
        not here: this is the hard stop used for cleanup.
        """
        self._stop.set()
        # shutdown() before close(): close alone does not wake a thread
        # already blocked in accept()/recv()
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    # -- threads ----------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break
            # small request/response lines; don't let Nagle batch them
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conns_lock:
                self._conns.add(conn)
            t = threading.Thread(target=self._reader_loop, args=(conn,), daemon=True)
            t.start()

    def _reader_loop(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        try:
            while raw := rfile.readline(MAX_REQUEST_BYTES + 1):
                if len(raw) > MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                    while raw and not raw.endswith(b"\n"):
                        raw = rfile.readline(MAX_REQUEST_BYTES)
                    conn.sendall(b"ERR BADREQ request longer than %d bytes\n" % MAX_REQUEST_BYTES)
                    continue
                try:
                    line = raw.rstrip(b"\n").decode("utf-8")
                except UnicodeDecodeError:
                    conn.sendall(b"ERR BADREQ request is not UTF-8\n")
                    continue
                with self._store_lock:
                    try:
                        response, quitting = self._dispatch(line)
                    except Exception as exc:  # keep serving no matter what
                        logger.exception("request failed: %r", line)
                        response, quitting = f"ERR BADREQ internal error: {exc}", False
                conn.sendall((response + "\n").encode("utf-8"))
                if quitting:
                    self.shutdown()
                    break
        except (OSError, ValueError):
            pass
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _close_store(self) -> None:
        """Write the final checkpoint unless QUIT already did, then close the store.

        Taking the request lock waits out a request still running on some
        connection, and setting ``_stopping`` turns away any that follow.
        """
        with self._store_lock:
            if not self._stopping:
                self._stopping = True
                self.store.checkpoint(self.store.image_path)
            self.store.close()

    # -- request handling (with _store_lock held) -----------------------------

    def _dispatch(self, line: str) -> tuple[str, bool]:
        if self._stopping:
            return "ERR BADREQ server is shutting down", False
        tokens = line.split(" ")
        verb = tokens[0]
        try:
            if verb == "CREATE":
                if len(tokens) != 3:
                    return "ERR BADREQ CREATE takes a path and a length", False
                try:
                    length = int(tokens[2])
                except ValueError:
                    return f"ERR BADREQ length is not an integer: {tokens[2]}", False
                record = self.store.create(tokens[1], length)
                return f"OK created {record.path}", False
            if verb == "OPEN":
                if len(tokens) != 2:
                    return "ERR BADREQ OPEN takes a path", False
                record = self.store.open(tokens[1])
                return format_record(record), False
            if verb == "STAT":
                if len(tokens) != 2:
                    return "ERR BADREQ STAT takes a path", False
                record, tier = self.store.stat(tokens[1])
                return format_record(record, tier), False
            if verb == "DELETE":
                if len(tokens) != 2:
                    return "ERR BADREQ DELETE takes a path", False
                self.store.delete(tokens[1])
                return f"OK deleted {tokens[1]}", False
            if verb == "REPORT":
                if len(tokens) != 1:
                    return "ERR BADREQ REPORT takes no arguments", False
                return self._report_line(), False
            if verb == "QUIT":
                if len(tokens) != 1:
                    return "ERR BADREQ QUIT takes no arguments", False
                self.store.checkpoint(self.store.image_path)
                self._stopping = True
                logger.info("QUIT received; checkpointed and shutting down")
                return "OK bye", True
            return f"ERR BADREQ unknown verb {verb!r}", False
        except PathExistsError as exc:
            return f"ERR EXISTS {exc}", False
        except NotFoundError as exc:
            return f"ERR NOTFOUND {exc}", False
        except (TierMetaError, ValueError) as exc:
            return f"ERR BADREQ {exc}", False

    def _report_line(self) -> str:
        m = self.store.metrics
        pairs = (
            ("hot_records", len(self.store.hot)),
            ("cold_records", len(self.store.cold)),
            ("creates", m.creates),
            ("deletes", m.deletes),
            ("lookups", m.lookups),
            ("hot_hits", m.hot_hits),
            ("cold_hits", m.cold_hits),
            ("misses", m.misses),
            ("promotions", m.promotions),
            ("separations", len(m.events)),
            ("peak_hot_records", m.peak_hot_records),
        )
        return "OK " + " ".join(f"{k}={v}" for k, v in pairs)


def serve(
    data_dir: str | Path,
    config: TieringConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> None:
    """Open the store in ``data_dir`` and serve it until QUIT or a signal.

    SIGINT/SIGTERM stop the server the same way QUIT does; both paths end
    with a checkpoint, so a served directory never needs log replay on the
    next start unless the process was killed outright.
    """
    store = open_store(data_dir, config)
    server = MetadataServer(store, host, port)
    # handlers go in before the listening line is printed: anyone who has
    # seen the line may signal us
    restore: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            restore[signum] = signal.signal(signum, lambda *_: server.shutdown())
    server.start()
    print(f"listening on {server.host}:{server.bound_port}", flush=True)
    try:
        server.wait()
    finally:
        for signum, handler in restore.items():
            signal.signal(signum, handler)
        server.shutdown()
        server._close_store()
    print("checkpointed, bye", flush=True)
