"""Line-oriented TCP front end plus the store's on-disk lifecycle.

Protocol: one request per line (UTF-8, LF, space-separated tokens), one
response line per request.

    CREATE <path> <length>   -> OK created <path>
    OPEN <path>              -> OK path=<p> length=<n> blocks=<k> last_access=<t> count=<c>
    STAT <path>              -> same as OPEN plus tier=<hot|cold>, without
                                touching bookkeeping
    DELETE <path>            -> OK deleted <path>
    REPORT                   -> OK key=value ... (counters, one line)
    QUIT                     -> checkpoint, then OK bye, then shutdown

    errors                   -> ERR EXISTS|NOTFOUND|BADREQ <message>

An unexpected error (a failed edits log append, say) is answered ``ERR
BADREQ internal error: <reason>`` and stops the server without a checkpoint.

Concurrency model: ``socketserver.ThreadingTCPServer`` gives every
connection a thread of its own, which reads a request, handles it while
holding one lock shared by all connections, and writes the reply. Requests
therefore run one at a time, so any interleaving of concurrent clients is
serializable. QUIT stops the server but closes only its own connection:
another connection's next request is answered ``ERR BADREQ server is
shutting down``, and then that connection is closed too.

A store's on-disk home is one directory: ``fsimage`` (hot-tier checkpoint),
``fsimage2`` (cold store), ``edits.log`` (operations since the checkpoint).
"""

from __future__ import annotations

import logging
import os
import signal
import socketserver
import threading
from pathlib import Path

from .coldstore import ColdStore
from .editlog import EditsLog
from .errors import (CorruptImageError, CorruptLogError, NotFoundError, PathExistsError,
                     TierMetaError)
from .fsimage import load_fsimage, read_commit
from .metrics import MetricsRecorder
from .namespace import MetadataRecord, block_count
from .recordio import parse_non_negative_int
from .tiering import TieredStore, TieringConfig

logger = logging.getLogger(__name__)

IMAGE_NAME = "fsimage"
COLD_NAME = "fsimage2"
EDITS_NAME = "edits.log"
MAX_REQUEST_BYTES = 64 * 1024  # the longest request line read, its LF not counted
# how often serve_forever looks for shutdown(), which waits for it: every
# QUIT and signal pays up to this, and socketserver's default is 0.5 s
POLL_INTERVAL = 0.05
# each verb's argument count, and the reply's text when a request has another
_VERBS = {
    "CREATE": (2, "CREATE takes a path and a length"),
    "OPEN": (1, "OPEN takes a path"),
    "STAT": (1, "STAT takes a path"),
    "DELETE": (1, "DELETE takes a path"),
    "REPORT": (0, "REPORT takes no arguments"),
    "QUIT": (0, "QUIT takes no arguments"),
}


def open_store(data_dir: str | Path, config: TieringConfig | None = None) -> TieredStore:
    """Open (or initialize) the store living in ``data_dir``.

    The image is the one commit point of both tiers. It holds the hot tier,
    the clock and ``cold_end``, the length of ``fsimage2`` it covers (0 with
    no image: the log then holds everything). Recovery loads the image, cuts
    ``fsimage2`` back to ``cold_end`` and replays the log through
    ``apply_event``, which runs the separation rule as the live store ran it,
    so what the cold file gained after the checkpoint is rebuilt. The store's
    ``edits`` and ``image_path`` are attached only after the replay, so the
    open writes no checkpoint, not even for a replayed pass. An edit whose
    tick is below the image's clock is in the image already and is skipped;
    any other edit must apply, or the open fails with CorruptLogError naming
    its line.

    The store checkpoints once the log holds as many edits as the image holds
    records, or ``tiering.CHECKPOINT_MIN_EDITS`` if that is more, so the log
    replayed here is at most about that long. A log already past that length
    is checkpointed on the store's first logged edit, not by the open.

    Only what stays in RAM is decoded: every image record and each edit once,
    and no cold record. The cold index scan checks only that each line is a
    record or a tombstone; a cold record is checked on its first read. The
    image and the cold file are read about 32 KiB of whole lines at a time,
    each chunk decoded or indexed in bulk; a chunk with a fault is read again
    one line at a time, so the error names the same line as a per-line read.
    """
    config = config or TieringConfig()
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    image_path, cold_path = data_dir / IMAGE_NAME, data_dir / COLD_NAME
    hot, clock, cold_end, image_records = None, 0, 0, 0
    if image_path.exists():
        hot = load_fsimage(image_path)
        clock, cold_end = read_commit(image_path)
        image_records = len(hot)
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
        store.clock = clock
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
    store.attach(edits, image_path, image_records)
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


class _Connection(socketserver.StreamRequestHandler):
    """One client connection, served on a thread of its own."""

    disable_nagle_algorithm = True  # small request/response lines; don't let Nagle batch them

    def handle(self) -> None:
        try:
            while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
                if len(raw) > MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                    while raw and not raw.endswith(b"\n"):
                        raw = self.rfile.readline(MAX_REQUEST_BYTES)
                    self.wfile.write(b"ERR BADREQ request longer than %d bytes\n"
                                     % MAX_REQUEST_BYTES)
                    continue
                try:
                    line = raw.rstrip(b"\n").decode("utf-8")
                except UnicodeDecodeError:
                    self.wfile.write(b"ERR BADREQ request is not UTF-8\n")
                    continue
                with self.server._store_lock:
                    try:
                        response, quitting = self.server._dispatch(line)
                    except Exception as exc:  # the store may now hold what no edit records
                        logger.exception("request failed, stopping: %r", line)
                        response, quitting = f"ERR BADREQ internal error: {exc}", True
                        self.server._stopping = self.server.failed = True
                self.wfile.write((response + "\n").encode("utf-8"))
                if quitting:
                    self.server.shutdown()
                    return
        except OSError:
            pass  # the client went away


class MetadataServer(socketserver.ThreadingTCPServer):
    """Serves a store from :func:`open_store` over TCP until a client sends QUIT."""

    daemon_threads = True
    allow_reuse_address = True  # a restarted server rebinds its port at once
    request_queue_size = 128  # the backlog socket.create_server's listen() gives

    def __init__(self, store: TieredStore, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Connection)
        self.store = store
        self.bound_port = self.server_address[1]
        # held by whichever connection is handling a request; see _Connection
        self._store_lock = threading.Lock()
        # set, under _store_lock, once the final checkpoint is written or (with
        # failed) a request has failed and none will be
        self._stopping = False
        self.failed = False
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Begin serving on the bound port, on a thread of its own."""
        self._thread = threading.Thread(target=self.serve_forever, args=(POLL_INTERVAL,),
                                        daemon=True)
        self._thread.start()
        logger.info("serving on %s:%d", self.server_address[0], self.bound_port)

    def wait(self, timeout: float | None = None) -> None:
        """Block until the server has shut down (a client sent QUIT)."""
        if self._thread is not None:
            self._thread.join(timeout)

    def shutdown(self) -> None:
        """Stop accepting and close the listening socket; safe to call twice,
        and from a connection's thread. The final checkpoint belongs to QUIT
        and to :func:`serve`: this is the hard stop used for cleanup. Open
        connections stay open until their next request (see :meth:`_dispatch`)."""
        if self._thread is not None:  # the base shutdown hangs unless serve_forever ran
            super().shutdown()
        self.server_close()

    def _close_store(self) -> None:
        """Write the final checkpoint unless QUIT already did or a request
        failed, then close the store, also when that checkpoint raises.

        Taking the request lock waits out a request still running on some
        connection, and setting ``_stopping`` turns away any that follow.
        """
        with self._store_lock:
            try:
                if not self._stopping:
                    self._stopping = True
                    self.store.checkpoint(self.store.image_path)
            finally:
                self.store.close()

    # -- request handling (with _store_lock held) -----------------------------

    def _dispatch(self, line: str) -> tuple[str, bool]:
        """The reply to ``line``, and whether to close the connection and stop."""
        if self._stopping:
            return "ERR BADREQ server is shutting down", True
        tokens = line.split(" ")
        verb = tokens[0]
        if verb not in _VERBS:
            return f"ERR BADREQ unknown verb {verb!r}", False
        arguments, usage = _VERBS[verb]
        if len(tokens) != 1 + arguments:
            return f"ERR BADREQ {usage}", False
        try:
            if verb == "CREATE":
                self.store.create(tokens[1], parse_non_negative_int(tokens[2], "length"))
                return f"OK created {tokens[1]}", False
            if verb == "OPEN":
                return format_record(self.store.open(tokens[1])), False
            if verb == "STAT":
                record, tier = self.store.stat(tokens[1])
                return format_record(record, tier), False
            if verb == "DELETE":
                self.store.delete(tokens[1])
                return f"OK deleted {tokens[1]}", False
            if verb == "REPORT":
                return self._report_line(), False
            self.store.checkpoint(self.store.image_path)  # QUIT
            self._stopping = True
            logger.info("QUIT received; checkpointed and shutting down")
            return "OK bye", True
        except PathExistsError as exc:
            return f"ERR EXISTS {exc}", False
        except NotFoundError as exc:
            return f"ERR NOTFOUND {exc}", False
        except (TierMetaError, ValueError) as exc:
            return f"ERR BADREQ {exc}", False

    def _report_line(self) -> str:
        fields = {"hot_records": len(self.store.hot), "cold_records": len(self.store.cold),
                  **self.store.metrics.counters()}
        return "OK " + " ".join(f"{k}={v}" for k, v in fields.items())


def serve(
    data_dir: str | Path,
    config: TieringConfig | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> None:
    """Open the store in ``data_dir`` and serve it until QUIT or a signal.

    SIGINT/SIGTERM stop the server the same way QUIT does; both paths end
    with a checkpoint, so a served directory never needs log replay on the
    next start unless the process was killed outright, or a request failed:
    then no checkpoint is written and TierMetaError is raised.
    """
    store = open_store(data_dir, config)
    server = MetadataServer(store, host, port)
    server.start()
    # handlers go in once the server runs, so a signal finds it running, and
    # before the listening line is printed: anyone who has seen it may signal us
    restore: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            restore[signum] = signal.signal(signum, lambda *_: server.shutdown())
    print(f"listening on {host}:{server.bound_port}", flush=True)
    try:
        server.wait()
    finally:
        for signum, handler in restore.items():
            signal.signal(signum, handler)
        server.shutdown()
        server._close_store()
    if server.failed:
        raise TierMetaError("a request failed; stopped without a checkpoint")
    print("checkpointed, bye", flush=True)
