"""Span tracer for the traced run, and the per-layer metrics computed from it.

The tracer replaces program functions with timing wrappers at the names
their callers look them up by (a module global, or a class attribute), so
nothing under ``src/`` changes and untraced runs carry no wrapper at all.

Each traced process keeps its spans in memory: per-name aggregates (calls,
inclusive and self nanoseconds) for every call, plus the first ``RAW_CAP``
raw spans (name, parent span, start, end). At exit :meth:`Tracer.dump`
writes ``<out>.json`` (aggregates) and ``<out>.spans`` (raw spans: four
arrays back to back, ``uint16`` name ids, ``int64`` parent indices, ``int64``
start ns, ``int64`` end ns, each ``raw_spans`` long).

Self time is a span's duration minus the time covered by its child spans.
The wrapper's own bookkeeping runs inside the caller's span, so traced self
times of callers are inflated by roughly 1 us per wrapped child call.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

RAW_CAP = 1 << 18

OPEN_STORE = "server.open_store"
EDITS_ENTRIES = "editlog.EditsLog.entries"
COLD_RECORDS = "coldstore.ColdStore.records"
CHECKPOINT = "tiering.TieredStore.checkpoint"
# TieredStore calls the server makes while handling requests; their
# inclusive time is the store's share of a round trip.
SERVED_STORE_CALLS = (
    "tiering.TieredStore.create",
    "tiering.TieredStore.open",
    "tiering.TieredStore.stat",
    "tiering.TieredStore.delete",
    "tiering.TieredStore.maybe_separate",
)


class Tracer:
    """In-memory span recorder for one process; single-threaded use."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.active: list[int] = []
        self.counters: Counter[str] = Counter()
        self.durations: dict[str, list[int]] = {}
        self._stack: list[list[int]] = []
        self.raw_name = array.array("H")
        self.raw_parent = array.array("q")
        self.raw_start = array.array("q")
        self.raw_end = array.array("q")
        self.raw_dropped = 0

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            for column in (self.calls, self.total_ns, self.self_ns, self.active):
                column.append(0)
        return i

    def enter(self, i: int) -> list[int]:
        stack = self._stack
        raw = len(self.raw_name)
        if raw < RAW_CAP:
            self.raw_name.append(i)
            self.raw_parent.append(stack[-1][3] if stack else -1)
            self.raw_start.append(0)
            self.raw_end.append(0)
        else:
            raw = -1
            self.raw_dropped += 1
        self.active[i] += 1
        frame = [i, 0, 0, raw]
        stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def leave(self, frame: list[int], count: bool = True) -> int:
        t1 = time.perf_counter_ns()
        i, t0, child, raw = frame
        self._stack.pop()
        d = t1 - t0
        self.total_ns[i] += d
        self.self_ns[i] += d - child
        self.active[i] -= 1
        if count:
            self.calls[i] += 1
        if self._stack:
            self._stack[-1][2] += d
        if raw >= 0:
            self.raw_start[raw] = t0
            self.raw_end[raw] = t1
        return d

    def dump(self, out: str) -> None:
        n = len(self.raw_name)
        with open(out + ".spans", "wb") as f:
            for column in (self.raw_name, self.raw_parent, self.raw_start, self.raw_end):
                column.tofile(f)
        payload = {
            "names": self.names,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counters": dict(self.counters),
            "durations": self.durations,
            "raw_spans": n,
            "raw_dropped": self.raw_dropped,
        }
        with open(out + ".json", "w", encoding="utf-8") as f:
            json.dump(payload, f)


# -- what gets wrapped -------------------------------------------------------

Hook = Callable[[tuple, object, object, Counter], None]


@dataclass(frozen=True)
class Wrap:
    """One traced function: its metric name and every place callers find it.

    ``targets`` are ``module:attribute.path`` strings. ``pre`` runs before
    the span with the call's arguments; ``post`` runs after it with the
    arguments, the result and what ``pre`` returned. ``count_under`` counts
    calls made while the named span is open; ``errors_under`` counts calls
    that raised while the named span is open.
    """

    name: str
    targets: tuple[str, ...]
    generator: bool = False
    pre: Callable[[tuple], object] | None = None
    post: Hook | None = None
    count_under: str | None = None
    errors_under: str | None = None
    keep_durations: bool = False


def _append_bytes(args, result, pre, counters):
    counters["editlog.EditsLog.append.bytes"] += len(args[1].encode().encode("utf-8")) + 1


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _spill_pre(args):
    return _file_size(args[0].path)


def _spill_post(args, result, pre, counters):
    counters["coldstore.ColdStore.append_records.bytes"] += _file_size(args[0].path) - pre


def _save_post(args, result, pre, counters):
    counters["fsimage.save_fsimage.bytes"] += _file_size(args[1])


def _partition_post(args, result, pre, counters):
    kept, evicted = result
    counters["tiering.partition_records.examined"] += len(kept) + len(evicted)
    counters["tiering.partition_records.evicted"] += len(evicted)


def _get_post(args, result, pre, counters):
    if result is not None:
        counters["coldstore.ColdStore.get.hits"] += 1


def _records_pre(args):
    return len(args[0])


def _records_post(args, result, pre, counters):
    counters["coldstore.ColdStore.records.basis"] += pre


def _open_store_pre(args):
    log = os.path.join(args[0], "edits.log")
    try:
        with open(log, "rb") as f:
            return f.read().count(b"\n")
    except OSError:
        return 0


def _open_store_post(args, result, pre, counters):
    counters["server.open_store.edit_lines"] += pre


WRAPS: tuple[Wrap, ...] = (
    Wrap("editlog.parse_op_line",
         ("tiermeta.editlog:parse_op_line", "tiermeta.workload:parse_op_line"),
         count_under=EDITS_ENTRIES),
    Wrap(EDITS_ENTRIES, ("tiermeta.editlog:EditsLog.entries",), generator=True),
    Wrap("editlog.EditsLog.append", ("tiermeta.editlog:EditsLog.append",), post=_append_bytes),
    Wrap("namespace.validate_path",
         ("tiermeta.namespace:validate_path", "tiermeta.tiering:validate_path")),
    Wrap("namespace.split_blocks", ("tiermeta.namespace:split_blocks",)),
    Wrap("namespace.HotStore.create", ("tiermeta.namespace:HotStore.create",)),
    Wrap("recordio.decode_record",
         ("tiermeta.recordio:decode_record", "tiermeta.coldstore:decode_record"),
         count_under=COLD_RECORDS),
    Wrap("recordio.encode_record",
         ("tiermeta.recordio:encode_record", "tiermeta.coldstore:encode_record")),
    Wrap("tiering.apply_event", ("tiermeta.tiering:TieredStore.apply_event",),
         errors_under=OPEN_STORE),
    Wrap("tiering.TieredStore.create", ("tiermeta.tiering:TieredStore.create",)),
    Wrap("tiering.TieredStore.open", ("tiermeta.tiering:TieredStore.open",)),
    Wrap("tiering.TieredStore.stat", ("tiermeta.tiering:TieredStore.stat",)),
    Wrap("tiering.TieredStore.delete", ("tiermeta.tiering:TieredStore.delete",)),
    Wrap("tiering.TieredStore.maybe_separate", ("tiermeta.tiering:TieredStore.maybe_separate",)),
    Wrap("tiering.TieredStore.separate", ("tiermeta.tiering:TieredStore.separate",)),
    Wrap(CHECKPOINT, ("tiermeta.tiering:TieredStore.checkpoint",), keep_durations=True),
    Wrap("tiering.partition_records", ("tiermeta.tiering:partition_records",),
         post=_partition_post),
    Wrap("coldstore.ColdStore.open", ("tiermeta.coldstore:ColdStore.__init__",)),
    Wrap("coldstore.ColdStore.get", ("tiermeta.coldstore:ColdStore.get",), post=_get_post),
    Wrap("coldstore.ColdStore.append_records", ("tiermeta.coldstore:ColdStore.append_records",),
         pre=_spill_pre, post=_spill_post),
    Wrap("coldstore.ColdStore.delete", ("tiermeta.coldstore:ColdStore.delete",)),
    Wrap(COLD_RECORDS, ("tiermeta.coldstore:ColdStore.records",), generator=True,
         pre=_records_pre, post=_records_post),
    Wrap("fsimage.save_fsimage",
         ("tiermeta.fsimage:save_fsimage", "tiermeta.tiering:save_fsimage"), post=_save_post),
    Wrap("fsimage.load_fsimage",
         ("tiermeta.fsimage:load_fsimage", "tiermeta.server:load_fsimage")),
    Wrap(OPEN_STORE, ("tiermeta.server:open_store",), pre=_open_store_pre, post=_open_store_post),
    Wrap("workload.generate_trace", ("tiermeta.workload:generate_trace",)),
)


def _wrapper(tracer: Tracer, fn, spec: Wrap):
    i = tracer.name_id(spec.name)
    under = tracer.name_id(spec.count_under) if spec.count_under else None
    err_under = tracer.name_id(spec.errors_under) if spec.errors_under else None
    under_key = f"{spec.name}.under.{spec.count_under}"
    err_key = f"{spec.name}.errors_under.{spec.errors_under}"
    pre, post, keep = spec.pre, spec.post, spec.keep_durations
    durations = tracer.durations.setdefault(spec.name, []) if keep else None
    counters, active = tracer.counters, tracer.active

    if spec.generator:
        def traced_gen(*args, **kwargs):
            pre_value = pre(args) if pre else None
            inner = fn(*args, **kwargs)
            tracer.calls[i] += 1
            if post:
                post(args, None, pre_value, counters)
            while True:
                frame = tracer.enter(i)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.leave(frame, count=False)
                    return
                except BaseException:
                    tracer.leave(frame, count=False)
                    raise
                tracer.leave(frame, count=False)
                yield item
        return traced_gen

    def traced(*args, **kwargs):
        pre_value = pre(args) if pre else None
        if under is not None and active[under]:
            counters[under_key] += 1
        frame = tracer.enter(i)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.leave(frame)
            if err_under is not None and active[err_under]:
                counters[err_key] += 1
            raise
        d = tracer.leave(frame)
        if keep:
            durations.append(d)
        if post:
            post(args, result, pre_value, counters)
        return result
    return traced


def install(tracer: Tracer, wraps: tuple[Wrap, ...] = WRAPS) -> None:
    """Patch every target of every spec in place (for this process only)."""
    for spec in wraps:
        for target in spec.targets:
            module_name, _, attr_path = target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, _wrapper(tracer, getattr(owner, attr), spec))


# -- merging and per-layer metrics -------------------------------------------

@dataclass
class Merged:
    """Calls, self time and counters summed over the traced processes of a run."""

    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)

    def add(self, dump: dict) -> None:
        for k, name in enumerate(dump["names"]):
            self.calls[name] += dump["calls"][k]
            self.self_ns[name] += dump["self_ns"][k]
        self.counters.update(dump["counters"])


def load_dumps(paths) -> Merged:
    merged = Merged()
    for path in paths:
        with open(str(path) + ".json", encoding="utf-8") as f:
            merged.add(json.load(f))
    return merged


def served_store_ns(dump: dict, separations: int) -> int:
    """Inclusive ns the server spent in TieredStore calls for requests.

    Each separation's checkpoint is counted; the checkpoints after them
    belong to QUIT and shutdown, after the timed phase.
    """
    index = {name: k for k, name in enumerate(dump["names"])}
    ns = sum(dump["total_ns"][index[n]] for n in SERVED_STORE_CALLS if n in index)
    return ns + sum(dump["durations"].get(CHECKPOINT, [])[:separations])


PER_LAYER: tuple[tuple[str, str], ...] = (
    ("editlog.parse_op_line.calls", "count"),
    ("editlog.parse_op_line.self_s", "s"),
    ("editlog.EditsLog.entries.parses_per_edit", "ratio"),
    ("editlog.EditsLog.append.calls", "count"),
    ("editlog.EditsLog.append.self_s", "s"),
    ("editlog.EditsLog.append.bytes", "B"),
    ("namespace.validate_path.calls_per_create", "ratio"),
    ("namespace.split_blocks.self_s", "s"),
    ("namespace.HotStore.create.self_s", "s"),
    ("namespace.hot_bytes_per_record", "B"),
    ("recordio.decode_record.calls", "count"),
    ("recordio.decode_record.self_s", "s"),
    ("recordio.encode_record.calls", "count"),
    ("recordio.encode_record.self_s", "s"),
    ("tiering.apply_event.self_s", "s"),
    ("tiering.TieredStore.create.self_s", "s"),
    ("tiering.TieredStore.open.self_s", "s"),
    ("tiering.TieredStore.stat.self_s", "s"),
    ("tiering.TieredStore.delete.self_s", "s"),
    ("tiering.partition_records.self_s", "s"),
    ("tiering.partition_records.evicted_per_examined", "ratio"),
    ("tiering.TieredStore.separate.calls", "count"),
    ("tiering.TieredStore.separate.self_s", "s"),
    ("coldstore.ColdStore.get.calls", "count"),
    ("coldstore.ColdStore.get.self_s", "s"),
    ("coldstore.ColdStore.get.hit_ratio", "ratio"),
    ("coldstore.ColdStore.append_records.self_s", "s"),
    ("coldstore.ColdStore.append_records.bytes", "B"),
    ("coldstore.ColdStore.delete.calls", "count"),
    ("coldstore.ColdStore.open.self_s", "s"),
    ("coldstore.ColdStore.records.self_s", "s"),
    ("coldstore.ColdStore.records.decodes_per_cold_record", "ratio"),
    ("coldstore.index_bytes_per_record", "B"),
    ("fsimage.save_fsimage.calls", "count"),
    ("fsimage.save_fsimage.self_s", "s"),
    ("fsimage.save_fsimage.bytes", "B"),
    ("fsimage.load_fsimage.self_s", "s"),
    ("server.open_store.self_s", "s"),
    ("server.open_store.skipped_edits", "count"),
    ("server.hop_us", "us"),
    ("workload.generate_trace.self_s", "s"),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(m: Merged, memory: dict[str, float], hop_us: float) -> dict[str, float]:
    """Every PER_LAYER metric from merged dumps; 0 where a layer did not run.

    ``memory`` holds the two tracemalloc figures; ``hop_us`` is the client
    round trip minus the server's time in TieredStore calls (0 when the
    workload has no server).
    """
    c, s, k = m.calls, m.self_ns, m.counters

    def self_s(name: str) -> float:
        return s[name] / 1e9

    values = {
        "editlog.parse_op_line.calls": c["editlog.parse_op_line"],
        "editlog.parse_op_line.self_s": self_s("editlog.parse_op_line"),
        "editlog.EditsLog.entries.parses_per_edit": _ratio(
            k[f"editlog.parse_op_line.under.{EDITS_ENTRIES}"], k["server.open_store.edit_lines"]),
        "editlog.EditsLog.append.calls": c["editlog.EditsLog.append"],
        "editlog.EditsLog.append.self_s": self_s("editlog.EditsLog.append"),
        "editlog.EditsLog.append.bytes": k["editlog.EditsLog.append.bytes"],
        "namespace.validate_path.calls_per_create": _ratio(
            c["namespace.validate_path"], c["namespace.HotStore.create"]),
        "namespace.split_blocks.self_s": self_s("namespace.split_blocks"),
        "namespace.HotStore.create.self_s": self_s("namespace.HotStore.create"),
        "namespace.hot_bytes_per_record": memory.get("hot_bytes_per_record", 0.0),
        "recordio.decode_record.calls": c["recordio.decode_record"],
        "recordio.decode_record.self_s": self_s("recordio.decode_record"),
        "recordio.encode_record.calls": c["recordio.encode_record"],
        "recordio.encode_record.self_s": self_s("recordio.encode_record"),
        "tiering.apply_event.self_s": self_s("tiering.apply_event"),
        "tiering.TieredStore.create.self_s": self_s("tiering.TieredStore.create"),
        "tiering.TieredStore.open.self_s": self_s("tiering.TieredStore.open"),
        "tiering.TieredStore.stat.self_s": self_s("tiering.TieredStore.stat"),
        "tiering.TieredStore.delete.self_s": self_s("tiering.TieredStore.delete"),
        "tiering.partition_records.self_s": self_s("tiering.partition_records"),
        "tiering.partition_records.evicted_per_examined": _ratio(
            k["tiering.partition_records.evicted"], k["tiering.partition_records.examined"]),
        "tiering.TieredStore.separate.calls": c["tiering.TieredStore.separate"],
        "tiering.TieredStore.separate.self_s": self_s("tiering.TieredStore.separate"),
        "coldstore.ColdStore.get.calls": c["coldstore.ColdStore.get"],
        "coldstore.ColdStore.get.self_s": self_s("coldstore.ColdStore.get"),
        "coldstore.ColdStore.get.hit_ratio": _ratio(
            k["coldstore.ColdStore.get.hits"], c["coldstore.ColdStore.get"]),
        "coldstore.ColdStore.append_records.self_s": self_s("coldstore.ColdStore.append_records"),
        "coldstore.ColdStore.append_records.bytes": k["coldstore.ColdStore.append_records.bytes"],
        "coldstore.ColdStore.delete.calls": c["coldstore.ColdStore.delete"],
        "coldstore.ColdStore.open.self_s": self_s("coldstore.ColdStore.open"),
        "coldstore.ColdStore.records.self_s": self_s(COLD_RECORDS),
        "coldstore.ColdStore.records.decodes_per_cold_record": _ratio(
            k[f"recordio.decode_record.under.{COLD_RECORDS}"],
            k["coldstore.ColdStore.records.basis"]),
        "coldstore.index_bytes_per_record": memory.get("index_bytes_per_record", 0.0),
        "fsimage.save_fsimage.calls": c["fsimage.save_fsimage"],
        "fsimage.save_fsimage.self_s": self_s("fsimage.save_fsimage"),
        "fsimage.save_fsimage.bytes": k["fsimage.save_fsimage.bytes"],
        "fsimage.load_fsimage.self_s": self_s("fsimage.load_fsimage"),
        "server.open_store.self_s": self_s(OPEN_STORE),
        "server.open_store.skipped_edits": k[f"tiering.apply_event.errors_under.{OPEN_STORE}"],
        "server.hop_us": hop_us,
        "workload.generate_trace.self_s": self_s("workload.generate_trace"),
    }
    assert set(values) == {name for name, _ in PER_LAYER}
    return values
