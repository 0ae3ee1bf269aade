"""Child processes of the benchmark: one role per process.

Usage: ``python3 perfbench/worker.py <role> '<json args>'``. Every role
writes its result as JSON to ``args["out"]``. When ``args["trace_out"]`` is
set, the tracer's wrappers are installed before the role runs and the spans
are dumped after it; otherwise the program runs untouched.

The store under test lives in a process of its own, so each process's peak
RSS is the store's and not the benchmark's inputs or models.
"""

from __future__ import annotations

import json
import logging
import random
import resource
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import models  # noqa: E402
import spans  # noqa: E402
from tiermeta import cli, coldstore, fsimage, namespace, server, tiering, workload  # noqa: E402


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def gen(args: dict) -> dict:
    spec = workload.WorkloadSpec(n_files=args["files"], access_ops=args["accesses"],
                                 seed=args["seed"])
    workload.generate_trace(spec, args["trace"])
    return {}


def replay(args: dict) -> dict:
    config = tiering.TieringConfig(threshold_records=args["threshold"],
                                   recency_window=args["window"])
    start = time.perf_counter()
    report = workload.replay(args["trace"], config, args["cold"])
    end = time.perf_counter()
    events = [{"hot_size_before": e.hot_size_before, "evicted_count": e.evicted_count}
              for e in report.events]
    return {"start": start, "end": end, "seconds": end - start, "rss_kb": _rss_kb(),
            "summary": report.summary, "events": events}


def build_serve(args: dict) -> dict:
    """Write the directory serve-mix starts from: creates only, one checkpoint."""
    data_dir = Path(args["dir"])
    data_dir.mkdir(parents=True)
    cold = coldstore.ColdStore(data_dir / server.COLD_NAME)
    store = tiering.TieredStore(cold, tiering.TieringConfig(threshold_records=args["threshold"]))
    for i, length in enumerate(models.initial_lengths(args["seed"], args["n"])):
        store.create(models.initial_path(i), length)
    store.checkpoint(data_dir / server.IMAGE_NAME)
    store.close()
    return {}


def serve(args: dict) -> dict:
    code = cli.main(["serve", args["dir"], "--threshold", str(args["threshold"])])
    return {"exit": code, "rss_kb": _rss_kb()}


def session(args: dict) -> dict:
    """Leave a crashed directory behind and write the model of what it acknowledged.

    Mirrors what ``tiermeta serve`` does per request: every CREATE and DELETE
    is followed by the threshold check and, after a separation, a
    checkpoint. Creates only, until the last create triggers the last
    separation; then deletes, then opens. Every other path of the first
    ``lost_span`` (all cold by then) is opened, so it is promoted after the
    last checkpoint; the rest of the opens hit paths created inside the
    recency window of the last separation, which are hot. The process then
    ends without a checkpoint. Which paths those are does not depend on the
    seed; lengths, deleted paths and hot opens do.
    """
    data_dir = Path(args["dir"])
    threshold, creates = args["threshold"], args["creates"]
    rng = random.Random(f"restart-{args['seed']}")
    config = tiering.TieringConfig(threshold_records=threshold)
    store = server.open_store(data_dir, config)
    image = data_dir / server.IMAGE_NAME
    model: dict[str, list[int]] = {}
    tick = 0

    def path(i: int) -> str:
        return f"/r/f{i:07d}"

    def after_mutation() -> None:
        if store.maybe_separate() is not None:
            store.checkpoint(image)

    for i in range(creates):
        length = models.file_length(rng)
        store.create(path(i), length)
        model[path(i)] = [length, 1, tick]
        tick += 1
        after_mutation()
    separations = len(store.metrics.events)
    hot_before_deletes = len(store.hot)

    span = args["lost_span"]
    for i in rng.sample(range(span, creates), args["deletes"]):
        store.delete(path(i))
        del model[path(i)]
        tick += 1
        after_mutation()

    lost = [path(i) for i in range(0, span, 2)]
    recent = [p for p in map(path, range(creates - hot_before_deletes, creates)) if p in model]
    opens = lost + [path(i) for i in range(0, span, 4)]
    opens += [rng.choice(recent) for _ in range(args["hot_opens"])]
    rng.shuffle(opens)
    cold_hits_before = store.metrics.cold_hits
    for p in opens:
        store.open(p)
        model[p][1] += 1
        model[p][2] = tick
        tick += 1
    promoted = store.metrics.cold_hits - cold_hits_before
    if promoted != len(lost):
        raise RuntimeError(f"session promoted {promoted} paths after the last checkpoint, "
                           f"planned {len(lost)}")
    store.close()  # no checkpoint: the process "crashes" here
    models.write_model(args["model"], model)
    with open(data_dir / server.EDITS_NAME, "rb") as f:
        edits = f.read().count(b"\n")
    return {"live": len(model), "promoted_after_checkpoint": promoted, "separations": separations,
            "edits": edits, "hot": len(store.hot), "cold": len(store.cold)}


def reopen(args: dict) -> dict:
    """Time ``open_store`` on a crashed directory, then check what it recovered."""
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    config = tiering.TieringConfig(threshold_records=args["threshold"])
    t0 = time.perf_counter()
    store = server.open_store(args["dir"], config)
    seconds = time.perf_counter() - t0
    rss_kb = _rss_kb()
    _dump_trace(args)  # the check below is not part of the traced work
    model = models.read_model(args["model"])
    stored = list(store.hot.paths()) + store.cold.paths()
    result = models.check_recovered(model, store.hot.get, store.cold.get, stored)
    result.update(seconds=seconds, rss_kb=rss_kb, hot=len(store.hot), cold=len(store.cold))
    store.close()
    return result


def memory(args: dict) -> dict:
    """tracemalloc bytes held per hot record and per cold-index entry."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    if args.get("image"):
        hot = fsimage.load_fsimage(args["image"])
    else:
        hot = namespace.HotStore()
        with open(args["trace"], encoding="utf-8") as f:
            for line in f:
                op, p, length, tick = line.split()
                hot.create(p, int(length), int(tick))
                if len(hot) == args["sample"]:
                    break
    hot_bytes = (tracemalloc.get_traced_memory()[0] - base) / len(hot)
    del hot
    base = tracemalloc.get_traced_memory()[0]
    cold = coldstore.ColdStore(args["cold"])
    index_bytes = (tracemalloc.get_traced_memory()[0] - base) / max(1, len(cold))
    cold.close()
    tracemalloc.stop()
    return {"hot_bytes_per_record": hot_bytes, "index_bytes_per_record": index_bytes}


ROLES = {"gen": gen, "replay": replay, "build-serve": build_serve, "serve": serve,
         "session": session, "reopen": reopen, "memory": memory}


_tracer: spans.Tracer | None = None


def _dump_trace(args: dict) -> None:
    global _tracer
    if _tracer is not None:
        _tracer.dump(args["trace_out"])
        _tracer = None


def main() -> int:
    global _tracer
    role, args = sys.argv[1], json.loads(sys.argv[2])
    if args.get("trace_out"):
        _tracer = spans.Tracer()
        spans.install(_tracer)
    result = ROLES[role](args)
    _dump_trace(args)
    with open(args["out"], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
