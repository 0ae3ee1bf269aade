"""tiermeta benchmark: one command, three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload replay-desk|serve-mix|restart \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it give the same run in more detail. See README.md for what each workload
does and why.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import models
import shared
import spans
from shared import Sizes

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "wait_p50_ms": "ms",
             "peak_rss_mb": "MB", "disk_mb": "MB"}


@dataclass
class Run:
    """One benchmark run: its inputs, its scratch directory, its traced processes."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    dir: Path
    sizes: Sizes = shared.FULL
    trace_dumps: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    processes: list[subprocess.Popen] = field(default_factory=list)

    def args(self, name: str, traced: bool = False, **kwargs) -> dict:
        kwargs["out"] = str(self.dir / f"{name}.out.json")
        if traced and self.traced:
            spans_dir = shared.WORK / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            dump = str(spans_dir / f"{self.workload}-{name}")
            self.trace_dumps.append(dump)
            kwargs["trace_out"] = dump
        return kwargs

    def worker(self, role: str, name: str, traced: bool = False, watch: str | None = None,
               **kwargs) -> dict:
        return shared.run_worker(role, self.args(name, traced, **kwargs),
                                 self.dir / f"{name}.log", watch)

    def note(self, text: str) -> None:
        self.lines.append(text)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    e2e: dict[str, float]
    memory: dict[str, float] = field(default_factory=dict)
    hop_us: float = 0.0


# replay-desk times a pass in this many stretches of equal bytes of its trace
STRETCHES = 50


def mb(n_bytes: float) -> float:
    return n_bytes / 1e6


# -- replay-desk ----------------------------------------------------------------

def replay_desk(run: Run) -> Outcome:
    s = run.sizes
    trace = run.dir / "trace.txt"
    cold = run.dir / "trace.cold"
    setup = []
    for rep in range(s.setup_reps):
        t0 = time.perf_counter()
        run.worker("gen", f"gen{rep}", traced=rep == s.setup_reps - 1, trace=str(trace),
                   files=s.desk_files, accesses=s.desk_accesses, seed=run.seed)
        setup.append(time.perf_counter() - t0)

    # the traced run replays once: its per-layer totals are those of one pass
    n_passes = 1 if run.traced else shared.rounds_for(run.seconds, s.desk_pass_s)
    passes = [run.worker("replay", f"replay{k}", traced=True, watch=str(trace), trace=str(trace),
                         cold=str(cold), threshold=s.desk_threshold, window=s.desk_window)
              for k in range(n_passes)]

    with open(trace, encoding="utf-8") as f:
        model = models.separation_model(f, s.desk_threshold, s.desk_window)
    problems = []
    for p in passes:
        problems += models.check_report(p["summary"], p["events"], model)
    problems += models.check_cold_file(models.read_cold_file(cold), passes[-1]["summary"], model)
    for text in dict.fromkeys(problems):
        run.note(f"CHECK FAILED: {text}")

    events = s.desk_files + s.desk_accesses
    pass_s = median_pass_seconds(passes, trace.stat().st_size, STRETCHES)
    summary = passes[-1]["summary"]
    run.note(f"events_per_s={events / pass_s:.1f} 1/s: {events} events in {pass_s:.3f} s, "
             f"{STRETCHES} stretches of the trace each at its median of {len(passes)} passes; "
             f"generate_trace setup median {statistics.median(setup):.3f} s")
    run.note("whole pass seconds: " + " ".join(f"{p['seconds']:.3f}" for p in passes)
             + "; read offsets sampled: " + " ".join(str(len(p["reads"])) for p in passes))
    run.note(f"separations={summary['separations']} cold_hits={summary['cold_hits']} "
             f"({summary['cold_hits'] / summary['lookups']:.1%} of accesses) "
             f"final hot/cold={summary['final_hot_records']}/{summary['final_cold_records']}")
    outcome = Outcome(
        correct=not problems, attempted=events * len(passes), failed=0,
        e2e={
            "setup_s": statistics.median(setup),
            "ops_per_s": events / pass_s,
            "wait_p50_ms": 1000 * pass_s,
            "peak_rss_mb": mb(1024 * statistics.median(p["rss_kb"] for p in passes)),
            "disk_mb": mb(cold.stat().st_size),
        })
    if run.traced:
        outcome.memory = run.worker("memory", "memory", trace=str(trace), cold=str(cold),
                                    sample=s.desk_memory_sample)
    return outcome


def median_pass_seconds(passes: list[dict], size: int, stretches: int) -> float:
    """The time of one pass over a file of ``size`` bytes, timed stretch by
    stretch of the file, each stretch at the median of its passes.

    A slow spell of the host in one pass then does not count unless it hits
    the same stretch in most passes.
    """
    times = [shared.stretch_seconds(p["reads"], p["start"], p["end"], size, stretches)
             for p in passes]
    return sum(statistics.median(stretch) for stretch in zip(*times))


# -- serve-mix ------------------------------------------------------------------

def start_server(run: Run, name: str, data_dir: Path, traced: bool) -> tuple[subprocess.Popen, int, str]:
    """Start ``tiermeta serve`` through the launcher; return once it accepts.

    Returns the process, its port, and the file its launcher writes at exit.
    """
    args = run.args(name, traced, dir=str(data_dir), threshold=run.sizes.serve_threshold)
    err = open(run.dir / f"{name}.log", "w")
    proc = subprocess.Popen(shared.worker_command("serve", args), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=err, cwd=shared.ROOT,
                            env=shared.worker_env())
    err.close()
    run.processes.append(proc)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=60):
            raise shared.WorkerError("server did not start within 60 s")
        line = proc.stdout.readline().decode()
    if not line.startswith("listening on "):
        raise shared.WorkerError(f"server did not start: {line!r} {shared.tail(run.dir / f'{name}.log')}")
    return proc, int(line.rsplit(":", 1)[1]), args["out"]


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


class Client:
    """One closed-loop client: the next request goes out when the reply is in."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _reply(self) -> bytes:
        data = self.sock.recv(65536)
        while not data.endswith(b"\n"):
            more = self.sock.recv(65536)
            if not more:
                raise ConnectionError(f"server closed the connection after {data!r}")
            data += more
        return data

    def ask(self, line: str) -> str:
        self.sock.sendall(line.encode() + b"\n")
        return self._reply()[:-1].decode()

    def timed_round(self, requests: list[str], rtts: array, replies: list[bytes]) -> float:
        """Send ``requests`` one at a time; return the seconds the round took."""
        send, reply, clock = self.sock.sendall, self._reply, time.perf_counter_ns
        payloads = [r.encode() + b"\n" for r in requests]
        start = clock()
        for payload in payloads:
            t0 = clock()
            send(payload)
            replies.append(reply())
            rtts.append(clock() - t0)
        return (clock() - start) / 1e9

    def close(self) -> None:
        self.sock.close()


def serve_mix(run: Run) -> Outcome:
    s = run.sizes
    n0 = s.serve_threshold - s.serve_headroom
    setup = []
    for rep in range(s.setup_reps):
        last = rep == s.setup_reps - 1
        data_dir = run.dir / f"serve{rep}"
        t0 = time.perf_counter()
        run.worker("build-serve", f"build{rep}", dir=str(data_dir), seed=run.seed, n=n0,
                   threshold=s.serve_threshold)
        proc, port, served_out = start_server(run, f"serve{rep}", data_dir, traced=last)
        setup.append(time.perf_counter() - t0)
        if not last:
            stop(proc)

    script = models.ServeScript(run.seed, n0)
    requests: list[str] = []
    rtts, replies = array("q"), []
    client = Client(port)
    rounds: list[float] = []
    for _ in range(shared.rounds_for(run.seconds, s.serve_round / s.serve_rate)):
        batch = script.next_requests(s.serve_round)
        requests += batch
        rounds.append(client.timed_round(batch, rtts, replies))
    timed = sum(rounds)
    report = client.ask("REPORT")
    bye = client.ask("QUIT")
    client.close()
    proc.wait(timeout=shared.WORKER_TIMEOUT_S)
    with open(served_out, encoding="utf-8") as f:
        served = json.load(f)

    model = models.ServedModel(models.initial_lengths(run.seed, n0))
    for request, reply in zip(requests, replies):
        model.check(request, reply[:-1].decode())
    counters = model.check_report(report)
    if bye != "OK bye" or served["exit"] != 0:
        model.problems.append(f"QUIT answered {bye!r}, server exit {served['exit']}")
    for text in model.problems:
        run.note(f"CHECK FAILED: {text}")

    by_verb: dict[str, list[int]] = {}
    for request, rtt in zip(requests, rtts):
        by_verb.setdefault(request.split(" ", 1)[0], []).append(rtt)
    pooled = sorted(rtts)
    run.note(f"requests_per_s={len(requests) / timed:.1f} 1/s over {len(requests)} requests "
             f"in {timed:.2f} s; rtt_p50_us={statistics.median(pooled) / 1e3:.1f} "
             f"rtt_p90_us={shared.percentile(pooled, 0.9) / 1e3:.1f} "
             f"rtt_p99_us={shared.percentile(pooled, 0.99) / 1e3:.1f}")
    # Every round is counted at the median round time, so a slow spell of the
    # host in a few rounds does not count; the longest round trip, the
    # checkpoint after the separation, is added back whole.
    stall_s = max(rtts) / 1e9
    steady_s = len(rounds) * statistics.median(rounds) + stall_s
    rates = [s.serve_round / t for t in rounds]
    run.note(f"ops_per_s={len(requests) / steady_s:.1f} 1/s: {len(rounds)} rounds at the median "
             f"round of {statistics.median(rounds) * 1e3:.1f} ms plus the longest round trip of "
             f"{stall_s * 1e3:.1f} ms; round rates (1/s) q1/median/q3 "
             + "/".join(f"{q:.0f}" for q in statistics.quantiles(rates, n=4)))
    run.note(" ".join(f"{verb.lower()}_p50_us={statistics.median(v) / 1e3:.1f} (n={len(v)})"
                      for verb, v in sorted(by_verb.items())))
    run.note(f"separations={counters.get('separations')} promotions={counters.get('promotions')} "
             f"cold STATs={model.stat_tiers['cold']}/{sum(model.stat_tiers.values())} "
             f"final hot/cold={counters.get('hot_records')}/{counters.get('cold_records')}")
    outcome = Outcome(
        correct=not model.problems, attempted=len(requests), failed=model.failed,
        e2e={
            "setup_s": statistics.median(setup),
            "ops_per_s": len(requests) / steady_s,
            "wait_p50_ms": statistics.median(pooled) / 1e6,
            "peak_rss_mb": mb(1024 * served["rss_kb"]),
            "disk_mb": mb(shared.store_bytes(data_dir)),
        })
    if run.traced:
        outcome.memory = run.worker("memory", "memory", image=str(data_dir / "fsimage"),
                                    cold=str(data_dir / "fsimage2"))
        with open(run.trace_dumps[-1] + ".json", encoding="utf-8") as f:
            store_ns = spans.served_store_ns(json.load(f), counters.get("separations", 0))
        outcome.hop_us = (sum(rtts) - store_ns) / len(rtts) / 1e3
    return outcome


# -- restart --------------------------------------------------------------------

def restart(run: Run) -> Outcome:
    s = run.sizes
    setup, meta = [], {}
    crashed = model = run.dir
    for rep in range(s.setup_reps):
        crashed, model = run.dir / f"crashed{rep}", run.dir / f"model{rep}.tsv"
        t0 = time.perf_counter()
        meta = run.worker("session", f"session{rep}", dir=str(crashed), model=str(model),
                          seed=run.seed, threshold=s.restart_threshold,
                          creates=s.restart_creates, deletes=s.restart_deletes,
                          lost_span=s.restart_lost_span, hot_opens=s.restart_hot_opens)
        setup.append(time.perf_counter() - t0)

    reopens = []
    copy = run.dir / "reopened"
    # the traced run reopens once: its per-layer totals are those of one recovery
    for _ in range(1 if run.traced else shared.rounds_for(run.seconds, s.restart_reopen_s)):
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(crashed, copy)
        result = run.worker("reopen", "reopen", traced=True, dir=str(copy), model=str(model),
                            threshold=s.restart_threshold)
        log = (run.dir / "reopen.log").read_text(errors="replace")
        result["skipped"] = log.count("skipping unreplayable edit")
        result["disk"] = shared.store_bytes(copy)
        reopens.append(result)

    problems = reopen_problems(reopens, meta)
    for text in problems:
        run.note(f"CHECK FAILED: {text}")

    first = reopens[0]
    seconds = [r["seconds"] for r in reopens]
    run.note("reopen seconds: " + " ".join(f"{x:.3f}" for x in seconds))
    run.note(f"recover_s={statistics.median(seconds):.4f} s median of {len(reopens)} reopens; "
             f"session: {meta['separations']} separations, {meta['edits']} edits after the last "
             f"checkpoint, {meta['promoted_after_checkpoint']} promotions after it")
    run.note(f"recovered hot/cold={first['hot']}/{first['cold']} of {meta['live']} acknowledged; "
             f"failed={first['failed']} (missing {first['missing']}, differs {first['differs']}, "
             f"both tiers {first['both']}); skipped edits={first['skipped']}")
    outcome = Outcome(
        correct=not problems, attempted=sum(r["checked"] for r in reopens),
        failed=sum(r["failed"] for r in reopens),
        e2e={
            "setup_s": statistics.median(setup),
            "ops_per_s": first["checked"] / statistics.median(seconds),
            "wait_p50_ms": 1000 * statistics.median(seconds),
            "peak_rss_mb": mb(1024 * statistics.median(r["rss_kb"] for r in reopens)),
            "disk_mb": mb(statistics.median(r["disk"] for r in reopens)),
        })
    if run.traced:
        outcome.memory = run.worker("memory", "memory", image=str(crashed / "fsimage"),
                                    cold=str(crashed / "fsimage2"))
    return outcome


REOPEN_KEYS = ("checked", "failed", "missing", "differs", "both", "extra", "hot", "cold", "skipped")


def reopen_problems(reopens: list[dict], meta: dict) -> list[str]:
    """Every reopen of the same crashed directory must recover the same state,
    check every acknowledged path, and find no path that was never acknowledged."""
    problems = []
    first = {k: reopens[0][k] for k in REOPEN_KEYS}
    if any({k: r[k] for k in REOPEN_KEYS} != first for r in reopens):
        problems.append("reopens of identical copies recovered different states")
    if first["extra"]:
        problems.append(f"{first['extra']} recovered paths were never acknowledged")
    if first["checked"] != meta["live"]:
        problems.append(f"checked {first['checked']} paths, session acknowledged {meta['live']}")
    return problems


WORKLOADS = {"replay-desk": replay_desk, "serve-mix": serve_mix, "restart": restart}


def execute(run: Run) -> Outcome:
    """Run one workload in ``run.dir``, stopping every process it started."""
    try:
        return WORKLOADS[run.workload](run)
    finally:
        for proc in run.processes:
            stop(proc)


def result_json(run: Run, outcome: Outcome) -> dict:
    if run.traced:
        merged = spans.load_dumps(run.trace_dumps)
        values = spans.layer_metrics(merged, outcome.memory, outcome.hop_us)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (shared.SRC / "tiermeta" / "__init__.py").is_file():
        print(f"error: the program is not there: {shared.SRC / 'tiermeta'}", file=sys.stderr)
        return 2
    cpu = shared.pin_to_one_cpu()
    run_dir = shared.WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    try:
        outcome = execute(run)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"workload={run.workload} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(run.traced)} cpu={cpu}")
    for line in run.lines:
        print(line)
    result = result_json(run, outcome)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
