"""Paths, workload sizes and process helpers shared by the benchmark's files."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Longest a single worker process may take before the run is abandoned;
# keeps a whole run inside its 180 s limit even when a worker hangs.
WORKER_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads (see README.md for the reasons)."""

    # replay-desk: the paper-desk preset
    desk_files: int = 180_000
    desk_accesses: int = 360_000
    desk_threshold: int = 120_000
    desk_window: int = 90_000
    desk_memory_sample: int = 20_000
    # serve-mix: the directory starts serve_headroom records under the threshold
    serve_threshold: int = 40_000
    serve_headroom: int = 1_000
    serve_round: int = 1_000
    # restart: creates-only history ending on a separation, then deletes and opens
    restart_threshold: int = 16_000
    restart_separations: int = 13
    restart_deletes: int = 2_000
    restart_lost_span: int = 8_000
    restart_hot_opens: int = 40_000
    # every workload sets up this many times per run and reports the median
    setup_reps: int = 3
    # The timed phase does a fixed amount of work per second of --seconds, so
    # that only timings vary between runs: whole replay passes, whole rounds
    # of requests, whole reopens, at about these rates on a 2-vCPU machine.
    desk_pass_s: float = 8.5
    serve_rate: float = 9_000
    restart_reopen_s: float = 2.5

    @property
    def restart_creates(self) -> int:
        # The default window is 3/4 of the threshold, so with every count at
        # 1 each separation evicts exactly a quarter of the threshold and the
        # last create of this many triggers the last separation.
        return self.restart_threshold + (self.restart_separations - 1) * (self.restart_threshold // 4)


FULL = Sizes()
SMALL = Sizes(
    desk_files=3_000, desk_accesses=6_000, desk_threshold=2_000, desk_window=1_500,
    desk_memory_sample=500,
    serve_threshold=1_000, serve_headroom=10, serve_round=200,
    restart_threshold=800, restart_separations=5, restart_deletes=100,
    restart_lost_span=200, restart_hot_opens=1_000,
    setup_reps=2,
)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    """The environment of every worker: string hashing fixed, so dict and set
    layouts, and with them timings, do not change from process to process."""
    return dict(os.environ, PYTHONHASHSEED="0")


def worker_command(role: str, args: dict) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), role, json.dumps(args)]


def run_worker(role: str, args: dict, log: Path, watch: str | None = None) -> dict:
    """Run one worker process to completion and return what it wrote to ``args['out']``.

    With ``watch``, the result also holds ``reads``: how far the worker had
    read into that file, sampled from outside it (see ``watch_reads``).
    """
    with open(log, "w") as err:
        proc = subprocess.Popen(worker_command(role, args), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT, env=worker_env())
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        reads = watch_reads(proc, watch, deadline) if watch else []
        returncode = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if returncode != 0:
        raise WorkerError(f"worker {role} exited {returncode}: {tail(log)}")
    with open(args["out"], encoding="utf-8") as f:
        result = json.load(f)
    if watch:
        result["reads"] = reads
    return result


# How often watch_reads samples: a replay pass then gives ~170 samples.
WATCH_INTERVAL_S = 0.05


def watch_reads(proc: subprocess.Popen, path: str, deadline: float) -> list[tuple[float, int]]:
    """Sample, until ``proc`` exits or ``deadline`` passes, its read offset in ``path``.

    Returns ``(time.perf_counter(), offset)`` pairs; on Linux that clock is
    CLOCK_MONOTONIC, so the times compare with ``perf_counter`` readings
    taken inside the watched process. The offset is read from
    ``/proc/<pid>/fdinfo`` of the descriptor ``proc`` has open on ``path``,
    so the watched process runs untouched: no thread, no wrapper. Samples
    taken while it has no such descriptor are left out.
    """
    target = os.path.realpath(path)
    fd_dir = f"/proc/{proc.pid}/fd"
    fd, samples = None, []
    while proc.poll() is None and time.monotonic() < deadline:
        time.sleep(WATCH_INTERVAL_S)
        now = time.perf_counter()
        try:
            if fd is None or os.readlink(f"{fd_dir}/{fd}") != target:
                fd = next((n for n in os.listdir(fd_dir) if _links_to(f"{fd_dir}/{n}", target)), None)
            if fd is not None:
                with open(f"/proc/{proc.pid}/fdinfo/{fd}") as f:
                    samples.append((now, int(f.readline().split()[1])))
        except (OSError, ValueError, IndexError):
            fd = None  # the descriptor closed, or the process is exiting
    return samples


def _links_to(link: str, target: str) -> bool:
    try:
        return os.readlink(link) == target
    except OSError:
        return False


def stretch_seconds(reads: list[tuple[float, int]], start: float, end: float,
                    size: int, stretches: int) -> list[float]:
    """Split one pass over a file of ``size`` bytes into equal stretches of
    the file and return the seconds each took.

    The time at which the read offset crossed each boundary is interpolated
    between the samples of ``watch_reads``. The pass runs from ``start``
    (offset 0) to ``end``; the last stretch ends at ``end``, so it also holds
    the work done after the last read.
    """
    points = [(start, 0)] + [(t, pos) for t, pos in reads if start < t < end] + [(end, size)]
    for k in range(1, len(points)):  # offsets only grow
        points[k] = (points[k][0], max(points[k][1], points[k - 1][1]))
    crossings, j = [start], 1
    for i in range(1, stretches):
        boundary = size * i / stretches
        while points[j][1] < boundary:
            j += 1
        (t0, p0), (t1, p1) = points[j - 1], points[j]
        crossings.append(t0 + (t1 - t0) * (boundary - p0) / (p1 - p0))
    crossings.append(end)
    return [b - a for a, b in zip(crossings, crossings[1:])]


def tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"


def store_bytes(data_dir: Path) -> int:
    return sum(f.stat().st_size for f in data_dir.iterdir() if f.is_file())


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU.

    A closed-loop client and the server it waits on then never wake each
    other across CPUs, which made round-trip rates swing by almost 2x
    between runs when they did.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, 0 < q <= 1."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def rounds_for(seconds: float, seconds_per_round: float) -> int:
    """Whole rounds of work that take about ``seconds`` at the nominal rate."""
    return max(1, math.ceil(seconds / seconds_per_round - 1e-9))
