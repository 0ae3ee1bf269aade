"""Run the benchmark on two checkouts in interleaved pairs and write BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

Each DIR is a checkout of one commit (``git archive`` or ``git clone``) with
its own ``perfbench/``, or a working tree such as ``.``. No run is made in
DIR itself: each one gets a fresh temporary copy of DIR's files that git
does not ignore, tracked or not, so what builds and tests leave in a working
tree (``__pycache__``, ``.perfbench_work``) never reaches a run. A DIR with
no ``.git`` is judged by its ``.gitignore`` files alone. Pair i of ten runs
every workload of the change's
``BENCHMARK.json`` once on each side with seed 101 + i and the benchmark's
``run_seconds``; the side that goes first alternates from pair to pair, and
no two runs overlap. A traced run of each workload at seed 7 on each side
then gives the per-layer values, under ``traced`` by workload and side.
Every run's JSON result is appended to
``BENCH_N.runs.jsonl`` as it finishes, and a run already there is not
repeated, so an interrupted series resumes where it stopped.

For each workload and end-to-end metric the output holds both sides'
median and quartiles (inclusive method), each run's value, and how many
pairs each side won by the metric's ``better`` direction; a tie counts for
neither. It also holds the no-regression verdict:

- ``better_by``: how much better the change's median is than the parent's,
  as a share of the parent's, in the ``better`` direction (negative: worse);
- ``within_bound``: whether ``better_by`` is at least ``-bound``;
- ``unresolved``: whether the parent's interquartile range over its median
  exceeds the bound while not every change run is better than every parent
  run; the runs then spread too widely to call the metric unchanged;
- ``gain_met``: whether a claimed gain holds: the change wins at least nine
  tenths of the pairs, and its median is better than the parent's by more
  than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
SEEDS = list(range(101, 111))
TRACED_SEED = 7


def copy_checkout(checkout: Path, dest: Path) -> Path:
    """Copy to ``dest`` the files of ``checkout`` that git does not ignore."""
    git = ["git", "-C", str(checkout)]
    with tempfile.TemporaryDirectory() as empty:
        if not (checkout / ".git").exists():  # judge the files by .gitignore alone
            subprocess.run(["git", "init", "-q", empty], check=True)
            git += [f"--git-dir={empty}/.git", "--work-tree=."]
        listed = subprocess.run(git + ["ls-files", "-z", "-co", "--exclude-standard"],
                                check=True, capture_output=True).stdout
    for name in os.fsdecode(listed).split("\0")[:-1]:
        if os.path.lexists(checkout / name):  # not a tracked file deleted since
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(checkout / name, dest / name, follow_symlinks=False)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One ``perfbench/run.py`` run in a fresh copy of ``checkout``; its last
    output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copy = copy_checkout(checkout, Path(tmp) / "checkout")
        out = subprocess.run(cmd, cwd=copy, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def share(part: float, whole: float) -> float:
    """``part`` as a share of ``|whole|``; infinite for a nonzero part of 0."""
    if whole:
        return part / abs(whole)
    return math.copysign(math.inf, part) if part else 0.0


def verdict(p: dict, c: dict, sign: int, bound: float, change_won: int) -> dict:
    """The no-regression and gain verdicts from the parent's and the change's
    :func:`quartiles`; ``sign`` is 1 when higher is better, else -1, and the
    change won ``change_won`` of the pairs."""
    better_by = share(sign * (c["median"] - p["median"]), p["median"])
    every_run_better = min(sign * v for v in c["runs"]) > max(sign * v for v in p["runs"])
    iqr = p["q3"] - p["q1"]
    return {"better_by": better_by, "within_bound": better_by >= -bound,
            "unresolved": share(iqr, p["median"]) > bound and not every_run_better,
            "gain_met": (10 * change_won >= 9 * len(p["runs"])
                         and sign * (c["median"] - p["median"]) > iqr)}


def summarize(bench: dict, runs: list[dict]) -> dict:
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        by = {(r["side"], r["seed"]): r["result"] for r in runs
              if r["workload"] == name and not r["traced"]}
        row = {
            "correct": {s: all(by[s, seed]["correct"] for seed in SEEDS) for s in SIDES},
            "failed_share_max": {
                s: max(by[s, seed]["failed"] / max(by[s, seed]["attempted"], 1) for seed in SEEDS)
                for s in SIDES
            },
            "metrics": {},
        }
        for m in bench["end_to_end"]:
            values = {s: [by[s, seed]["metrics"][m["name"]]["value"] for seed in SEEDS]
                      for s in SIDES}
            sign = 1 if m["better"] == "higher" else -1
            diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            q = {s: quartiles(values[s]) for s in SIDES}
            won = {"change": sum(d > 0 for d in diffs), "parent": sum(d < 0 for d in diffs)}
            row["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"], **q,
                "pairs_won": won,
                **verdict(q["parent"], q["change"], sign, m["bound"], won["change"]),
            }
        workloads[name] = row
    return workloads


def traced_values(runs: list[dict]) -> dict:
    """``{workload: {side: {metric: value}}}`` from the traced runs at
    ``TRACED_SEED``."""
    traced: dict = {}
    for r in runs:
        if r["traced"] and r["seed"] == TRACED_SEED:
            traced.setdefault(r["workload"], {})[r["side"]] = {
                k: v["value"] for k, v in r["result"]["metrics"].items()}
    return traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    raw = args.out.with_suffix(".runs.jsonl")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = [json.loads(line) for line in raw.read_text().splitlines()] if raw.exists() else []
    done = {(r["side"], r["workload"], r["seed"], r["traced"]) for r in runs}
    plan = []
    for i, seed in enumerate(SEEDS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        plan += [(side, w["name"], seed, False) for w in bench["workloads"] for side in order]
    plan += [(side, w["name"], TRACED_SEED, True) for w in bench["workloads"] for side in SIDES]
    for side, workload, seed, traced in plan:
        if (side, workload, seed, traced) in done:
            continue
        checkout = args.parent if side == "parent" else args.change
        result = run_once(checkout, workload, seed, seconds, traced)
        run = {"side": side, "workload": workload, "seed": seed, "traced": traced,
               "result": result}
        runs.append(run)
        with open(raw, "a", encoding="utf-8") as f:
            f.write(json.dumps(run) + "\n")
        print(f"{side} {workload} seed={seed} traced={int(traced)} correct={result['correct']}",
              flush=True)
    out = {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": summarize(bench, runs),
        "traced_seed": TRACED_SEED,
        "traced": traced_values(runs),
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
