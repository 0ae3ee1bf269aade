"""Models the benchmark checks the program against, written apart from it.

Nothing here imports ``tiermeta``: each model restates the documented
behaviour (README "The separation rule", the server protocol, the record
line format) over flat dicts, so a fault in the program cannot hide in a
shared helper. Every checker returns a list of problems; empty means the
program's outputs agreed with the model.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Callable, Iterable

# The program's default block size, restated rather than imported.
BLOCK_SIZE = 64 * 1024 * 1024


def blocks_for(length: int) -> int:
    return -(-length // BLOCK_SIZE)


# -- replay-desk -------------------------------------------------------------

def separation_model(lines: Iterable[str], threshold: int, window: int) -> dict:
    """Replay trace lines through the separation rule on two flat dicts.

    After every CREATE that brings the hot tier to ``threshold`` records, a
    record moves to cold iff ``now - last_access > window`` and
    ``count * n <= total`` (``now`` is one past the last tick, ``n`` and
    ``total`` are taken over the whole hot tier). An ACCESS of a cold path
    moves it back to hot and counts as an access.
    """
    hot: dict[str, list[int]] = {}
    cold: dict[str, list[int]] = {}
    separations: list[tuple[int, int]] = []
    hot_hits = cold_hits = misses = creates = peak = 0
    for line in lines:
        op, path, *rest = line.split()
        tick = int(rest[-1])
        if op == "CREATE":
            hot[path] = [tick, 1]
            creates += 1
            peak = max(peak, len(hot))
            if len(hot) >= threshold:
                now, n = tick + 1, len(hot)
                total = sum(rec[1] for rec in hot.values())
                out = [p for p, (la, count) in hot.items()
                       if now - la > window and count * n <= total]
                for p in out:
                    cold[p] = hot.pop(p)
                separations.append((n, len(out)))
        elif op == "ACCESS":
            rec = hot.get(path)
            if rec is None and path in cold:
                rec = hot[path] = cold.pop(path)
                cold_hits += 1
                peak = max(peak, len(hot))
            elif rec is not None:
                hot_hits += 1
            else:
                misses += 1
                continue
            rec[0] = tick
            rec[1] += 1
        else:
            raise ValueError(f"unexpected trace line {line!r}")
    return {
        "separations": separations, "hot_hits": hot_hits, "cold_hits": cold_hits,
        "misses": misses, "creates": creates, "peak_hot": peak,
        "hot": hot, "cold": cold,
    }


def read_cold_file(path) -> dict[str, tuple[int, int]]:
    """Live records of a cold file as path -> (last_access, count).

    Record lines are tab-separated with last_access and count in fields 5
    and 6; ``TOMB <path>`` lines delete; the last entry for a path wins.
    """
    live: dict[str, tuple[int, int]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("TOMB "):
                live.pop(line[5:].rstrip("\n"), None)
            else:
                fields = line.rstrip("\n").split("\t")
                live[fields[0]] = (int(fields[4]), int(fields[5]))
    return live


def check_report(summary: dict, events: list[dict], model: dict) -> list[str]:
    """Compare one replay's report (summary and separation events) with the model."""
    problems = []
    got = [(e["hot_size_before"], e["evicted_count"]) for e in events]
    if got != model["separations"]:
        problems.append(f"separations (hot before, evicted) {got} != model {model['separations']}")
    expected = {
        "creates": model["creates"], "hot_hits": model["hot_hits"],
        "cold_hits": model["cold_hits"], "misses": model["misses"],
        "peak_hot_records": model["peak_hot"],
        "final_hot_records": len(model["hot"]), "final_cold_records": len(model["cold"]),
    }
    for key, value in expected.items():
        if summary.get(key) != value:
            problems.append(f"report {key}={summary.get(key)} != model {value}")
    return problems


def check_cold_file(cold_live: dict, summary: dict, model: dict) -> list[str]:
    """The cold file left by a replay: its live records against report and model."""
    problems = []
    if len(cold_live) != summary.get("final_cold_records"):
        problems.append(f"cold file holds {len(cold_live)} live records, report says "
                        f"final_cold_records={summary.get('final_cold_records')}")
    both = cold_live.keys() & model["hot"].keys()
    if both:
        problems.append(f"{len(both)} paths live in the cold file but hot in the model")
    if cold_live.keys() != model["cold"].keys():
        problems.append("cold file paths differ from the model's cold tier")
    else:
        wrong = sum(1 for p, rec in cold_live.items() if list(rec) != model["cold"][p])
        if wrong:
            problems.append(f"{wrong} cold records differ from the model in last_access/count")
    return problems


# -- serve-mix ---------------------------------------------------------------

def initial_lengths(seed: int, n: int) -> list[int]:
    """Lengths of the served directory's first ``n`` files, /s/f<i>."""
    rng = random.Random(f"serve-initial-{seed}")
    return [file_length(rng) for _ in range(n)]


def file_length(rng: random.Random) -> int:
    """The paper-desk trace's length rule: exponential, mean 64 KiB, at least 1."""
    return max(1, int(rng.expovariate(1 / 65536)))


def initial_path(i: int) -> str:
    return f"/s/f{i:07d}"


# The OPEN stream is the access phase of the paper-desk trace
# (``workload.generate_trace`` with the preset's 180,000 files and 360,000
# accesses): 30% of the files are never opened, and the rest are ranked in a
# shuffled order. The trace gives each of those 126,000 files one access
# (35% of the 360,000) and draws the other accesses with weight 1/rank.
UNTOUCHED_SHARE = 0.3
UNIFORM_OPEN_SHARE = (1 - UNTOUCHED_SHARE) * 180_000 / 360_000

# The trace has no DELETE, STAT or failing request, so the other verbs are
# few (cumulative thresholds; the rest are OPENs). CREATEs outnumber DELETEs
# by one request in a hundred: that net growth crosses the threshold once, a
# little past half of a run. DELETE, STAT and the failing requests get just
# enough for a stable median of their own, at least 900 in a run.
SHARES = (("CREATE", 0.015), ("DELETE", 0.02), ("STAT", 0.03), ("ERR", 0.035))


class ServeScript:
    """Seeded request stream for one closed-loop client.

    It tracks which paths it has created and deleted, assuming every request
    does what the protocol says, and draws: OPEN of a touched initial path,
    uniformly (``UNIFORM_OPEN_SHARE``) or by rank weight 1/r; CREATE of a new
    path; DELETE of a path that is never opened (an untouched initial path or
    a created one); STAT of any live path; and a request that must fail (OPEN
    or STAT of a deleted path, or CREATE of a touched one).
    """

    def __init__(self, seed: int, n_initial: int):
        self.rng = random.Random(f"serve-requests-{seed}")
        paths = [initial_path(i) for i in range(n_initial)]
        self.rng.shuffle(paths)
        untouched = round(n_initial * UNTOUCHED_SHARE)
        self.touched = paths[untouched:]
        self.cum = list(itertools.accumulate(1 / (r + 1) for r in range(len(self.touched))))
        # live paths no OPEN goes to, the only ones DELETE picks from
        self.unopened = paths[:untouched]
        self.deleted: deque[str] = deque(maxlen=1000)
        self.next_new = 0

    def next_requests(self, n: int) -> list[str]:
        rng, out = self.rng, []
        for _ in range(n):
            r = rng.random()
            verb = next((v for v, edge in SHARES if r < edge), "OPEN")
            if verb == "OPEN":
                if rng.random() < UNIFORM_OPEN_SHARE:
                    path = self.touched[rng.randrange(len(self.touched))]
                else:
                    path = rng.choices(self.touched, cum_weights=self.cum)[0]
                out.append(f"OPEN {path}")
            elif verb == "CREATE":
                path = f"/s/n{self.next_new:07d}"
                self.next_new += 1
                self.unopened.append(path)
                out.append(f"CREATE {path} {file_length(rng)}")
            elif verb == "DELETE":
                unopened = self.unopened
                i = rng.randrange(len(unopened))
                unopened[i], unopened[-1] = unopened[-1], unopened[i]
                path = unopened.pop()
                self.deleted.append(path)
                out.append(f"DELETE {path}")
            elif verb == "STAT":
                i = rng.randrange(len(self.touched) + len(self.unopened))
                if i < len(self.touched):
                    out.append(f"STAT {self.touched[i]}")
                else:
                    out.append(f"STAT {self.unopened[i - len(self.touched)]}")
            elif self.deleted:
                out.append(f"{rng.choice(('OPEN', 'STAT'))} {rng.choice(self.deleted)}")
            else:
                out.append(f"CREATE {rng.choice(self.touched)} 1")
        return out


class ServedModel:
    """The client's model of the served namespace, checked reply by reply.

    Records are path -> [length, count, last_access]; every successful
    CREATE, OPEN and DELETE takes one tick of the store's logical clock,
    STAT and failed requests take none. A reply that is an ERR where the
    model expects OK counts as a failed operation (and is not applied);
    any other disagreement is a problem.
    """

    def __init__(self, initial: list[int]):
        # the directory was built by creating /s/f<i> at tick i
        self.live = {initial_path(i): [length, 1, i] for i, length in enumerate(initial)}
        self.tick = len(initial)
        self.creates = self.deletes = self.lookups = self.misses = 0
        self.stat_tiers = {"hot": 0, "cold": 0}
        self.failed = 0
        self.problems: list[str] = []

    def _problem(self, request: str, reply: str, want: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{request!r} -> {reply!r}, expected {want!r}")
        elif len(self.problems) == 20:
            self.problems.append("... (further disagreements not listed)")

    def _expect(self, request: str, reply: str, want: str) -> bool:
        if reply == want:
            return True
        if reply.startswith("ERR") and not want.startswith("ERR"):
            self.failed += 1
        else:
            self._problem(request, reply, want)
        return False

    def check(self, request: str, reply: str) -> None:
        verb, path, *rest = request.split(" ")
        rec = self.live.get(path)
        if verb == "CREATE":
            if rec is not None:
                if not reply.startswith("ERR EXISTS"):
                    self._problem(request, reply, "ERR EXISTS")
                return
            if self._expect(request, reply, f"OK created {path}"):
                self.live[path] = [int(rest[0]), 1, self.tick]
                self.tick += 1
                self.creates += 1
        elif verb == "DELETE":
            if rec is None:
                if not reply.startswith("ERR NOTFOUND"):
                    self._problem(request, reply, "ERR NOTFOUND")
                return
            if self._expect(request, reply, f"OK deleted {path}"):
                del self.live[path]
                self.tick += 1
                self.deletes += 1
        elif verb in ("OPEN", "STAT"):
            if verb == "OPEN":
                self.lookups += 1
            if rec is None:
                if verb == "OPEN":
                    self.misses += 1
                if not reply.startswith("ERR NOTFOUND"):
                    self._problem(request, reply, "ERR NOTFOUND")
                return
            length, count, last = rec
            if verb == "OPEN":
                count, last = count + 1, self.tick
            want = (f"OK path={path} length={length} blocks={blocks_for(length)} "
                    f"last_access={last} count={count}")
            if verb == "STAT":
                tier = reply.rpartition(" tier=")[2]
                if tier in self.stat_tiers:
                    self.stat_tiers[tier] += 1
                    want += f" tier={tier}"
                else:
                    want += " tier=hot|cold"
            if self._expect(request, reply, want) and verb == "OPEN":
                rec[1], rec[2] = count, last
                self.tick += 1
        else:
            raise ValueError(f"unexpected request {request!r}")

    def check_report(self, reply: str) -> dict[str, int]:
        """Check the final REPORT against the model; returns its counters."""
        if not reply.startswith("OK "):
            self.problems.append(f"REPORT answered {reply!r}")
            return {}
        fields = dict(kv.split("=", 1) for kv in reply.split(" ")[1:])
        counters = {k: int(v) for k, v in fields.items()}
        expected = {
            "live": len(self.live), "creates": self.creates, "deletes": self.deletes,
            "lookups": self.lookups, "misses": self.misses,
        }
        got = dict(counters, live=counters.get("hot_records", 0) + counters.get("cold_records", 0))
        for key, value in expected.items():
            if got.get(key) != value:
                self.problems.append(f"REPORT {key}={got.get(key)} != model {value}")
        return counters


# -- restart -------------------------------------------------------------------

def write_model(path, model: dict[str, list[int]]) -> None:
    """path <TAB> length <TAB> count <TAB> last_access, one acknowledged path a line."""
    with open(path, "w", encoding="utf-8") as f:
        for p, (length, count, last) in model.items():
            f.write(f"{p}\t{length}\t{count}\t{last}\n")


def read_model(path) -> dict[str, tuple[int, int, int]]:
    model = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            p, length, count, last = line.rstrip("\n").split("\t")
            model[p] = (int(length), int(count), int(last))
    return model


def check_recovered(
    model: dict[str, tuple[int, int, int]],
    hot_get: Callable[[str], object],
    cold_get: Callable[[str], object],
    stored_paths: Iterable[str],
) -> dict[str, int]:
    """Check every acknowledged path after recovery.

    ``hot_get``/``cold_get`` return a record with ``length``, ``count``,
    ``last_access`` and ``blocks``, or None. A path fails when it is
    missing, differs from the model, or sits in both tiers. ``extra``
    counts stored paths the model does not have (resurrected or invented).
    """
    missing = differs = both = 0
    for path, (length, count, last) in model.items():
        hot, cold = hot_get(path), cold_get(path)
        rec = hot or cold
        if rec is None:
            missing += 1
        elif hot is not None and cold is not None:
            both += 1
        elif (rec.length, rec.count, rec.last_access, len(rec.blocks)) != (
                length, count, last, blocks_for(length)):
            differs += 1
    extra = sum(1 for p in stored_paths if p not in model)
    return {"checked": len(model), "failed": missing + differs + both,
            "missing": missing, "differs": differs, "both": both, "extra": extra}
