"""Acceptance gate: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they happen. The full-scale (1.8 million file) variant of criterion 1 is
expensive and runs only when TIERMETA_FULL=1 is set.
"""

import json
import os
import random
import threading
import time
from fractions import Fraction

import pytest
from conftest import GOLDEN_SESSION, Client, fuzz_client, parse_ok

from tiermeta.cli import main as cli_main
from tiermeta.coldstore import ColdStore
from tiermeta.editlog import EditsLog, OpEvent, replay_edits
from tiermeta.errors import NotFoundError, PathExistsError
from tiermeta.fsimage import load_fsimage, save_fsimage
from tiermeta.namespace import HotStore, LogicalClock, MetadataRecord, estimate_memory
from tiermeta.server import IMAGE_NAME, MetadataServer, open_store
from tiermeta.tiering import TieredStore, TieringConfig, partition_records

EVICTION_BAND = (0.15, 0.35)


def run_preset(preset, workdir, csv_path, jsonl_path):
    started = time.perf_counter()
    code = cli_main([
        "run-experiment", "--preset", preset, "--workdir", str(workdir),
        "--csv", str(csv_path), "--jsonl", str(jsonl_path),
    ])
    elapsed = time.perf_counter() - started
    assert code == 0
    with open(jsonl_path) as f:
        lines = [json.loads(line) for line in f]
    events = [line for line in lines if line["kind"] == "event"]
    summary = next(line for line in lines if line["kind"] == "summary")
    return events, summary, elapsed


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    """The paper-desk experiment, twice over the same workdir.

    The first run backs criteria 1 and 2; comparing the two runs byte for
    byte backs criterion 7.
    """
    base = tmp_path_factory.mktemp("desk")
    workdir = base / "w"
    runs = []
    for name in ("one", "two"):
        csv_path, jsonl_path = base / f"{name}.csv", base / f"{name}.jsonl"
        events, summary, elapsed = run_preset("paper-desk", workdir, csv_path, jsonl_path)
        runs.append({
            "events": events, "summary": summary, "elapsed": elapsed,
            "csv": csv_path.read_bytes(), "jsonl": jsonl_path.read_bytes(),
            "trace": (workdir / "trace.txt").read_bytes(),
        })
    return runs


def test_criterion_1_desk_scale_experiment(desk_runs):
    run = desk_runs[0]
    events, elapsed = run["events"], run["elapsed"]
    assert len(events) >= 3, f"expected >= 3 separation events, got {len(events)}"
    for event in events:
        fraction = event["evicted_count"] / event["hot_size_before"]
        assert EVICTION_BAND[0] <= fraction <= EVICTION_BAND[1], (
            f"event at tick {event['tick']} evicted {fraction:.1%}"
        )
    assert elapsed < 60.0, f"desk experiment took {elapsed:.1f}s"
    fractions = ", ".join(
        f"{e['evicted_count'] / e['hot_size_before']:.1%}" for e in events
    )
    print(f"PASS  1. desk-scale: {len(events)} separations ({fractions}) in {elapsed:.1f}s")


@pytest.mark.full
@pytest.mark.skipif(
    os.environ.get("TIERMETA_FULL") != "1",
    reason="set TIERMETA_FULL=1 to run the 1.8M-file experiment",
)
def test_criterion_1_full_scale_experiment(tmp_path):
    events, summary, elapsed = run_preset(
        "paper-full", tmp_path / "w", tmp_path / "r.csv", tmp_path / "r.jsonl"
    )
    assert len(events) >= 3
    for event in events:
        fraction = event["evicted_count"] / event["hot_size_before"]
        assert EVICTION_BAND[0] <= fraction <= EVICTION_BAND[1]
    assert elapsed < 600.0, f"full experiment took {elapsed:.1f}s"
    assert summary["peak_hot_records"] <= 1_800_000
    print(f"PASS  1+. full-scale: {len(events)} separations in {elapsed:.1f}s")


def test_criterion_2_memory_accounting(desk_runs):
    gb, mb = 10**9, 10**6
    est_capacity = estimate_memory(1_800_000, 600)
    est_threshold = estimate_memory(1_260_000, 600)
    assert abs(est_capacity - gb) <= 0.10 * gb
    assert abs(est_threshold - 700 * mb) <= 0.10 * 700 * mb
    for event in desk_runs[0]["events"]:
        assert event["freed_bytes_estimate"] == event["evicted_count"] * 600
    print(
        f"PASS  2. memory: 1.8M records -> {est_capacity / gb:.2f} GB, "
        f"1.26M -> {est_threshold / mb:.0f} MB, freed bytes exact on every event"
    )


def test_criterion_3_separation_oracle():
    rng = random.Random(2024)
    instances, total = 500, 0
    for i in range(instances):
        if i == 0:
            n = 10_000
        elif i == 1:
            n = 1
        else:
            n = int(10 ** rng.uniform(0, 4))
        now = rng.randrange(1, 1 << 30)
        window = rng.randrange(0, now + 1)
        records = [
            MetadataRecord(
                path=f"/o/{j}", length=0, block_size=1, replication=1, blocks=(),
                last_access=rng.randrange(now),
                count=rng.choice((1, 1, 2, rng.randrange(1, 100))),
            )
            for j in range(n)
        ]
        kept, evicted = partition_records(records, now, window)
        mean = Fraction(sum(r.count for r in records), n)
        expect_evicted = {
            r.path
            for r in records
            if (now - r.last_access) > window and not Fraction(r.count) > mean
        }
        assert {r.path for r in evicted} == expect_evicted, f"instance {i}"
        assert len(kept) + len(evicted) == n
        total += n
    print(f"PASS  3. oracle: {instances} instances, {total} records, 0 mismatches")


def test_criterion_4_tier_invariants_under_fuzz(tmp_path):
    seeds = range(10)
    universe = [f"/u/{i:02d}" for i in range(80)]
    ops = 0
    for seed in seeds:
        rng = random.Random(seed)
        store = TieredStore(
            ColdStore(tmp_path / f"cold{seed}"),
            TieringConfig(threshold_records=25, recency_window=18),
        )
        reference: dict[str, int] = {}  # flat single-tier model: path -> count
        for _ in range(1000):
            ops += 1
            path = rng.choice(universe)
            roll = rng.random()
            if roll < 0.45:
                try:
                    store.create(path, rng.randrange(1000))
                    created = True
                except PathExistsError:
                    created = False
                assert created == (path not in reference)
                if created:
                    reference[path] = 1
                store.maybe_separate()
            elif roll < 0.85:
                try:
                    store.open(path)
                    found = True
                except NotFoundError:
                    found = False
                assert found == (path in reference)
                if found:
                    reference[path] += 1
                    assert path in store.hot  # promotion round-trip
            else:
                try:
                    store.delete(path)
                    deleted = True
                except NotFoundError:
                    deleted = False
                assert deleted == (path in reference)
                if deleted:
                    del reference[path]
                store.maybe_separate()
            hot = set(store.hot.paths())
            cold = set(store.cold.paths())
            assert not hot & cold, "tiers must stay disjoint"
            assert hot | cold == set(reference), "records conserved"
        assert store.metrics.events, "fuzz must force separations"
        # identical lookup results over the whole universe, NotFound included
        for path in universe:
            try:
                record, _ = store.stat(path)
                assert reference.get(path) == record.count
            except NotFoundError:
                assert path not in reference
        store.close()
    print(f"PASS  4. fuzz: {len(seeds)} traces x 1000 ops, invariants held, "
          "flat-store equivalence exact")


def test_criterion_5_persistence_round_trips(tmp_path):
    # image: save -> load -> save is byte-identical
    rng = random.Random(99)
    clock = LogicalClock()
    store = HotStore()
    for i in range(500):
        store.create(f"/i/{rng.randrange(10**6):06d}x{i}", rng.randrange(10**10), clock.tick())
    for record in rng.sample(sorted(store.paths()), 200):
        store.access(record, clock.tick())
    first, second = tmp_path / "img1", tmp_path / "img2"
    save_fsimage(store, first)
    save_fsimage(load_fsimage(first), second)
    assert first.read_bytes() == second.read_bytes()

    # checkpoint + edits replay equals live state, 100 randomized traces
    for seed in range(100):
        rng = random.Random(seed)
        clock = LogicalClock()
        live = HotStore()
        log = EditsLog(tmp_path / f"edits{seed}")
        image = tmp_path / f"img{seed}"
        save_fsimage(live, image)
        for _ in range(rng.randrange(50, 300)):
            roll = rng.random()
            paths = [r.path for r in live]
            if roll < 0.5 or not paths:
                path = f"/t/{rng.randrange(150):03d}"
                if path not in live:
                    tick = clock.tick()
                    length = rng.randrange(10**9)
                    live.create(path, length, tick)
                    log.append(OpEvent("CREATE", path, tick, length))
            elif roll < 0.8:
                path = rng.choice(paths)
                tick = clock.tick()
                live.access(path, tick)
                log.append(OpEvent("ACCESS", path, tick))
            elif roll < 0.95:
                path = rng.choice(paths)
                tick = clock.tick()
                live.remove(path)
                log.append(OpEvent("DELETE", path, tick))
            else:
                save_fsimage(live, image)
                log.reset()
        recovered = replay_edits(load_fsimage(image), log.entries())
        assert {r.path: r for r in recovered} == {r.path: r for r in live}
        log.close()

    # cold store: scan-built index agrees across reopen
    rng = random.Random(7)
    cold = ColdStore(tmp_path / "fsimage2")
    clock = LogicalClock()
    maker = HotStore()
    live_cold = {}
    for i in range(300):
        record = maker.create(f"/c/{i:04d}", i, clock.tick())
        cold.append_records([record])
        live_cold[record.path] = record
        if rng.random() < 0.33:
            victim = rng.choice(sorted(live_cold))
            cold.delete(victim)
            del live_cold[victim]
    cold.close()
    reopened = ColdStore(tmp_path / "fsimage2")
    assert sorted(reopened.paths()) == sorted(live_cold)
    assert all(reopened.get(p) == r for p, r in live_cold.items())

    # compaction preserves exactly the resolvable set
    resolvable_before = {p: reopened.get(p) for p in reopened.paths()}
    reopened.compact()
    assert {p: reopened.get(p) for p in reopened.paths()} == resolvable_before
    assert reopened.get("/c/0000") == live_cold.get("/c/0000")
    reopened.close()
    print("PASS  5. persistence: image byte-stable, 100 replay identities, "
          "cold index and compaction exact")


def test_criterion_6_protocol_conformance(tmp_path):
    # scripted golden session: every verb, every ERR code
    store = open_store(tmp_path / "golden", TieringConfig(threshold_records=1000))
    server = MetadataServer(store, tmp_path / "golden" / IMAGE_NAME)
    server.start()
    client = Client(server.bound_port)
    for request, expected in GOLDEN_SESSION:
        assert client.ask(request) == expected, f"request {request!r}"
    server.wait(5)
    client.close()
    store.close()

    # promotion-visible OPEN on a fresh store
    store = open_store(tmp_path / "promo", TieringConfig(threshold_records=4, recency_window=3))
    server = MetadataServer(store, tmp_path / "promo" / IMAGE_NAME)
    server.start()
    client = Client(server.bound_port)
    for i in range(4):
        client.ask(f"CREATE /p{i} 10")
    assert client.ask("STAT /p0").endswith("tier=cold")
    assert parse_ok(client.ask("OPEN /p0"))["count"] == "2"
    assert client.ask("STAT /p0").endswith("tier=hot")
    assert client.ask("QUIT") == "OK bye"
    server.wait(5)
    client.close()
    store.close()

    # concurrent fuzz: 4 clients x 500 requests on disjoint path spaces
    store = open_store(tmp_path / "fuzz", TieringConfig(threshold_records=50, recency_window=37))
    server = MetadataServer(store, tmp_path / "fuzz" / IMAGE_NAME)
    server.start()
    errors: list[str] = []
    models = [dict() for _ in range(4)]
    threads = [
        threading.Thread(
            target=fuzz_client,
            args=(server.bound_port, f"/c{i}", 4000 + i, errors, models[i]),
        )
        for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert errors == [], errors[:5]
    control = Client(server.bound_port)
    merged = {}
    for model in models:
        merged.update(model)
    for path, (length, count) in merged.items():
        fields = parse_ok(control.ask(f"STAT {path}"))
        assert (int(fields["length"]), int(fields["count"])) == (length, count), path
    report = dict(pair.split("=", 1) for pair in control.ask("REPORT")[3:].split(" "))
    assert int(report["hot_records"]) + int(report["cold_records"]) == len(merged)
    assert int(report["separations"]) >= 1
    assert control.ask("QUIT") == "OK bye"
    server.wait(5)
    control.close()
    store.close()
    print("PASS  6. protocol: golden transcript exact, 2000 concurrent requests, "
          "0 model violations")


def test_criterion_7_determinism(desk_runs):
    one, two = desk_runs
    assert one["trace"] == two["trace"], "trace files differ between runs"
    assert one["csv"] == two["csv"], "CSV reports differ between runs"
    assert one["jsonl"] == two["jsonl"], "JSONL reports differ between runs"
    assert one["summary"]["creates"] == 180_000
    print("PASS  7. determinism: trace, CSV, and JSONL byte-identical across runs "
          f"({len(one['trace'])} trace bytes)")
