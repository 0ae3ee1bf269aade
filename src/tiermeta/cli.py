"""Command-line interface.

Subcommands cover the whole experiment loop: generate a workload trace,
replay it against a tiered store, or do both in one go; plus serving a store
over TCP and inspecting or compacting its on-disk files.

Knobs resolve in precedence order: explicit flags, then --config file
entries (key=value lines, # comments), then --preset values, then built-in
defaults. The built-in defaults equal the paper-desk preset, so a bare
``run-experiment`` finishes in well under a minute. The presets:

    paper-desk   180,000 files / 360,000 accesses, threshold 120,000
    paper-full   1,800,000 files / 3,600,000 accesses, threshold 1,200,000

Both keep the recency window at 75% of the threshold, so a create-heavy
phase evicts 25% of the hot tier per separation. An alternate full-scale
threshold of 1,260,000 records (1.26M, the other commonly quoted figure)
can be set with --threshold.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import tempfile
from pathlib import Path

from .coldstore import ColdStore
from .errors import NotFoundError, TierMetaError
from .fsimage import load_fsimage
from .metrics import ExperimentReport, write_csv, write_jsonl
from .recordio import encode_record
from .server import serve
from .tiering import TieringConfig
from .workload import WorkloadSpec, generate_trace, replay

PRESETS: dict[str, dict[str, object]] = {
    "paper-desk": {
        "files": 180_000, "ops": 360_000, "untouched": 0.3, "skew": 1.0,
        "mean_length": 65_536, "seed": 7, "threshold": 120_000, "window": 90_000,
    },
    "paper-full": {
        "files": 1_800_000, "ops": 3_600_000, "untouched": 0.3, "skew": 1.0,
        "mean_length": 65_536, "seed": 7, "threshold": 1_200_000, "window": 900_000,
    },
}

# built-in defaults (the desk-scale preset); --window falls back to 75% of
# the threshold instead of a fixed number
_DEFAULTS: dict[str, object] = {
    "files": 180_000, "ops": 360_000, "untouched": 0.3, "skew": 1.0,
    "mean_length": 65_536, "seed": 7, "threshold": 120_000,
    "bytes_per_record": 600,
}

_KNOB_TYPES = {
    "files": int, "ops": int, "untouched": float, "skew": float, "mean_length": int,
    "seed": int, "threshold": int, "window": int, "bytes_per_record": int,
}

_KNOB_HELP = {
    "files": "files created by the trace",
    "ops": "access operations after the creates",
    "untouched": "fraction of files never accessed",
    "skew": "rank-skew exponent of access popularity",
    "mean_length": "mean file length in bytes",
    "seed": "workload RNG seed",
    "threshold": "hot-tier record count that triggers separation",
    "window": "recency window in ticks",
    "bytes_per_record": "estimated bytes per hot-tier record",
}

_SPEC_KEYS = {
    "files": "n_files", "ops": "access_ops", "untouched": "untouched_fraction",
    "skew": "access_skew", "mean_length": "mean_file_length", "seed": "seed",
}

_CONFIG_KEYS = {
    "threshold": "threshold_records", "window": "recency_window",
    "bytes_per_record": "bytes_per_record",
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except BrokenPipeError:
        # the read end of a pipe went away (head, less): die quietly, and
        # point stdout at devnull so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TierMetaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiermeta",
        description="Tiered filesystem-metadata store experiments and service.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="write a synthetic workload trace")
    _add_knobs(p, ("files", "ops", "untouched", "skew", "mean_length", "seed"))
    p.add_argument("--out", required=True, help="trace file to write")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("replay", help="replay a trace against a fresh store")
    _add_knobs(p, ("threshold", "window", "bytes_per_record"))
    p.add_argument("--trace", required=True, help="trace file to replay")
    p.add_argument("--cold", help="cold-store file (default: <trace>.cold, truncated)")
    p.add_argument("--report", help="write the report to this file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv",
                   help="report file format (default csv)")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("run-experiment", help="generate a trace and replay it")
    _add_knobs(p, tuple(_KNOB_TYPES))
    p.add_argument("--workdir", help="where trace and cold file go (default: temp dir)")
    p.add_argument("--csv", help="write the report as CSV")
    p.add_argument("--jsonl", help="write the report as JSON lines")
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("inspect", help="print a tier's records, or one record")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--image", help="checkpoint image to read")
    which.add_argument("--cold", help="cold-store file to read")
    p.add_argument("--path", help="print only this path's record")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("compact", help="drop dead entries from a cold-store file")
    p.add_argument("--cold", required=True, help="cold-store file to compact in place")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("serve", help="serve a data directory over TCP until QUIT")
    _add_knobs(p, ("threshold", "window", "bytes_per_record"))
    p.add_argument("data_dir", help="directory holding fsimage, fsimage2, edits.log")
    p.add_argument("--bind", default="127.0.0.1:0",
                   help="host:port to listen on (default 127.0.0.1:0; port 0 picks a free one)")
    p.set_defaults(func=cmd_serve)

    return parser


def _add_knobs(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named parameter set (unset: built-in desk-scale defaults)")
    p.add_argument("--config", help="key=value file, overrides preset")
    for key in keys:
        flag = "--" + key.replace("_", "-")
        default = "75%% of the threshold" if key == "window" else _DEFAULTS[key]
        p.add_argument(flag, dest=key, type=_KNOB_TYPES[key], default=None,
                       help=f"{_KNOB_HELP[key]} (default {default})")


def _resolve_knobs(args: argparse.Namespace) -> dict[str, object]:
    knobs = dict(_DEFAULTS)
    if getattr(args, "preset", None):
        knobs.update(PRESETS[args.preset])
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _KNOB_TYPES:
                raise ValueError(f"{args.config}: unknown setting {key!r}")
            knobs[key] = _KNOB_TYPES[key](raw)
    for key in _KNOB_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            knobs[key] = value
    return knobs


def _read_config_file(path: str) -> dict[str, str]:
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            settings[key.strip().replace("-", "_")] = value.strip()
    return settings


def _workload_spec(knobs: dict[str, object]) -> WorkloadSpec:
    kwargs = {_SPEC_KEYS[k]: v for k, v in knobs.items() if k in _SPEC_KEYS}
    return WorkloadSpec(**kwargs)  # type: ignore[arg-type]


def _tiering_config(knobs: dict[str, object]) -> TieringConfig:
    kwargs = {_CONFIG_KEYS[k]: v for k, v in knobs.items() if k in _CONFIG_KEYS}
    return TieringConfig(**kwargs)  # type: ignore[arg-type]


def _parse_bind(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def cmd_gen_trace(args: argparse.Namespace) -> int:
    spec = _workload_spec(_resolve_knobs(args))
    summary = generate_trace(spec, args.out)
    print(
        f"wrote {args.out}: {summary.n_files} creates, {summary.access_ops} accesses, "
        f"{summary.untouched_count} files never accessed again"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    config = _tiering_config(_resolve_knobs(args))
    cold_path = Path(args.cold) if args.cold else Path(args.trace + ".cold")
    report = replay(args.trace, config, cold_path)
    _print_report(report)
    if args.report:
        writer = write_csv if args.format == "csv" else write_jsonl
        writer(report, args.report)
        print(f"wrote {args.report}")
    return 0


def cmd_run_experiment(args: argparse.Namespace) -> int:
    knobs = _resolve_knobs(args)
    spec = _workload_spec(knobs)
    config = _tiering_config(knobs)
    with tempfile.TemporaryDirectory(prefix="tiermeta-") as tmp:
        workdir = Path(args.workdir) if args.workdir else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        trace = workdir / "trace.txt"
        summary = generate_trace(spec, trace)
        print(
            f"trace: {summary.n_files} creates, {summary.access_ops} accesses, "
            f"{summary.untouched_count} files never accessed again"
        )
        report = replay(trace, config, workdir / "trace.cold")
        _print_report(report)
        if args.csv:
            write_csv(report, args.csv)
            print(f"wrote {args.csv}")
        if args.jsonl:
            write_jsonl(report, args.jsonl)
            print(f"wrote {args.jsonl}")
    return 0


def _print_report(report: ExperimentReport) -> None:
    for event in report.events:
        print(
            f"separation tick={event.tick} hot_before={event.hot_size_before} "
            f"kept={event.kept_count} evicted={event.evicted_count} "
            f"({100.0 * event.evicted_fraction:.1f}%) mean_count={event.mean_count:.3f} "
            f"freed_bytes={event.freed_bytes_estimate}"
        )
    print("summary " + " ".join(f"{k}={v}" for k, v in sorted(report.summary.items())))


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.image:
        with open(args.image, "r", encoding="utf-8") as f:
            header = f.readline().rstrip("\n")
        store = load_fsimage(args.image)
        if args.path:
            record = store.get(args.path)
            if record is None:
                raise NotFoundError(f"no such path in {args.image}: {args.path}")
            print(encode_record(record))
            return 0
        print(header)
        for record in sorted(store, key=lambda r: r.path):
            print(encode_record(record))
        return 0
    if not Path(args.cold).exists():
        # ColdStore would create the file; inspect must stay read-only
        raise FileNotFoundError(f"no such cold store: {args.cold}")
    cold = ColdStore(args.cold)
    try:
        if args.path:
            record = cold.get(args.path)
            if record is None:
                raise NotFoundError(f"no such path in {args.cold}: {args.path}")
            print(encode_record(record))
            return 0
        print(f"{len(cold)} live records")
        for record in cold.records():
            print(encode_record(record))
    finally:
        cold.close()
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    with open(args.cold, "rb") as f:
        before = sum(1 for _ in f)
    cold = ColdStore(args.cold)
    try:
        live = cold.compact()
    finally:
        cold.close()
    print(f"compacted {args.cold}: {before} lines -> {live} live records")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    config = _tiering_config(_resolve_knobs(args))
    host, port = _parse_bind(args.bind)
    serve(args.data_dir, config, host=host, port=port)
    return 0


if __name__ == "__main__":
    sys.exit(main())
