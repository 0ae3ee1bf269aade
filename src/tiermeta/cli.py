"""Command-line interface.

Subcommands cover the whole experiment loop: generate a workload trace,
replay it against a tiered store, or do both in one go; plus serving a store
over TCP and inspecting or compacting its on-disk files.

Knobs resolve in precedence order: explicit flags, then the --preset
values. With no --preset the paper-desk preset is in force, so a bare
``run-experiment`` finishes in well under a minute. The presets:

    paper-desk   180,000 files / 360,000 accesses, threshold 120,000
    paper-full   1,800,000 files / 3,600,000 accesses, threshold 1,200,000

Neither sets the recency window: unless --window is given it is 75% of the
threshold in force, so a create-heavy phase evicts 25% of the hot tier per
separation. An alternate full-scale threshold of 1,260,000 records (1.26M,
the other commonly quoted figure) can be set with --threshold. The trace's
shape is fixed (see :mod:`tiermeta.workload`): 30% of files untouched,
rank skew 1.0, mean file length 64 KiB.
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
from .namespace import MetadataRecord
from .recordio import encode_record
from .server import IMAGE_NAME, serve
from .tiering import TieringConfig
from .workload import WorkloadSpec, generate_trace, replay

PRESETS: dict[str, dict[str, int]] = {
    "paper-desk": {"files": 180_000, "ops": 360_000, "seed": 7, "threshold": 120_000},
    "paper-full": {"files": 1_800_000, "ops": 3_600_000, "seed": 7, "threshold": 1_200_000},
}
_DEFAULT_PRESET = "paper-desk"

# every knob is an int flag of the same name
_KNOB_HELP = {
    "files": "files created by the trace",
    "ops": "access operations after the creates",
    "seed": "workload RNG seed",
    "threshold": "hot-tier record count that triggers separation",
    "window": "recency window in ticks",
}

_SPEC_KEYS = {"files": "n_files", "ops": "access_ops", "seed": "seed"}

_CONFIG_KEYS = {"threshold": "threshold_records", "window": "recency_window"}


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
    _add_knobs(p, ("files", "ops", "seed"))
    p.add_argument("--out", required=True, help="trace file to write")
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("replay", help="replay a trace against a fresh store")
    _add_knobs(p, ("threshold", "window"))
    p.add_argument("--trace", required=True, help="trace file to replay")
    p.add_argument("--cold", help="cold-store file (default: <trace>.cold, truncated)")
    _add_report_files(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("run-experiment", help="generate a trace and replay it")
    _add_knobs(p, tuple(_KNOB_HELP))
    p.add_argument("--workdir", help="where trace and cold file go (default: temp dir)")
    _add_report_files(p)
    p.set_defaults(func=cmd_run_experiment)

    p = sub.add_parser("inspect", help="print a tier's records, or one record")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--image", help="checkpoint image to read")
    which.add_argument("--cold", help="cold-store file to read")
    p.add_argument("--path", help="print only this path's record and its derived blocks")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("compact", help="drop dead entries from a cold-store file")
    p.add_argument("--cold", required=True, help="cold-store file to compact in place")
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("serve", help="serve a data directory over TCP until QUIT")
    _add_knobs(p, ("threshold", "window"))
    p.add_argument("data_dir", help="directory holding fsimage, fsimage2, edits.log")
    p.add_argument("--bind", default="127.0.0.1:0",
                   help="host:port to listen on (default 127.0.0.1:0; port 0 picks a free one)")
    p.set_defaults(func=cmd_serve)

    return parser


def _add_knobs(p: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), default=_DEFAULT_PRESET,
                   help=f"named parameter set (default {_DEFAULT_PRESET})")
    defaults = PRESETS[_DEFAULT_PRESET]
    for key in keys:
        default = "75%% of the threshold" if key == "window" else defaults[key]
        p.add_argument("--" + key, type=int, help=f"{_KNOB_HELP[key]} (default {default})")


def _add_report_files(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", help="write the report as CSV")
    p.add_argument("--jsonl", help="write the report as JSON lines")


def _resolve_knobs(args: argparse.Namespace) -> dict[str, int]:
    """The preset's values, each overridden by its flag where one is given."""
    knobs = dict(PRESETS[args.preset])
    for key in _KNOB_HELP:
        value = getattr(args, key, None)
        if value is not None:
            knobs[key] = value
    return knobs


def _workload_spec(knobs: dict[str, int]) -> WorkloadSpec:
    return WorkloadSpec(**{_SPEC_KEYS[k]: v for k, v in knobs.items() if k in _SPEC_KEYS})


def _tiering_config(knobs: dict[str, int]) -> TieringConfig:
    return TieringConfig(**{_CONFIG_KEYS[k]: v for k, v in knobs.items() if k in _CONFIG_KEYS})


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
    _refuse_a_store_s_cold_file(cold_path, "replaying into")
    _emit_report(replay(args.trace, config, cold_path), args)
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
        _emit_report(replay(trace, config, workdir / "trace.cold"), args)
    return 0


def _emit_report(report: ExperimentReport, args: argparse.Namespace) -> None:
    """Print each separation event and the summary, then write the report
    files that --csv and --jsonl name."""
    for event in report.events:
        print(
            f"separation tick={event.tick} hot_before={event.hot_size_before} "
            f"kept={event.kept_count} evicted={event.evicted_count} "
            f"({100.0 * event.evicted_fraction:.1f}%) mean_count={event.mean_count:.3f} "
            f"freed_bytes={event.freed_bytes_estimate}"
        )
    print("summary " + " ".join(f"{k}={v}" for k, v in sorted(report.summary.items())))
    for dest, writer in ((args.csv, write_csv), (args.jsonl, write_jsonl)):
        if dest:
            writer(report, dest)
            print(f"wrote {dest}")


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.image:
        store = load_fsimage(args.image)  # checks every line before one is printed
        if args.path:
            _print_with_blocks(store.get(args.path), args.image, args.path)
            return 0
        with open(args.image, "r", encoding="utf-8") as f:
            sys.stdout.writelines(f)  # the lines the load checked, as they are on disk
        return 0
    if not Path(args.cold).exists():  # ColdStore would create it
        raise FileNotFoundError(f"no such cold store: {args.cold}")
    cold = ColdStore(args.cold)  # writes nothing, and refuses a torn last line
    try:
        if args.path:
            _print_with_blocks(cold.get(args.path), args.cold, args.path)
            return 0
        print(f"{len(cold)} live records")
        for record in cold.records():
            print(encode_record(record))
    finally:
        cold.close()
    return 0


def _print_with_blocks(record: MetadataRecord | None, src: str, path: str) -> None:
    """One record line, then the blocks it derives, one line each."""
    if record is None:
        raise NotFoundError(f"no such path in {src}: {path}")
    print(encode_record(record))
    for b in record.blocks:
        replicas = ";".join(map(str, b.replicas))
        print(f"block {b.block_id} size={b.size} stamp={b.generation_stamp} replicas={replicas}")


def _refuse_a_store_s_cold_file(cold: str | Path, doing: str) -> None:
    """Raise if an image beside ``cold`` commits its length: rewriting lines
    under that length would break the store."""
    image = Path(cold).with_name(IMAGE_NAME)
    if image.exists():
        raise ValueError(f"not {doing} {cold}: {image} beside it commits its length")


def cmd_compact(args: argparse.Namespace) -> int:
    _refuse_a_store_s_cold_file(args.cold, "compacting")
    with open(args.cold, "r+b") as f:
        before = end = 0
        for line in f:
            if line.endswith(b"\n"):
                before, end = before + 1, end + len(line)
        f.truncate(end)  # drops a torn last line: an append a crash cut short
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
