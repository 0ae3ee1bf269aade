"""Command-line entry points, knob precedence, exit codes."""

import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tiermeta import cli, coldstore
from tiermeta.cli import _build_parser, _resolve_knobs, _tiering_config, main
from tiermeta.coldstore import ColdStore
from tiermeta.fsimage import save_fsimage
from tiermeta.namespace import HotStore
from tiermeta.recordio import encode_record
from tiermeta.server import COLD_NAME, IMAGE_NAME, open_store
from tiermeta.tiering import TieringConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_trace_and_replay(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    code, out, _ = run(
        capsys, "gen-trace", "--files", "400", "--ops", "900",
        "--seed", "7", "--out", str(trace),
    )
    assert code == 0
    assert "400 creates, 900 accesses, 120 files never accessed" in out
    assert trace.exists()

    jsonl_path = tmp_path / "r.jsonl"
    code, out, _ = run(
        capsys, "replay", "--trace", str(trace), "--threshold", "200",
        "--window", "150", "--jsonl", str(jsonl_path),
    )
    assert code == 0
    assert "separation tick=200" in out
    assert "summary " in out
    kinds = [json.loads(line)["kind"] for line in jsonl_path.read_text().splitlines()]
    assert kinds[0] == "config" and kinds[-1] == "summary" and "event" in kinds

    csv_path = tmp_path / "r.csv"
    code, _, _ = run(capsys, "replay", "--trace", str(trace), "--threshold", "200",
                     "--window", "150", "--csv", str(csv_path))
    assert code == 0
    assert csv_path.read_text().splitlines()[0].startswith("kind,")


def test_builtin_defaults_are_desk_scale():
    args = _build_parser().parse_args(["run-experiment"])
    knobs = _resolve_knobs(args)
    assert knobs["files"] == 180_000
    assert knobs["threshold"] == 120_000
    assert _tiering_config(knobs).as_dict()["bytes_per_record"] == 600
    assert "window" not in knobs  # falls back to 75% of the threshold
    desk = _build_parser().parse_args(["run-experiment", "--preset", "paper-desk"])
    assert knobs == _resolve_knobs(desk)
    assert _tiering_config(knobs).recency_window == 90_000


@pytest.mark.parametrize("preset", [[], ["--preset", "paper-desk"]], ids=["bare", "paper-desk"])
def test_the_window_follows_the_threshold_a_preset_is_overridden_with(preset):
    args = _build_parser().parse_args(["run-experiment", *preset, "--threshold", "800"])
    assert _tiering_config(_resolve_knobs(args)).recency_window == 600


def test_run_experiment_with_preset_overridden_small(tmp_path, capsys):
    code, out, _ = run(
        capsys, "run-experiment", "--preset", "paper-desk",
        "--files", "1200", "--ops", "2400", "--threshold", "800",
        "--window", "600", "--workdir", str(tmp_path / "w"),
    )
    assert code == 0
    assert "1200 creates" in out
    assert out.count("separation tick=") == 3
    assert (tmp_path / "w" / "trace.txt").exists()


def test_invalid_spec_is_a_one_line_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen-trace", "--files", "10", "--ops", "5",
                       "--out", str(tmp_path / "t"))
    assert code == 1
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_missing_trace_file_fails_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "replay", "--trace", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "error:" in err


def test_replay_names_the_malformed_line(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("CREATE /a 5 0\nACCESS\n")
    code, _, err = run(capsys, "replay", "--trace", str(trace))
    assert code == 1
    assert "error:" in err and "line 2" in err


def test_replay_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_bytes(b"CREATE /a 5 0\nCREATE /\xff 1 1\n")
    code, out, err = run(capsys, "replay", "--trace", str(trace))
    assert (code, out) == (1, "")
    assert err == (f"error: {trace}: line 2: 'utf-8' codec can't decode byte 0xff "
                   "in position 8: invalid start byte\n")


def test_replay_refuses_the_cold_file_of_a_store(tmp_path, capsys):
    store = open_store(tmp_path, TieringConfig(threshold_records=10))
    for i in range(12):
        store.create(f"/k/{i}", 100)  # the 10th spills the oldest three
    store.checkpoint(store.image_path)
    store.close()
    cold = tmp_path / COLD_NAME
    before = cold.read_bytes()
    assert before
    trace = tmp_path / "t.txt"
    trace.write_text("CREATE /x 1 0\n")
    code, out, err = run(capsys, "replay", "--trace", str(trace), "--cold", str(cold))
    assert code == 1 and out == ""
    assert err == (f"error: not replaying into {cold}: {tmp_path / IMAGE_NAME} "
                   "beside it commits its length\n")
    assert cold.read_bytes() == before
    open_store(tmp_path).close()


def test_inspect_image(tmp_path, capsys):
    empty = tmp_path / "img0"
    save_fsimage(HotStore(), empty, 0, 0)
    code, out, _ = run(capsys, "inspect", "--image", str(empty))
    assert code == 0
    assert out == "FSIMAGE v4 0 0 0\n"

    store = HotStore()
    store.create("/i/a", 10, tick=0)
    store.create("/i/b", 0, tick=1)
    image = tmp_path / "img"
    save_fsimage(store, image, 2, 0)
    code, out, _ = run(capsys, "inspect", "--image", str(image))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "FSIMAGE v4 2 2 0"
    assert [line.split("\t")[0] for line in lines[1:]] == ["/i/a", "/i/b"]

    code, out, _ = run(capsys, "inspect", "--image", str(image), "--path", "/i/b")
    assert code == 0
    assert out == "/i/b\t0\t67108864\t3\t1\t1\t0\n"  # an empty file has no blocks
    code, _, err = run(capsys, "inspect", "--image", str(image), "--path", "/nope")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("tier", ["--image", "--cold"])
def test_inspect_path_prints_the_derived_blocks_under_the_record(tmp_path, capsys, tier):
    store = HotStore()
    store.create("/data/report.txt", 130 * 1024 * 1024, tick=42)
    store.access("/data/report.txt", tick=50)
    store.create("/data/other", 10, tick=51)
    target = tmp_path / "f"
    if tier == "--image":
        save_fsimage(store, target, 52, 0)
    else:
        cold = ColdStore(target)
        cold.append_records(list(store))
        cold.close()
    code, out, _ = run(capsys, "inspect", tier, str(target), "--path", "/data/report.txt")
    assert code == 0
    assert out.splitlines() == [
        "/data/report.txt\t136314880\t67108864\t3\t50\t2\t42",
        "block 44040192 size=67108864 stamp=42 replicas=0;1",
        "block 44040193 size=67108864 stamp=42 replicas=1;0",
        "block 44040194 size=2097152 stamp=42 replicas=0;1",
    ]
    code, out, _ = run(capsys, "inspect", tier, str(target))  # the whole file: records only
    assert code == 0
    assert sorted(out.splitlines()[1:]) == sorted(encode_record(r) for r in store)


def test_inspect_and_compact_cold(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    run(capsys, "gen-trace", "--files", "300", "--ops", "600", "--out", str(trace))
    cold = tmp_path / "fsimage2"
    run(capsys, "replay", "--trace", str(trace), "--threshold", "150",
        "--window", "112", "--cold", str(cold))

    code, out, _ = run(capsys, "inspect", "--cold", str(cold))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("live records")
    first_path = lines[1].split("\t")[0]

    assert not any(line.startswith("block ") for line in lines)
    code, out, _ = run(capsys, "inspect", "--cold", str(cold), "--path", first_path)
    assert code == 0
    assert out.splitlines()[0] == lines[1]
    assert all(line.startswith("block ") for line in out.splitlines()[1:])
    code, _, err = run(capsys, "inspect", "--cold", str(cold), "--path", "/nope")
    assert code == 1
    assert "error:" in err

    code, out, _ = run(capsys, "compact", "--cold", str(cold))
    assert code == 0
    assert "compacted" in out

    # inspecting a cold store that does not exist must not create it
    code, _, err = run(capsys, "inspect", "--cold", str(tmp_path / "ghost"))
    assert code == 1
    assert "error:" in err
    assert not (tmp_path / "ghost").exists()


def test_inspect_refuses_a_cold_file_with_a_torn_last_line_and_leaves_it_alone(
        tmp_path, capsys):
    cold = tmp_path / "fsimage2"
    line = encode_record(("/t/a", 1, 0, 0, 1)).encode() + b"\n"
    cold.write_bytes(line + line[:10])  # a spill cut off by a crash, or still being written
    code, out, err = run(capsys, "inspect", "--cold", str(cold))
    assert (code, out) == (1, "")
    assert err == f"error: {cold}: line 2: truncated record\n"
    assert cold.read_bytes() == line + line[:10]
    code, _, _ = run(capsys, "compact", "--cold", str(cold))
    assert code == 0 and cold.read_bytes() == line


def test_compact_closes_every_file_it_opens(tmp_path, capsys, opened_files):
    store = HotStore()
    for i in range(4):
        store.create(f"/k/{i}", 100, i)
    cold = ColdStore(tmp_path / "c")
    cold.append_records(list(store))
    cold.delete("/k/1")
    cold.close()
    opened = opened_files(cli, coldstore)
    code, out, _ = run(capsys, "compact", "--cold", str(tmp_path / "c"))
    assert code == 0
    assert out == f"compacted {tmp_path / 'c'}: 5 lines -> 3 live records\n"
    assert opened and all(f.closed for f in opened)


def test_compact_refuses_the_cold_file_of_a_store(tmp_path, capsys):
    store = open_store(tmp_path, TieringConfig(threshold_records=4, recency_window=0))
    for i in range(4):
        store.create(f"/k/{i}", 100)  # the 4th spills all four and checkpoints
    store.open("/k/0")  # a promotion: the cold file now holds a dead line
    store.close()
    cold = tmp_path / COLD_NAME
    before = cold.read_bytes()
    code, out, err = run(capsys, "compact", "--cold", str(cold))
    assert code == 1 and out == ""
    assert err == (f"error: not compacting {cold}: {tmp_path / IMAGE_NAME} "
                   "beside it commits its length\n")
    assert cold.read_bytes() == before


def test_broken_pipe_dies_quietly(tmp_path):
    # enough records that inspect must overflow a 64 KiB pipe buffer
    store = HotStore()
    for i in range(3000):
        store.create(f"/p/{i:05d}", 100, i)
    cold = ColdStore(tmp_path / "c")
    cold.append_records(list(store))
    cold.close()
    proc = subprocess.Popen(
        [sys.executable, "-m", "tiermeta.cli", "inspect", "--cold", str(tmp_path / "c")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()  # reader goes away immediately
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == 1
    assert err == ""


def test_importing_one_module_does_not_load_the_whole_package():
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, tiermeta.recordio; print(*sorted(sys.modules))"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=30,
    ).stdout.split()
    assert "tiermeta.recordio" in loaded
    assert "tiermeta.server" not in loaded and "socketserver" not in loaded


def test_serve_rejects_bad_bind(tmp_path, capsys):
    for bind in ("nope", "127.0.0.1:x", ":123"):
        code, _, err = run(capsys, "serve", str(tmp_path), "--bind", bind)
        assert code == 1
        assert "HOST:PORT" in err


def test_help_lists_presets_and_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-trace", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "paper-desk" in out
    assert "default 180000" in out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _readme_commands():
    """Every ``tiermeta ...`` command in a fenced block of the README, with
    its backslash continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in re.sub(r"\\\n\s*", "", block).splitlines():
            if line.startswith("tiermeta "):
                commands.append(line)
    return commands


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_commands_parse(command):
    argv = shlex.split(command, comments=True)
    _build_parser().parse_args(argv[1:])


def test_readme_has_commands():
    assert len(_readme_commands()) >= 5


def test_each_subcommand_takes_exactly_these_options():
    # a new flag, or one gone, has to be named here
    expected = {
        "gen-trace": {"--preset", "--files", "--ops", "--seed", "--out"},
        "replay": {"--preset", "--threshold", "--window", "--trace", "--cold", "--csv", "--jsonl"},
        "run-experiment": {"--preset", "--files", "--ops", "--seed", "--threshold", "--window",
                           "--workdir", "--csv", "--jsonl"},
        "inspect": {"--image", "--cold", "--path"},
        "compact": {"--cold"},
        "serve": {"--preset", "--threshold", "--window", "data_dir", "--bind"},
    }
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def options(p):
        return {s for a in p._actions for s in (a.option_strings or [a.dest])} - {"-h", "--help"}

    assert options(parser) == {"-v", "--verbose", "command"}
    assert {name: options(p) for name, p in sub.choices.items()} == expected
