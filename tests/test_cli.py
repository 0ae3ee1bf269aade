"""Command-line entry points, knob precedence, exit codes."""

import json
import subprocess
import sys

import pytest

from tiermeta import cli, coldstore
from tiermeta.cli import _build_parser, _resolve_knobs, main
from tiermeta.coldstore import ColdStore
from tiermeta.fsimage import save_fsimage
from tiermeta.namespace import HotStore, LogicalClock


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_trace_and_replay(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    code, out, _ = run(
        capsys, "gen-trace", "--files", "400", "--ops", "900",
        "--untouched", "0.3", "--seed", "7", "--out", str(trace),
    )
    assert code == 0
    assert "400 creates, 900 accesses, 120 files never accessed" in out
    assert trace.exists()

    jsonl_path = tmp_path / "r.jsonl"
    code, out, _ = run(
        capsys, "replay", "--trace", str(trace), "--threshold", "200",
        "--window", "150", "--report", str(jsonl_path), "--format", "jsonl",
    )
    assert code == 0
    assert "separation tick=200" in out
    assert "summary " in out
    kinds = [json.loads(line)["kind"] for line in jsonl_path.read_text().splitlines()]
    assert kinds[0] == "config" and kinds[-1] == "summary" and "event" in kinds

    csv_path = tmp_path / "r.csv"  # csv is the default format
    code, _, _ = run(capsys, "replay", "--trace", str(trace), "--threshold", "200",
                     "--window", "150", "--report", str(csv_path))
    assert code == 0
    assert csv_path.read_text().splitlines()[0].startswith("kind,")


def test_builtin_defaults_are_desk_scale():
    args = _build_parser().parse_args(["run-experiment"])
    knobs = _resolve_knobs(args)
    assert knobs["files"] == 180_000
    assert knobs["threshold"] == 120_000
    assert knobs["bytes_per_record"] == 600
    assert "window" not in knobs  # falls back to 75% of the threshold


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


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.conf"
    cfg.write_text("files = 300\nops=600 # inline comment\nthreshold = 9999\nseed=5\n")
    trace = tmp_path / "t.txt"
    code, out, _ = run(capsys, "gen-trace", "--config", str(cfg),
                       "--ops", "700", "--out", str(trace))
    assert code == 0
    # file supplied files/seed; the flag overrode ops
    assert "300 creates, 700 accesses" in out


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.conf"
    cfg.write_text("wat = 1\n")
    code, _, err = run(capsys, "gen-trace", "--config", str(cfg),
                       "--files", "10", "--ops", "0", "--out", str(tmp_path / "t"))
    assert code == 1
    assert "error:" in err and "wat" in err


def test_invalid_spec_is_a_one_line_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen-trace", "--files", "10", "--ops", "5",
                       "--untouched", "1.0", "--out", str(tmp_path / "t"))
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


def test_inspect_image(tmp_path, capsys):
    empty = tmp_path / "img0"
    save_fsimage(HotStore(), empty)
    code, out, _ = run(capsys, "inspect", "--image", str(empty))
    assert code == 0
    assert out == "FSIMAGE v1 0\n"

    store = HotStore()
    store.create("/i/a", 10, tick=0)
    store.create("/i/b", 0, tick=1)
    image = tmp_path / "img"
    save_fsimage(store, image)
    code, out, _ = run(capsys, "inspect", "--image", str(image))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "FSIMAGE v1 2"
    assert [line.split("\t")[0] for line in lines[1:]] == ["/i/a", "/i/b"]

    code, out, _ = run(capsys, "inspect", "--image", str(image), "--path", "/i/b")
    assert code == 0
    assert out.startswith("/i/b\t0\t")
    code, _, err = run(capsys, "inspect", "--image", str(image), "--path", "/nope")
    assert code == 1
    assert "error:" in err


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

    code, out, _ = run(capsys, "inspect", "--cold", str(cold), "--path", first_path)
    assert code == 0
    assert out == lines[1] + "\n"
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


def test_broken_pipe_dies_quietly(tmp_path):
    # enough records that inspect must overflow a 64 KiB pipe buffer
    clock = LogicalClock()
    store = HotStore()
    for i in range(3000):
        store.create(f"/p/{i:05d}", 100, clock.tick())
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
