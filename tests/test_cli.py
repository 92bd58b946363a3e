import collections
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import streamcolor
from streamcolor.cli import main
from streamcolor.harness import GenSpec, generate


def run_cli(*argv):
    return main(list(argv))


def test_gen_run_verify_round_trip(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    out = tmp_path / "out.txt"
    assert run_cli(
        "gen", "--family", "regular-bipartite", "--n", "32", "--delta", "4",
        "--mode", "vertex-one-sided", "--seed", "1", "-o", str(stream),
    ) == 0
    assert run_cli("run", str(stream), "--alg", "one-sided", "-o", str(out)) == 0
    assert run_cli("verify", str(stream), str(out)) == 0
    captured = capsys.readouterr()
    assert "proper: true" in captured.out
    assert "declared color budget:" in captured.err
    lines = out.read_text().splitlines()
    assert lines[-1].startswith("T ")
    assert all(line.startswith("c ") for line in lines[:-1])
    assert len(lines) - 1 == 32 * 4


def test_gen_rejects_infeasible_spec(tmp_path):
    assert run_cli(
        "gen", "--family", "regular-bipartite", "--n", "4", "--delta", "9",
        "--mode", "edge", "--seed", "1", "-o", str(tmp_path / "x.txt"),
    ) == 2


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--family", "random-bipartite", "--n", "20", "--delta", "3",
            "--mode", "edge", "--seed", "7"]
    run_cli(*args, "-o", str(a))
    run_cli(*args, "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_rejects_wrong_mode(tmp_path):
    stream = tmp_path / "s.txt"
    run_cli("gen", "--family", "regular-bipartite", "--n", "16", "--delta", "4",
            "--mode", "vertex-one-sided", "--seed", "1", "-o", str(stream))
    assert run_cli("run", str(stream), "--alg", "edge-sqrt",
                   "-o", str(tmp_path / "o.txt")) == 3


def test_run_rejects_degree_violations(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("H 4 0 1 edge 0 1\ne 0 1\ne 0 2\n")
    assert run_cli("run", str(bad), "--alg", "edge-sqrt",
                   "-o", str(tmp_path / "o.txt")) == 3


def test_verify_detects_corrupted_output(tmp_path):
    stream = tmp_path / "s.txt"
    out = tmp_path / "out.txt"
    run_cli("gen", "--family", "regular-bipartite", "--n", "16", "--delta", "2",
            "--mode", "edge", "--seed", "2", "-o", str(stream))
    run_cli("run", str(stream), "--alg", "edge-sqrt", "-o", str(out))
    lines = out.read_text().splitlines()
    # drop one assignment: verification must fail with exit 1
    del lines[0]
    out.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(stream), str(out)) == 1


def test_verify_parse_error_exit_code(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text("H 4 0 2 edge 0 1\ne 0 1\n")
    bad = tmp_path / "o.txt"
    bad.write_text("c 0 1\n")
    assert run_cli("verify", str(stream), str(bad)) == 5


def test_offline_baselines_run_on_any_mode(tmp_path):
    stream = tmp_path / "s.txt"
    out = tmp_path / "o.txt"
    run_cli("gen", "--family", "regular-general", "--n", "16", "--delta", "4",
            "--mode", "edge", "--seed", "3", "-o", str(stream))
    assert run_cli("run", str(stream), "--alg", "offline-greedy", "-o", str(out)) == 0
    assert run_cli("verify", str(stream), str(out)) == 0


def test_internal_bound_violation_exits_four(tmp_path, monkeypatch):
    import streamcolor.cli as cli_mod
    from streamcolor.errors import BoundViolation

    stream = tmp_path / "s.txt"
    run_cli("gen", "--family", "regular-bipartite", "--n", "16", "--delta", "4",
            "--mode", "edge", "--seed", "1", "-o", str(stream))

    def boom(*args, **kwargs):
        raise BoundViolation("a sub-colorer saw too much degree")

    monkeypatch.setattr(cli_mod, "run_stream", boom)
    assert run_cli("run", str(stream), "--alg", "edge-sqrt",
                   "-o", str(tmp_path / "o.txt")) == 4


def test_other_internal_errors_exit_four_without_a_traceback(tmp_path, monkeypatch, capsys):
    import streamcolor.cli as cli_mod
    from streamcolor.errors import PeriodTooSmall

    stream = tmp_path / "s.txt"
    run_cli("gen", "--family", "regular-bipartite", "--n", "16", "--delta", "4",
            "--mode", "edge", "--seed", "1", "-o", str(stream))
    capsys.readouterr()

    def boom(*args, **kwargs):
        raise PeriodTooSmall("period 2 cannot hold three distinct shifts")

    monkeypatch.setattr(cli_mod, "run_stream", boom)
    assert run_cli("run", str(stream), "--alg", "edge-sqrt",
                   "-o", str(tmp_path / "o.txt")) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "internal error: period 2 cannot hold three distinct shifts"
    assert not any("Traceback" in line for line in err)


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--family", "regular-bipartite", "--n", "16", "--delta", "2",
            "--mode", "edge"]
    monkeypatch.setenv("STREAMCOLOR_SEED", "123")
    run_cli(*args, "--seed", "1", "-o", str(a))
    run_cli(*args, "--seed", "2", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_kout_csv_schema(capsys):
    assert run_cli("kout", "--n", "8", "--c", "3.0", "--trials", "50", "--seed", "4") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,u_size,k,trials,seed,failures,rate,ci_low,ci_high"
    fields = out[1].split(",")
    assert fields[0] == "8" and fields[1] == "24"


@pytest.mark.parametrize(
    "args, message",
    [
        (("--c", "abc"), "--c 'abc' is not a positive number"),
        (("--c", "0"), "--c '0' is not a positive number"),
        (("--k", "0"), "--k must be at least 1"),
        (("--n", "-1"), "--n must be at least 1"),
        (("--trials", "-5"), "--trials must be at least 1"),
        (("--c", "1", "--k", "9"), "--k 9 is above ceil(c * n) = 8"),
        (("--c", "-1"), "--c '-1' is not a positive number"),
        (("--c", "nan"), "--c 'nan' is not a positive number"),
        (("--c", "0.5", "--n", "5", "--k", "4"), "--k 4 is above ceil(c * n) = 3"),
    ],
)
def test_kout_rejects_parameters_it_cannot_sample(capsys, args, message):
    # a flag given twice takes its last value, so `args` overrides these
    assert run_cli("kout", "--n", "8", "--trials", "50", *args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"infeasible spec: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("alg", ["edge-general", "edge-sqrt", "one-sided"])
@pytest.mark.parametrize("s", ["0", "-3"])
def test_run_rejects_s_below_one_before_opening_a_file(tmp_path, capsys, alg, s):
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 2\n")
    assert run_cli("run", str(stream), "--alg", alg, "--s", s, "-o", str(out)) == 2
    assert capsys.readouterr().err == "infeasible spec: --s must be at least 1\n"
    assert not out.exists()
    # nor is the input opened: a missing one is not reported
    assert run_cli("run", str(tmp_path / "missing.txt"), "--alg", alg, "--s", s) == 2
    assert capsys.readouterr().err == "infeasible spec: --s must be at least 1\n"


def test_edge_sqrt_warns_once_when_it_ignores_an_explicit_s(tmp_path, capsys):
    # edge-sqrt runs at s = ceil(sqrt(16)) = 4 whatever --s says: a different
    # value is named in one warning, the same value or none in no warning,
    # and the output bytes are the same every time
    stream = tmp_path / "s.txt"
    stream.write_text(generate(GenSpec("regular-bipartite", 64, 16, "edge", 3)))
    written = []
    for extra, warnings in (
        ((), []),
        (("--s", "2"), ["warning: --s 2 ignored: edge-sqrt runs at s=4 = ceil(sqrt(delta))"]),
        (("--s", "4"), []),
    ):
        out = tmp_path / f"o{len(written)}.txt"
        argv = ("run", str(stream), "--alg", "edge-sqrt", *extra, "--force-stream", "-o", str(out))
        assert run_cli(*argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == warnings
        written.append(out.read_bytes())
    assert written[0] == written[1] == written[2]


# (stream, alg, --s, the one warning, the run without --s that writes the same bytes)
S_IGNORED = [
    # clamped to ceil(sqrt(16)) = 4, where edge-general is edge-sqrt
    ("edge", "edge-general", "100",
     "--s 100 ignored: edge-general runs at s=4 = ceil(sqrt(delta))", "edge-sqrt"),
    ("vertex", "one-sided", "2", "--s 2 ignored: one-sided has no space knob", "one-sided"),
    ("vertex", "offline-exact", "3", "--s 3 ignored: offline-exact has no space knob",
     "offline-exact"),
    # delta 1: the one-color path, at s = ceil(sqrt(1)) = 1
    ("delta1", "edge-general", "3", "--s 3 ignored: edge-general runs at s=1 = ceil(sqrt(delta))",
     "edge-general"),
]


@pytest.mark.parametrize("case", S_IGNORED, ids=[f"{c[1]}-s{c[2]}" for c in S_IGNORED])
def test_an_ignored_s_warns_once_and_changes_no_byte(tmp_path, capsys, case):
    kind, alg, s, warning, plain_alg = case
    stream = tmp_path / "s.txt"
    if kind == "delta1":
        stream.write_text("H 2 2 1 edge 0 1\ne 0 2\ne 1 3\n")
    else:
        mode = "edge" if kind == "edge" else "vertex-one-sided"
        stream.write_text(generate(GenSpec("regular-bipartite", 64, 16, mode, 3)))
    written = []
    for argv, warnings in (
        (("--alg", alg, "--s", s), [f"warning: {warning}"]),
        (("--alg", plain_alg), []),  # no --s: no warning
    ):
        out = tmp_path / f"o{len(written)}.txt"
        assert run_cli("run", str(stream), *argv, "--force-stream", "-o", str(out)) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning:")] == warnings
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "c, n, k, u_size",
    [("1", "8", "8", "8"), ("0.5", "5", "3", "3")],
)
def test_kout_accepts_k_equal_to_ceil_c_n(capsys, c, n, k, u_size):
    assert run_cli("kout", "--n", n, "--c", c, "--k", k, "--trials", "20", "--seed", "1") == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[:4] == [n, u_size, k, "20"]


@pytest.mark.parametrize(
    "argv", [("bench",), ("bench", "--config", "grid.cfg", "--jobs", "2")],
)
def test_bench_is_an_unknown_subcommand(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_gen_rejects_a_negative_batch_size(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run_cli(
        "gen", "--family", "regular-bipartite", "--n", "16", "--delta", "4",
        "--mode", "batch", "--batch-size", "-2", "-o", str(out),
    ) == 2
    assert capsys.readouterr().err == "infeasible spec: batch_size must not be negative, got -2\n"
    assert not out.exists()


def test_run_rejects_vertex_ids_outside_the_header_range(tmp_path, capsys):
    stream = tmp_path / "s.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 1\ne 0 999999\n")
    assert run_cli("run", str(stream), "--alg", "edge-sqrt",
                   "-o", str(tmp_path / "o.txt")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("input error:")] == [
        "input error: line 3: vertex id outside [0, 4)"
    ]


@pytest.mark.parametrize(
    "body, message",
    [
        ("V 0 3 1\n", "neighbor 1 is not an offline id"),  # the first one off its side
        ("B 0 1 3\n", "neighbor 1 is not an offline id"),
        ("V 2 3\n", "arriving vertex 2 is not an online id"),
    ],
)
def test_one_sided_run_rejects_ids_on_the_wrong_side(tmp_path, capsys, body, message):
    mode = "batch 2" if body.startswith("B") else "vertex-one-sided 0"
    stream = tmp_path / "s.txt"
    stream.write_text(f"H 2 2 2 {mode} 1\n{body}")
    assert run_cli("run", str(stream), "--alg", "one-sided", "-o", str(tmp_path / "o.txt")) == 3
    assert f"input error: {message}" in capsys.readouterr().err.splitlines()


def test_run_with_an_output_path_that_cannot_be_opened_exits_three(tmp_path, monkeypatch,
                                                                   capsys):
    import streamcolor.cli as cli_mod

    stream = tmp_path / "s.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 2\n")
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli_mod, "open", tracking_open, raising=False)
    assert run_cli("run", str(stream), "--alg", "edge-sqrt",
                   "-o", str(tmp_path / "missing" / "o.txt")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: cannot open output: ")
    assert [fh.closed for fh in opened] == [True]  # the input, closed again


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("n", [2, 1024])  # fails at the trailer's flush, or at an emit
def test_run_with_an_output_that_fails_on_write_exits_three(tmp_path, capsys, n):
    stream = tmp_path / "s.txt"
    stream.write_text(generate(GenSpec("regular-bipartite", n, 2, "edge", seed=1)))
    assert run_cli("run", str(stream), "--alg", "edge-sqrt", "-o", "/dev/full") == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("declared color budget: ")
    assert err[1] == "input error: cannot write output: [Errno 28] No space left on device"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])  # fails at a write, or at the flush
@pytest.mark.parametrize("command", ["kout", "verify"])
def test_a_report_to_a_full_stdout_exits_three(tmp_path, command, unbuffered):
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 2\n")
    out.write_text("c 0 2 0\nT 1 0\n")
    argv = ["kout", "--n", "8", "--trials", "10"]
    if command == "verify":
        argv = ["verify", str(stream), str(out)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(streamcolor.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "streamcolor.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    # one line, and no traceback or "Exception ignored" from the flush at exit
    assert done.stderr.splitlines() == [
        "input error: cannot write output: [Errno 28] No space left on device"
    ]
    assert done.returncode == 3


def test_gen_with_an_output_path_that_cannot_be_opened_exits_three(tmp_path, capsys):
    assert run_cli("gen", "--family", "regular-bipartite", "--n", "4", "--delta", "2",
                   "--mode", "edge", "-o", str(tmp_path / "missing" / "g.txt")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("input error: cannot write output: ")


def test_non_integer_env_seed_exits_three(tmp_path, monkeypatch, capsys):
    stream = tmp_path / "s.txt"
    run_cli("gen", "--family", "regular-bipartite", "--n", "16", "--delta", "2",
            "--mode", "edge", "--seed", "1", "-o", str(stream))
    monkeypatch.setenv("STREAMCOLOR_SEED", "seven")
    out = tmp_path / "o.txt"
    assert run_cli("run", str(stream), "--alg", "edge-sqrt", "-o", str(out)) == 3
    assert run_cli("gen", "--family", "regular-bipartite", "--n", "16", "--delta", "2",
                   "--mode", "edge", "-o", str(tmp_path / "g.txt")) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.splitlines() == ["input error: STREAMCOLOR_SEED='seven' is not an integer"] * 2
    # commands without a seed do not read it
    assert run_cli("verify", str(stream), str(stream)) == 5


def test_aborted_run_keeps_its_emitted_prefix(tmp_path, monkeypatch):
    import streamcolor.cli as cli_mod
    from streamcolor.harness import check_assignments, collect_edges
    from streamcolor.stream import parse_output, parse_stream

    stream, bad = tmp_path / "s.txt", tmp_path / "bad.txt"
    full, aborted = tmp_path / "full.txt", tmp_path / "aborted.txt"
    run_cli("gen", "--family", "regular-bipartite", "--n", "256", "--delta", "8",
            "--mode", "vertex-one-sided", "--seed", "5", "-o", str(stream))
    # online vertex 0 already has all delta edges: this last arrival passes delta
    bad.write_text(stream.read_text() + "V 0 256\n")
    assert run_cli("run", str(stream), "--alg", "one-sided", "-o", str(full)) == 0

    real_writer, writers = cli_mod.AssignmentWriter, []

    def writer(sink):
        writers.append(real_writer(sink))
        return writers[-1]

    monkeypatch.setattr(cli_mod, "AssignmentWriter", writer)
    assert run_cli("run", str(bad), "--alg", "one-sided", "-o", str(aborted)) == 3

    raw = aborted.read_text()
    assert len(raw) > 8192  # more than one write buffer's worth
    assert raw.endswith("\n")  # the close flushed the last partial block
    lines = raw.splitlines()
    assert len(lines) == writers[-1].count > 0  # every emitted line, no trailer
    assert lines == full.read_text().splitlines()[: len(lines)]
    assignments, trailer = parse_output(lines)
    assert trailer is None
    _header, events = parse_stream(stream.read_text().splitlines())
    report = check_assignments(collect_edges(events), assignments)
    assert report.proper and not report.duplicates and not report.unknown


def _run_aborted(tmp_path, capsys, lines, *alg):
    """Run a stream that stops with an input error; the output's line count
    and SHA-256, and the one `input error:` line."""
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("run", str(stream), "--alg", *alg, "-o", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("input error:")]
    raw = out.read_bytes()
    return raw.count(b"\n"), hashlib.sha256(raw).hexdigest(), errors


def test_a_degree_violation_in_the_second_block_keeps_the_emitted_prefix(tmp_path, capsys):
    # 8,192 edge lines: the first 4,096 are one block, the rest a second
    lines = generate(GenSpec("regular-bipartite", 256, 32, "edge", 3)).splitlines(keepends=True)
    cut = 7000  # edge lines before the bad one, which is line cut + 2 of the file
    seen = collections.Counter(int(line.split()[1]) for line in lines[1 : cut + 1])
    full = min(u for u, d in seen.items() if d == 32)  # an online vertex with all its edges
    lines.insert(cut + 1, f"e {full} 256\n")
    got = _run_aborted(tmp_path, capsys, lines, "edge-general", "--s", "2", "--force-stream")
    assert got == (
        6060,
        "d4ed7a4666dd1ef5db14905d69d4b8b5abda9eda0b4943b838279624e92563b2",
        [f"input error: line {cut + 2}: vertex {full} passes delta=32"],
    )


def test_a_same_side_edge_after_a_checkpoint_in_its_block_keeps_the_emitted_prefix(
    tmp_path, capsys
):
    # s=1 caps the buffer at n = 512 edges, so a checkpoint drains full
    # batches at the 512th edge, in the same block as the bad edge
    lines = generate(GenSpec("regular-bipartite", 256, 32, "edge", 3)).splitlines(keepends=True)
    lines.insert(1001, "e 0 1\n")  # both online
    got = _run_aborted(tmp_path, capsys, lines, "edge-general", "--s", "1", "--force-stream")
    assert got == (
        560,
        "bfc2161c66b422f42e2bda79bd87269bf571b7d7728c51bcf21bebe328e5ab7c",
        ["input error: edge (0, 1) does not cross the declared sides"],
    )


OFFLINE_FIRST = "".join(f"V {v}\n" for v in range(1, 9))  # vertex-two-sided: they arrive too


@pytest.mark.parametrize(
    "mode, body, alg, message, emitted",
    [
        # a simple graph of degree at most 8; before the parser refused the
        # second arrival, seed 0 colored it in conflict with the first
        ("vertex-one-sided", "V 0 1 2 3 4\nV 0 5 6 7 8\n", "one-sided",
         "line 3: vertex 0 already appeared; it arrives once", 4),
        ("vertex-one-sided", "V 0\nV 0 1\n", "one-sided",
         "line 3: vertex 0 already appeared; it arrives once", 0),
        ("vertex-two-sided", OFFLINE_FIRST + "V 0 1 2 3 4\nV 0 5 6 7 8\n", "vertex-general",
         "line 11: vertex 0 already appeared; it arrives once", 4),
        ("vertex-two-sided", "V 1\nV 0 1 2\n", "vertex-general",
         "line 3: neighbor 2 of 0 has not arrived yet", 0),
    ],
)
def test_a_vertex_arrives_once_and_after_its_neighbors(tmp_path, capsys, mode, body, alg,
                                                        message, emitted):
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text(f"H 1 8 8 {mode} 0 0\n{body}")
    assert run_cli("run", str(stream), "--alg", alg, "-o", str(out)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("input error:")] == [
        f"input error: {message}"
    ]
    assert len(out.read_text().splitlines()) == emitted


@pytest.mark.parametrize(
    "mode, body, alg, message",
    [
        ("vertex-two-sided", "V 2\nV 0 2\nV 1 0\n", ("vertex-general",), "edge (1, 0)"),
        ("edge", "e 0 2\ne 1 0\n", ("edge-sqrt", "--force-stream"), "edge (1, 0)"),
        ("edge", "e 0 2\ne 3 2\n", ("edge-general", "--s", "2", "--force-stream"),
         "edge (3, 2)"),
    ],
)
def test_declared_sides_reject_a_same_side_edge(tmp_path, capsys, mode, body, alg, message):
    stream = tmp_path / "s.txt"
    stream.write_text(f"H 2 2 2 {mode} 0 1\n{body}")
    assert run_cli("run", str(stream), "--alg", *alg, "-o", str(tmp_path / "o.txt")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("input error:")] == [
        f"input error: {message} does not cross the declared sides"
    ]


@pytest.mark.parametrize(
    "alg", [("edge-sqrt",), ("edge-general", "--s", "2"), ("offline-exact",)]
)
def test_store_and_color_rejects_a_same_side_edge(tmp_path, capsys, alg):
    # at this size edge-sqrt and edge-general store and color the whole
    # stream, as offline-exact does, against the declared sides
    stream = tmp_path / "s.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 2\ne 1 0\n")
    assert run_cli("run", str(stream), "--alg", *alg, "-o", str(tmp_path / "o.txt")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "declared color budget: 2" in err.splitlines()
    assert [line for line in err.splitlines() if line.startswith("input error:")] == [
        "input error: witness puts edge (1, 0) inside one side"
    ]


def test_offline_exact_on_a_general_header_exits_three_before_reading_edges(tmp_path, capsys):
    # no declared sides to color against: the pipeline is refused when it is
    # built, so the malformed line after the header is never reached
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text("H 3 0 2 edge 0 1\ne 0 1\ne 1 2\ne 2 0\nbogus\n")
    assert run_cli("run", str(stream), "--alg", "offline-exact", "-o", str(out)) == 3
    assert capsys.readouterr().err.splitlines() == [
        "input error: offline-exact needs declared sides; this header has n_offline 0"
    ]
    assert out.read_text() == ""


def test_offline_greedy_colors_a_same_side_edge(tmp_path, capsys):
    # greedy never checks sides, so the stream that the exact store-and-color
    # rejects above is colored within greedy's budget of 2 * 2 - 1
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 2\ne 1 0\n")
    assert run_cli("run", str(stream), "--alg", "offline-greedy", "-o", str(out)) == 0
    assert "declared color budget: 3" in capsys.readouterr().err.splitlines()
    assert run_cli("verify", str(stream), str(out), "--budget", "3") == 0
    assert "budget_ok: true" in capsys.readouterr().out.splitlines()


def test_verify_with_a_non_integer_trailer_field_exits_five(tmp_path, capsys):
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_text("H 2 2 2 edge 0 1\ne 0 2\n")
    out.write_text("c 0 2 0\nT 1 x\n")
    assert run_cli("verify", str(stream), str(out)) == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["parse error: output line 2: non-integer field in trailer"]


@pytest.mark.parametrize("command, code, prefix", [("run", 3, "input"), ("verify", 5, "parse")])
def test_a_stream_that_is_not_utf8_exits_without_a_traceback(tmp_path, capsys, command, code,
                                                             prefix):
    stream, out = tmp_path / "s.txt", tmp_path / "o.txt"
    stream.write_bytes(b"H 2 2 2 edge 0 1\ne 0 2 \xff\xfe\n")
    out.write_text("c 0 2 0\n")
    argv = ["run", str(stream), "--alg", "edge-sqrt", "-o", str(tmp_path / "r.txt")]
    if command == "verify":
        argv = ["verify", str(stream), str(out)]
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.endswith("invalid start byte")]
    assert len(lines) == 1 and lines[0].startswith(f"{prefix} error: ")
