"""Command line interface: routing, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planram import enumeration
from planram.cli import main
from planram.construct import SEED_NAMES, build_delta_witness, load_seed
from planram.formats import from_planar_code, to_planar_code

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(args, stdin=None, stdout=subprocess.PIPE):
    # the child finds planram in this checkout, whether or not the caller
    # put src on PYTHONPATH
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "planram.cli", *args],
        input=stdin, stdout=stdout, stderr=subprocess.PIPE, timeout=600,
        env={**os.environ, "PYTHONPATH": path})


def test_enumerate_graph6_stream():
    out = run(["enumerate", "--n", "5"])
    assert out.returncode == 0
    lines = out.stdout.decode().split()
    # one line per class, in canonical-form order rather than text order
    assert len(lines) == len(set(lines)) == 18


def test_verify_pr_lower_exit_zero():
    out = run(["verify", "pr-lower", "--wheel", "6"])
    assert out.returncode == 0
    cert = json.loads(out.stdout)
    assert cert["verdict"] == "verified"


def test_identity_pipe():
    seed = run(["construct", "seed", "--name", "cycle5"])
    out = run(["identity"], stdin=seed.stdout)
    assert out.returncode == 0
    assert out.stdout.decode().split() == ["0"]


def test_identity_flags_nonzero_residual():
    # K2 is a connected C4-free planar graph with residual 9
    out = run(["identity"], stdin=b"A_\n")
    assert out.returncode == 1
    assert out.stdout.decode().split() == ["9"]


def test_stats_pipe():
    seed = run(["construct", "seed", "--name", "fig10"])
    out = run(["stats"], stdin=seed.stdout)
    assert out.returncode == 0
    text = out.stdout.decode()
    assert "n=10" in text and "eps=16" in text


def test_stats_accepts_disconnected_input():
    # "A?" is the empty graph on 2 vertices; no embedding, so faces are "-"
    out = run(["stats"], stdin=b"A?\n")
    assert out.returncode == 0
    assert "faces=-" in out.stdout.decode()
    # "?" is the graph on no vertices, which has no embedding either
    out = run(["stats"], stdin=b"?\n")
    assert out.returncode == 0
    assert out.stdout == b"n=0 eps=0 degrees= tau=0 faces=-\n"


def test_disconnected_planar_code_reads_as_graph6_does():
    # two isolated vertices, as planar_code and as graph6
    for stdin in (b">>planar_code<<\x02\x00\x00", b"A?\n"):
        out = run(["stats"], stdin=stdin)
        assert (out.returncode, out.stdout) == (
            0, b"n=2 eps=0 degrees=0^2 tau=0 faces=-\n")
        for command in ("dual", "identity"):
            out = run([command], stdin=stdin)
            assert (out.returncode, out.stdout) == (64, b"")
            assert out.stderr == \
                b"error: embedding requires a connected graph\n"


def test_one_vertex_graph_is_plane():
    # K1 has no dart and one face around its vertex
    out = run(["stats"], stdin=b"@\n")
    assert (out.returncode, out.stdout) == (
        0, b"n=1 eps=0 degrees=0^1 tau=0 faces=0:1\n")
    out = run(["dual"], stdin=b"@\n")
    assert (out.returncode, out.stdout) == (0, b"?\n")
    # K1 is connected and C4-free; its residual 7*0 - 15*(1 - 2) is 15
    out = run(["identity"], stdin=b"@\n")
    assert (out.returncode, out.stdout) == (1, b"15\n")
    enc = run(["enumerate", "--n", "1", "--maximal-only", "--format",
               "planar_code"])
    assert (enc.returncode, enc.stdout) == (0, b">>planar_code<<\x01\x00")
    # K1 is the only class at order 1, so every class is maximal
    plain = run(["enumerate", "--n", "1", "--format", "planar_code"])
    assert (plain.returncode, plain.stdout) == (0, enc.stdout)
    out = run(["stats"], stdin=enc.stdout)
    assert (out.returncode, out.stdout) == (
        0, b"n=1 eps=0 degrees=0^1 tau=0 faces=0:1\n")


def test_dual_pipe():
    seed = run(["construct", "seed", "--name", "fig8a", "--format",
                "planar_code"])
    out = run(["dual"], stdin=seed.stdout)
    assert out.returncode == 0
    assert out.stdout.decode().strip()


def test_construct_grow_trace():
    out = run(["construct", "grow", "--n", "13", "--format", "trace"])
    assert out.returncode == 0
    lines = out.stdout.decode().splitlines()
    assert lines[0].startswith("seed ")


def test_usage_error_exit_code():
    out = run(["bogus"])
    assert out.returncode == 64
    out = run(["verify", "pr-upper", "--wheel", "6"])  # missing --host
    assert out.returncode == 64
    # only grow has a schedule to print
    for what in (["seed", "--name", "fig10"], ["witness", "--wheel", "5"]):
        out = run(["construct", *what, "--format", "trace"])
        assert out.returncode == 64, what
        assert out.stdout == b""
    # fact3 runs under the node budget, and pr-lower runs no search
    for args in (["fact", "--id", "fact3", "--long-running"],
                 ["pr-lower", "--wheel", "3", "--budget-nodes", "10"]):
        out = run(["verify", *args])
        assert out.returncode == 64, args
        assert out.stdout == b""


def test_planar_code_autodetect_roundtrip():
    enc = run(["enumerate", "--n", "6", "--format", "planar_code",
               "--mode", "triangulation"])
    assert enc.returncode == 0
    out = run(["stats"], stdin=enc.stdout)
    assert out.returncode == 0
    assert out.stdout.decode().count("n=6") == 2


def test_workers_below_one_is_a_usage_error():
    # a negative budget is a usage error too, not an exceeded budget
    for args in (["enumerate", "--n", "5"],
                 ["verify", "pr-upper", "--wheel", "6", "--host", "9"],
                 ["verify", "delta", "--n", "8"],
                 ["verify", "lemmas", "--n", "7"]):
        for flag, value in (("--workers", "0"), ("--budget-nodes", "-1")):
            out = run([*args, flag, value])
            assert out.returncode == 64, (args, flag)
            assert out.stdout == b""
            assert flag.encode() in out.stderr


def test_enumerate_takes_no_workers():
    # only verify still accepts --workers, for existing command lines
    out = run(["enumerate", "--n", "5", "--workers", "2"])
    assert out.returncode == 64
    assert out.stdout == b""
    assert b"--workers" in out.stderr


def test_enumerate_planar_code_needs_maximal_only_in_c4free_mode():
    out = run(["enumerate", "--n", "5", "--format", "planar_code"])
    assert out.returncode == 64
    assert out.stdout == b""
    assert b"connected" in out.stderr


def test_enumerate_maximal_only_planar_code():
    enc = run(["enumerate", "--n", "7", "--maximal-only", "--format",
               "planar_code"])
    assert enc.returncode == 0
    g6 = run(["enumerate", "--n", "7", "--maximal-only"])
    stats = run(["stats"], stdin=enc.stdout)
    assert stats.returncode == 0
    lines = stats.stdout.decode().splitlines()
    assert len(lines) == len(g6.stdout.split()) > 0
    assert all("faces=-" not in line for line in lines)


def payload(stdout):
    cert = json.loads(stdout)
    del cert["runtime_ms"]
    return cert


def test_workers_do_not_change_the_certificate():
    args = ["verify", "pr-upper", "--wheel", "6", "--host", "9"]
    one = run([*args, "--workers", "1"])
    three = run([*args, "--workers", "3"])
    assert one.returncode == three.returncode == 0
    assert payload(one.stdout) == payload(three.stdout)


@pytest.mark.parametrize("args, stdin", [
    (["stats"], b"zz~~"),
    (["dual"], b">>planar_code<<\x05\x02"),
    # K4 with every rotation in one cyclic order: a torus, not a plane
    (["dual"], b">>planar_code<<\x04\x02\x03\x04\x00\x01\x03\x04\x00"
               b"\x01\x02\x04\x00\x01\x02\x03\x00"),
    # the graph on no vertices has no plane embedding
    (["dual"], b"?\n"),
    (["identity"], b"?\n"),
    # K4 contains a C4, so the identity says nothing about it
    (["identity"], b"C~\n"),
    (["enumerate", "--n", "0"], None),
    (["enumerate", "--n", "70"], None),
    (["enumerate", "--mode", "triangulation", "--n", "-1"], None),
    (["enumerate", "--mode", "triangulation", "--n", "0"], None),
    (["enumerate", "--mode", "triangulation", "--n", "70"], None),
    (["verify", "pr-upper", "--wheel", "9", "--host", "5"], None),
    # no wheel has a rim below 3, and the wheel must fit in the host;
    # both are settled before the cap, the budget or the search
    (["verify", "pr-upper", "--wheel", "2", "--host", "12"], None),
    (["verify", "pr-upper", "--wheel", "20", "--host", "15"], None),
    (["verify", "pr-upper", "--wheel", "2", "--host", "9",
      "--budget-nodes", "0"], None),
    (["verify", "delta", "--n", "70"], None),
    # an order past 64 is a usage error, not a certificate past the cap
    (["verify", "pr-upper", "--wheel", "3", "--host", "70"], None),
    (["verify", "lemmas", "--n", "65"], None),
    # the lemma sweep starts at order 2: a smaller n would check nothing
    (["verify", "lemmas", "--n", "1"], None),
    (["verify", "lemmas", "--n", "-3"], None),
    (["construct", "seed", "--name", "cyclefoo"], None),
    (["construct", "seed", "--name", "cycle2"], None),
    (["construct", "seed", "--name", "cycle0"], None),
    (["construct", "seed", "--name", "cycle100"], None),
    # a file is no directory, so nothing can be written below it
    (["enumerate", "--n", "5", "--out", os.path.join(__file__, "x")],
     None),
], ids=["graph6", "planar_code", "torus", "dual-order0", "identity-order0",
        "identity-c4", "n0", "n70", "tri-n-1", "tri-n0", "tri-n70",
        "host-below-wheel", "rim2-past-cap", "wheel-past-cap",
        "rim2-no-budget", "delta70", "host70", "lemmas65", "lemmas-n1",
        "lemmas-n-3", "cyclefoo", "cycle2", "cycle0", "cycle100",
        "out-unwritable"])
def test_bad_input_is_a_usage_error(args, stdin):
    out = run(args, stdin=stdin)
    assert out.returncode == 64
    assert out.stdout == b""
    assert out.stderr.startswith(b"error: ")
    assert b"Traceback" not in out.stderr


def test_out_is_opened_before_the_search(monkeypatch, capsys):
    def search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(enumeration, "classes", search)
    assert main(["enumerate", "--n", "10",
                 "--out", os.path.join(__file__, "x")]) == 64
    assert capsys.readouterr().err.startswith("error: cannot write --out")


@pytest.mark.parametrize("name", SEED_NAMES)
def test_seed_planar_code_is_the_stored_rotation(name, capsysbinary):
    assert main(["construct", "seed", "--name", name,
                 "--format", "planar_code"]) == 0
    stream = capsysbinary.readouterr().out
    assert from_planar_code(stream) == [load_seed(name).rotation]


def test_grown_planar_code_is_the_grown_rotation(capsysbinary):
    assert main(["construct", "grow", "--n", "45",
                 "--format", "planar_code"]) == 0
    assert capsysbinary.readouterr().out == to_planar_code(
        [build_delta_witness(45).embedding.rotation])


@pytest.mark.parametrize("wheel", range(3, 8))
def test_witness_planar_code_is_the_built_rotation(wheel, capsysbinary):
    assert main(["construct", "witness", "--wheel", str(wheel),
                 "--format", "planar_code"]) == 0
    [rot] = from_planar_code(capsysbinary.readouterr().out)
    if wheel <= 6:
        built = load_seed(
            ("w3host", "fig12a", "fig12b", "fig12c")[wheel - 3]).rotation
    else:
        built = build_delta_witness(10).embedding.rotation
    assert rot == built


def test_infeasible_order_reports_its_own_reason():
    out = run(["enumerate", "--mode", "triangulation", "--n", "3"])
    assert out.returncode == 2
    assert b"orders supported" in out.stderr
    assert b"budget" not in out.stderr


@pytest.mark.parametrize("args", [
    ["verify", "delta", "--n", "9", "--budget-nodes", "10"],
    ["verify", "lemmas", "--n", "7", "--budget-nodes", "10"],
    ["verify", "fact", "--id", "fact1", "--budget-nodes", "10"],
    ["verify", "fact", "--id", "fact3", "--budget-nodes", "1000"],
], ids=["delta", "lemmas", "fact", "fact3"])
def test_budget_cut_prints_an_infeasible_certificate(args):
    out = run(args)
    assert out.returncode == 2
    cert = json.loads(out.stdout)
    assert cert["verdict"] == "infeasible"
    assert not cert["exhaustive"]


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


def assert_cannot_write(out):
    # 74, EX_IOERR: never 1, which means refuted, and no traceback
    assert out.returncode == 74
    assert b"Traceback" not in out.stderr
    assert b"error: cannot write output:" in out.stderr


def test_closed_pipe_exits_74():
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails with EPIPE
    try:
        out = run(["enumerate", "--n", "7"], stdout=write)
    finally:
        os.close(write)
    assert_cannot_write(out)


@needs_dev_full
def test_full_out_file_exits_74():
    out = run(["enumerate", "--n", "7", "--out", "/dev/full"])
    assert_cannot_write(out)


@needs_dev_full
def test_full_stdout_exits_74():
    # a verified claim whose certificate cannot be written
    with open("/dev/full", "wb") as full:
        out = run(["verify", "lemmas", "--n", "6"], stdout=full)
    assert_cannot_write(out)


def test_seed_help_names_every_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "seed", "--help"])
    assert exc.value.code == 0
    # argparse wraps the help, so compare word by word
    words = capsys.readouterr().out.replace(",", " ").split()
    assert all(name in words for name in SEED_NAMES)
    assert "{seeds}" not in words


def test_enumerate_does_not_load_construct():
    # the seeds and the witness growth are loaded by the construct
    # command only, so the search commands start without them
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, planram.cli, planram.enumeration; "
         "print('planram.construct' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path})
    assert loaded.stdout.strip() == "False"
