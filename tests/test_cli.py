import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
import tracemalloc
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path

import pytest

from jmokit import cli, pinopt, rectconcur, tripack


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_pins_solve_contest(capsys):
    code, out = run_cli(capsys, "pins", "solve", "--doubled-area", "4042", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["cost"] == 128
    assert env["status"] == "certified_optimal"
    assert env["lower_bound"] == 128
    assert env["inputs"] == {"doubled_area": 4042}
    assert sorted(env) == ["cost", "inputs", "lower_bound", "status", "subcommand", "timings",
                           "tool", "version", "witness", "witness_doubled_area"]


def test_pins_oracle(capsys):
    code, out = run_cli(capsys, "pins", "oracle", "--doubled-area", "2", "--radius", "3", "--json")
    assert code == 0
    assert json.loads(out)["cost"] == 3


def test_gcdset_check_failure_exits_one(capsys):
    code, out = run_cli(capsys, "gcdset", "check", "--elements", "2", "--json")
    assert code == 1
    env = json.loads(out)
    assert env["verdict"] is False
    assert env["witness_failure"] == [2, 1, 0]


def test_gcdset_check_success(capsys):
    code, out = run_cli(capsys, "gcdset", "check", "--elements", "6,14,15,35", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["verdict"] is True
    assert env["prime_count"] == 2


def test_gcdset_check_element_bound(capsys):
    # 10^12 itself is checked; one above it is refused before any factorizing
    code, out = run_cli(capsys, "gcdset", "check", "--elements", "2,1000000000000", "--json")
    assert code == 1 and json.loads(out)["witness_failure"] == [2, 1, 0]
    code, out = run_cli(capsys, "gcdset", "check", "--elements", "2,999999999989")
    assert (code, out) == (0, "gcd-perfect: yes (size 2)\nstructure: squarefree, k = 1\n")
    assert run_cli(capsys, "gcdset", "check", "--elements", "2,1000000000001")[0] == 2


def test_gcdset_construct_element_bound(capsys):
    # 999999999989 is the largest prime below 10^12, 1000000000039 the least above it
    code, out = run_cli(capsys, "gcdset", "construct", "--k", "1",
                        "--p", "999999999989", "--q", "2", "--json")
    assert code == 0 and json.loads(out)["elements"] == [2, 999999999989]
    assert cli.run(["gcdset", "construct", "--k", "1", "--p", "1000000000039", "--q", "2"]) == 2
    assert "element 1000000000039 is above 10^12" in capsys.readouterr().err


def test_pack_build_side_bound(capsys, monkeypatch):
    # the real bound admits L = 1224, too large to build here; at a bound
    # of 24 anchors, L = 6 ((2/3) 6^2 = 24) builds and L = 601/100 exits 2
    monkeypatch.setattr(tripack, "MAX_PACK_ANCHORS", 24)
    code, out = run_cli(capsys, "pack", "build", "--side", "6", "--json")
    assert code == 0 and json.loads(out)["report"]["count"] == 15
    assert cli.run(["pack", "build", "--side", "601/100"]) == 2
    # the message quotes the bound in force, not a literal
    assert ("side 601/100 is above the bound: (2/3)L^2 exceeds MAX_PACK_ANCHORS = 24 anchors"
            in capsys.readouterr().err)


def test_pins_oracle_radius_bound(capsys, monkeypatch):
    # at a bound of 3 the radius 3 is scanned and 4 exits 2 before any scan
    assert pinopt.MAX_ORACLE_RADIUS == 1000
    monkeypatch.setattr(pinopt, "MAX_ORACLE_RADIUS", 3)
    code, out = run_cli(capsys, "pins", "oracle", "--doubled-area", "2", "--radius", "3", "--json")
    assert code == 0 and json.loads(out)["cost"] == 3
    assert cli.run(["pins", "oracle", "--doubled-area", "2", "--radius", "4"]) == 2
    assert "radius 4 is above the bound MAX_ORACLE_RADIUS = 3\n" in capsys.readouterr().err


def test_pins_oracle_doubled_area_bound(capsys, monkeypatch):
    # D = 4042, the contest instance, takes about 6 s at radius 127; one
    # above the bound exits 2 before any scan, and the message quotes the
    # bound in force
    assert pinopt.MAX_ORACLE_DOUBLED_AREA == 4042
    assert cli.run(["pins", "oracle", "--doubled-area", "4043", "--radius", "100"]) == 2
    assert capsys.readouterr().err == (
        "error: doubled area 4043 is above the bound MAX_ORACLE_DOUBLED_AREA = 4042\n")
    monkeypatch.setattr(pinopt, "MAX_ORACLE_DOUBLED_AREA", 2)
    code, out = run_cli(capsys, "pins", "oracle", "--doubled-area", "2", "--radius", "3", "--json")
    assert code == 0 and json.loads(out)["cost"] == 3
    assert cli.run(["pins", "oracle", "--doubled-area", "3", "--radius", "3"]) == 2
    assert "doubled area 3 is above the bound MAX_ORACLE_DOUBLED_AREA = 2\n" in capsys.readouterr().err


def test_rect_batch_count_bound(capsys, monkeypatch):
    # 10^5 rows take seconds, and with --json about 110 MB; at a bound of 3
    # the count 3 is certified and 4 exits 2 before any configuration is
    # built.  Only --json holds the rows, so only its message names their size.
    assert rectconcur.MAX_BATCH_COUNT == 10**5
    monkeypatch.setattr(rectconcur, "MAX_BATCH_COUNT", 3)
    code, out = run_cli(capsys, "rect", "batch", "--count", "3", "--json")
    assert code == 0 and len(json.loads(out)["rows"]) == 3
    assert cli.run(["rect", "batch", "--count", "4"]) == 2
    assert capsys.readouterr().err == "error: --count must be <= 3, got 4\n"
    assert cli.run(["rect", "batch", "--count", "4", "--json"]) == 2
    assert capsys.readouterr().err == (
        "error: --count must be <= 3 (with --json each row is held, about 1 KB), got 4\n")


def test_gcdset_construct(capsys):
    code, out = run_cli(capsys, "gcdset", "construct", "--k", "2",
                        "--p", "2,3", "--q", "5,7", "--json")
    assert code == 0
    assert json.loads(out)["elements"] == [6, 14, 15, 35]


def test_gcdset_search_empty_is_success(capsys):
    code, out = run_cli(capsys, "gcdset", "search", "--size", "3", "--max", "100", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["count"] == 0 and env["sets"] == []


def test_gcdset_search_budget_exhaustion_is_usage_error(capsys):
    code, _ = run_cli(capsys, "gcdset", "search", "--size", "2", "--max", "100",
                      "--budget", "3")
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["nonsense"])
    assert exc.value.code == 2


ERROR_FILES = {
    "inf.txt": "inf\n" * 8,
    "solution.txt": "1\n2\n" * 4,  # the exact solution at n = 4
    "bad_entries.txt": "1\n2\nx\n2\n1\n2\n1\n2\n",
    "bad_packing.txt": "not a rational\n",
    # bad values after comments and blank lines: the error names the physical line
    "bad_entries_line5.txt": "# start\n1\n2\n\nx\n1\n2\n1\n2\n1\n",
    "bad_side.txt": "# side, then anchors\nside eight\n",
    "bad_anchor.txt": "10\n1 1\n\n1 y\n",
    "bad_table.txt": "# n value\n1 1\n2 x\n",
    "side_zero.txt": "0\n1 1\n",
    "side_negative.txt": "# side\n-3\n",
    # finite entries whose residuals overflow, above and below
    "huge_entries.txt": "1.7e308\n" * 8,
    "tiny_entries.txt": "1e-320\n" * 8,
    # fields past the 4300-digit bound: 1e4300 and 1e-4300 have 4301 digits
    "exponent_side.txt": "1e4301\n1 1\n",
    "exponent_x.txt": "10\n1E-4301 1\n",
    "digits_y3.txt": "10\n1 1 1e4300\n",
    "digits_y.txt": "10\n1 0." + "0" * 4299 + "1\n",
    "zero_denominator_side.txt": "1/0\n1 1\n",
    "zero_denominator_x.txt": "10\n1/0 1\n",
    "zero_denominator_y3.txt": "10\n1 1\n1 2 0/0\n",
    # f(1) has 2501 digits, so f(1)^2 would have more than 4300
    "big_value.tab": "1 1" + "0" * 2500 + "\n",
}


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("pack", "validate", "--input", "/nonexistent/file.txt"),
                     "cannot read /nonexistent/file.txt", id="missing-file"),
        pytest.param(("pack", "validate", "--input", "{tmp}/bad_packing.txt"),
                     "bad packing file:", id="malformed-packing"),
        pytest.param(("cyclic", "solve", "--n", "4", "--init", "{tmp}/bad_entries.txt"),
                     "bad entries file: line 3: could not convert", id="malformed-init"),
        pytest.param(("cyclic", "verify", "--input", "{tmp}/bad_entries_line5.txt"),
                     "bad entries file: line 5: could not convert", id="entries-line"),
        pytest.param(("pack", "validate", "--input", "{tmp}/bad_side.txt"),
                     "bad packing file: line 2: Invalid literal for Fraction: 'side eight'",
                     id="packing-side-line"),
        pytest.param(("pack", "validate", "--input", "{tmp}/bad_anchor.txt"),
                     "bad packing file: line 4: Invalid literal for Fraction: 'y'",
                     id="packing-anchor-line"),
        pytest.param(("funceq", "check", "--input", "{tmp}/bad_table.txt"),
                     "bad table file: line 3: invalid literal for int()", id="table-line"),
        pytest.param(("cyclic", "solve", "--n", "4", "--init", "{tmp}/inf.txt"),
                     "bad entries file: entries must be finite", id="inf-init"),
        pytest.param(("cyclic", "verify", "--input", "{tmp}/inf.txt"),
                     "bad entries file: entries must be finite", id="inf-entries"),
        pytest.param(("gcdset", "search", "--size", "2", "--max", "100", "--budget", "0"),
                     "search node budget exceeded (0 nodes)", id="budget-zero"),
        pytest.param(("gcdset", "search", "--size", "4", "--max", "0", "--budget", "-1"),
                     "node_budget must be >= 0, got -1", id="budget-negative"),
        pytest.param(("gcdset", "check", "--elements", "1000000000000000003,2"),
                     "element 1000000000000000003 is above 10^12", id="check-element-bound"),
        pytest.param(("gcdset", "construct", "--k", "1", "--p", "1000000000000000003",
                      "--q", "2"),
                     "element 1000000000000000003 is above 10^12", id="construct-element-bound"),
        pytest.param(("pack", "validate", "--input", "{tmp}/side_zero.txt"),
                     "bad packing file: side length must be positive", id="packing-side-zero"),
        pytest.param(("pack", "render", "--input", "{tmp}/side_negative.txt", "--svg",
                      "{tmp}/never.svg"),
                     "bad packing file: side length must be positive", id="packing-side-negative"),
        pytest.param(("pack", "build", "--side", "100000"),
                     "side 100000 is above the bound", id="pack-side-huge"),
        pytest.param(("pins", "oracle", "--doubled-area", "4", "--radius", "1001"),
                     "radius 1001 is above the bound", id="oracle-radius-bound"),
        pytest.param(("pins", "oracle", "--doubled-area", "20000", "--radius", "283"),
                     "doubled area 20000 is above the bound", id="oracle-area-bound"),
        pytest.param(("cyclic", "solve", "--n", "5", "--max-iter", "0"),
                     "max_iter must be >= 1, got 0", id="max-iter-zero"),
        pytest.param(("cyclic", "solve", "--n", "5", "--max-iter", "-5"),
                     "max_iter must be >= 1, got -5", id="max-iter-negative"),
        pytest.param(("pins", "solve", "--doubled-area", "5", "--cap", "5"),
                     "unrecognized arguments: --cap", id="no-cap"),
        pytest.param(("funceq", "trace", "--limit", "5", "--no-replay"),
                     "unrecognized arguments: --no-replay", id="no-skip-replay"),
        pytest.param(("funceq", "trace", "--limit", "100000001"),
                     "limit must be <= 100000000", id="trace-limit-bound"),
        pytest.param(("cyclic", "solve", "--n", "100001", "--seed", "3"),
                     "n must be <= 100000", id="cyclic-n-bound"),
        pytest.param(("cyclic", "solve", "--n", str(10**12)),
                     "n must be <= 100000", id="cyclic-n-huge"),
        pytest.param(("cyclic", "solve", "--n", "5", "--seed", "3", "--tol", "inf"),
                     "argument --tol", id="tol-inf"),
        pytest.param(("cyclic", "solve", "--n", "5", "--seed", "3", "--tol", "nan"),
                     "argument --tol", id="tol-nan"),
        pytest.param(("cyclic", "verify", "--input", "{tmp}/solution.txt", "--tol", "-1"),
                     "--tol must be >= 0, got -1.0", id="verify-tol-negative"),
        pytest.param(("funceq", "check", "--input", "{tmp}/big_value.tab", "--json"),
                     "bad table file: f(1) has more than 2150 digits", id="table-value-digits"),
        pytest.param(("rect", "batch", "--count", "100001"),
                     "--count must be <= 100000", id="rect-count-bound"),
        pytest.param(("rect", "batch", "--count", "3", "--rel-tol", "inf"),
                     "argument --rel-tol", id="rel-tol-inf"),
        pytest.param(("rect", "batch", "--count", "3", "--perturb", "nan"),
                     "argument --perturb", id="perturb-nan"),
        pytest.param(("rect", "batch", "--count", "3", "--perturb", "inf"),
                     "argument --perturb", id="perturb-inf"),
        pytest.param(("rect", "batch", "--count", "3", "--rel-tol", "0"),
                     "--rel-tol must be > 0, got 0.0", id="rel-tol-zero"),
        pytest.param(("rect", "batch", "--count", "3", "--rel-tol", "-1"),
                     "--rel-tol must be > 0, got -1.0", id="rel-tol-negative"),
        pytest.param(("rect", "batch", "--count", "3", "--perturb", "0"),
                     "--perturb must be > 0, got 0.0", id="perturb-zero"),
        pytest.param(("rect", "batch", "--count", "3", "--perturb", "-1.5", "--json"),
                     "--perturb must be > 0, got -1.5", id="perturb-negative"),
        pytest.param(("rect", "batch", "--count", "3", "--seed", "1", "--perturb", "5e-324"),
                     "--perturb 5e-324 is too small", id="perturb-underflow"),
        pytest.param(("rect", "batch", "--count", "2", "--perturb", "1e200", "--json"),
                     "--perturb 1e+200 is too large", id="perturb-huge-json"),
        pytest.param(("rect", "batch", "--count", "2", "--perturb", "1e200"),
                     "--perturb 1e+200 is too large", id="perturb-huge"),
        pytest.param(("cyclic", "verify", "--input", "{tmp}/huge_entries.txt", "--json"),
                     "huge_entries.txt overflow the residuals", id="entries-huge"),
        pytest.param(("cyclic", "verify", "--input", "{tmp}/tiny_entries.txt"),
                     "tiny_entries.txt overflow the residuals", id="entries-tiny"),
        pytest.param(("cyclic", "solve", "--n", "4", "--init", "{tmp}/huge_entries.txt"),
                     "huge_entries.txt overflow the residuals", id="init-huge"),
        pytest.param(("cyclic", "solve", "--n", "4", "--init", "{tmp}/tiny_entries.txt",
                      "--json"),
                     "tiny_entries.txt overflow the residuals", id="init-tiny"),
        pytest.param(("pack", "validate", "--input", "{tmp}/exponent_side.txt"),
                     "line 1: side has a decimal exponent above 4300", id="packing-side-exponent"),
        pytest.param(("pack", "validate", "--input", "{tmp}/exponent_x.txt"),
                     "line 2: x has a decimal exponent above 4300", id="packing-x-exponent"),
        pytest.param(("pack", "render", "--input", "{tmp}/digits_y3.txt", "--svg",
                      "{tmp}/never.svg"),
                     "line 2: y3 needs more than 4300 digits as p/q", id="packing-y3-digits"),
        pytest.param(("pack", "validate", "--input", "{tmp}/digits_y.txt"),
                     "line 2: y needs more than 4300 digits as p/q", id="packing-y-digits"),
        pytest.param(("pack", "build", "--side", "8", "--margin", "1e4301"),
                     "bad rational: --margin has a decimal exponent above 4300",
                     id="margin-exponent"),
        pytest.param(("pack", "build", "--side", "1/0"),
                     "error: bad rational: --side has a zero denominator\n",
                     id="side-zero-denominator"),
        pytest.param(("pack", "build", "--side", "8", "--margin", "1/0"),
                     "error: bad rational: --margin has a zero denominator\n",
                     id="margin-zero-denominator"),
        pytest.param(("pack", "validate", "--input", "{tmp}/zero_denominator_side.txt"),
                     "bad packing file: line 1: side has a zero denominator\n",
                     id="packing-side-zero-denominator"),
        pytest.param(("pack", "validate", "--input", "{tmp}/zero_denominator_x.txt"),
                     "bad packing file: line 2: x has a zero denominator\n",
                     id="packing-x-zero-denominator"),
        pytest.param(("pack", "render", "--input", "{tmp}/zero_denominator_y3.txt", "--svg",
                      "{tmp}/never.svg"),
                     "bad packing file: line 3: y3 has a zero denominator\n",
                     id="packing-y3-zero-denominator"),
    ],
)
def test_usage_errors_exit_two(capsys, tmp_path, argv, message):
    # exit 2, nothing on stdout, and one message naming the input
    for name, text in ERROR_FILES.items():
        (tmp_path / name).write_text(text)
    try:
        code = cli.run([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    except SystemExit as exc:  # argparse rejects an argument by exiting
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "argv, kind",
    [
        pytest.param(("funceq", "check", "--input", "{file}"), "table", id="funceq-check"),
        pytest.param(("pack", "validate", "--input", "{file}"), "packing", id="pack-validate"),
        pytest.param(("pack", "render", "--input", "{file}", "--svg", "{tmp}/never.svg"),
                     "packing", id="pack-render"),
        pytest.param(("cyclic", "verify", "--input", "{file}", "--json"), "entries",
                     id="cyclic-verify"),
        pytest.param(("cyclic", "solve", "--n", "4", "--init", "{file}"), "entries",
                     id="cyclic-init"),
    ],
)
def test_non_utf8_files_exit_two_naming_their_kind(capsys, tmp_path, argv, kind):
    # byte 0xff at offset 6 cannot start a UTF-8 sequence
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"1 1\n2 \xff\n")
    argv = [arg.replace("{file}", str(path)).replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = call_outputs(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: bad {kind} file: {path} is not UTF-8 (byte 6: invalid start byte)\n"
    assert not (tmp_path / "never.svg").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("cyclic", "solve", "--n", "4", "--tol", "0"),
                     "tol must be positive\n", id="cyclic-tol-zero"),
        pytest.param(("cyclic", "solve", "--n", "5", "--init", "{tmp}/eight.ent"),
                     "init has n = 4, expected 5\n", id="cyclic-init-size"),
        pytest.param(("gcdset", "construct", "--k", "-1"),
                     "k must be nonnegative\n", id="construct-k-negative"),
        pytest.param(("pins", "oracle", "--doubled-area", "0", "--radius", "3"),
                     "doubled_area must be >= 1\n", id="oracle-area-zero"),
        pytest.param(("pack", "build", "--side", "6", "--out", "{tmp}"),
                     "cannot write ", id="pack-out-directory"),
    ],
)
def test_layer_refusals_exit_two_with_one_error_line(capsys, tmp_path, argv, message):
    # refusals raised inside the layers: exit 2, nothing on stdout, and one
    # stderr line that starts with the message
    (tmp_path / "eight.ent").write_text("1.0\n2.0\n" * 4)
    code, out, err = call_outputs(capsys, [arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


def test_non_finite_envelope_exits_two(capsys, monkeypatch):
    # NaN and infinities are not JSON: a value that no handler check catches
    # is refused when the envelope is dumped, with nothing printed
    monkeypatch.setattr(pinopt, "oracle_min_moves", lambda doubled_area, radius: math.nan)
    code, out, err = call_outputs(capsys, ("pins", "oracle", "--doubled-area", "2",
                                           "--radius", "3", "--json"))
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert "error: the report holds a non-finite number" in err


def test_pack_build_validate_roundtrip(capsys, tmp_path):
    out = tmp_path / "packing.txt"
    code, _ = run_cli(capsys, "pack", "build", "--side", "6", "--out", str(out))
    assert code == 0
    code, text = run_cli(capsys, "pack", "validate", "--input", str(out), "--json")
    assert code == 0
    env = json.loads(text)
    assert env["report"]["valid"] is True
    assert env["report"]["count"] == 15


def test_pack_render(capsys, tmp_path):
    packing = tmp_path / "p.txt"
    svg = tmp_path / "p.svg"
    run_cli(capsys, "pack", "build", "--side", "5", "--out", str(packing))
    code, _ = run_cli(capsys, "pack", "render", "--input", str(packing), "--svg", str(svg))
    assert code == 0
    doc = xml.dom.minidom.parse(str(svg))
    polygons = doc.getElementsByTagName("polygon")
    # Delta plus one triangle and one hexagon per anchor
    count = json.loads(run_cli(capsys, "pack", "validate", "--input", str(packing), "--json")[1])
    assert len(polygons) == 1 + 2 * count["report"]["count"]


def test_pack_render_empty_packing(capsys, tmp_path):
    packing = tmp_path / "empty.txt"
    packing.write_text("8\n")
    svg = tmp_path / "empty.svg"
    code, _ = run_cli(capsys, "pack", "render", "--input", str(packing), "--svg", str(svg))
    assert code == 0
    doc = xml.dom.minidom.parse(str(svg))
    assert len(doc.getElementsByTagName("polygon")) == 1  # Delta only


# SHA-256 of pack outputs, recorded before Sqrt3 moved to its integer form.
# Only an announced envelope or SVG change (a version bump included) may
# re-record them.
PACK_GOLDEN_SHA256 = {
    "envelope": "176a7bfe16494aa36ba6c06975c379c676cf09fc9d73810e392e349fc2efcd58",
    "build.svg": "a4ac45cd5034b78e6c81f09b10ef4bdd562f34998b7d05e9f1f43388f426049e",
    "hand.svg": "fd32be34054fa49aef6a2043cbac69b5a5a1a8ee88381475c47b4e84d72c2313",
}
# odd denominators and sqrt(3) parts in every anchor; render does not validate
HAND_PACKING = "25/3\n3 1/5 3/7\n9/2 0 5/9\n17/3 -1/3 7/9\n"


def test_pack_outputs_match_golden_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    build = ("pack", "build", "--side", "29/2", "--margin", "1/2")
    code, envelope = run_cli(capsys, *build, "--json")
    assert code == 0
    run_cli(capsys, *build, "--out", "build.txt")
    Path("hand.txt").write_text(HAND_PACKING)
    for name in ("build", "hand"):
        code, _ = run_cli(capsys, "pack", "render", "--input", f"{name}.txt", "--svg", f"{name}.svg")
        assert code == 0
    digests = {"envelope": hashlib.sha256(envelope.encode()).hexdigest()}
    digests |= {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
                for name in ("build.svg", "hand.svg")}
    assert digests == PACK_GOLDEN_SHA256


# SHA-256 of rect outputs, recorded before the float kernel became straight-line
# arithmetic; keyed by (count, seed, perturb) and then by output kind.  Only an
# announced envelope or SVG change (a version bump included) may re-record them.
RECT_GOLDEN_SHA256 = {
    ("1", "0", "1.0"): {
        "human": "14170b8599cb00e0fd4590d4a57acd1eb7d36a792e07291cda354cfcc1384512",
        "json": "9f8869236b094921157345b706e00fa75a35acd443d48a36b59d6ff6fcb5c514"},
    ("40", "7", "1.0"): {
        "human": "d66fdc5e7f5ef605388f82eb39480bf775afe3b08ec17de0da883ac5a02e877c",
        "json": "e17b0a7b64738efed2489ff18c08cb8744c4252297c5d55c5ea904fa99be8638"},
    ("40", "7", "0.9"): {
        "human": "b4a39e4e7e3b352927efaf4e8a78bfdf8bd4b09ee55674635163df2a6b8e4951",
        "json": "7573a659c473d63f75c015451260d8870b0d7595f0dc8f6c1f27013251d65483"},
    ("25", "99", "0.9"): {
        "human": "2f3da594a58918e50a14fd18d8ea4c95c2c9c50293a2b63b37de1338f0b60378",
        "json": "355befcf824ba742b0537503fbfb9096868cffd3532d95fda6647f690d18f81a"},
    ("60", "2021", "1.25"): {
        "human": "3c890490140795c7cd4b9fc3101128db228e86f7dde7b1440c779f59a0540688",
        "json": "21c55bd402a84ec91450e0e4518c445bc7cd7447577a875f94da13ee6e458c32"},
    ("300", "123456", "1.25"): {
        "human": "4ff72ded54d84104f7528967484c36fda8bf4ccc544930b775629bac8a535b39",
        "json": "7f4ed93a0799f9facbd03beffd6fdc05da4b76d59c0750248d69aeb7ef2613ab"},
}
RECT_RENDER_GOLDEN_SHA256 = "da65e5b72b29db658a28141f4fab83f77ef6074d6d384d265236484c26f89875"


def test_rect_outputs_match_golden_bytes(capsys, tmp_path):
    digests = {}
    for count, seed, perturb in RECT_GOLDEN_SHA256:
        batch = ("rect", "batch", "--count", count, "--seed", seed, "--perturb", perturb)
        outputs = {"human": run_cli(capsys, *batch), "json": run_cli(capsys, *batch, "--json")}
        for code, _ in outputs.values():
            assert code == (0 if perturb == "1.0" else 1)
        digests[count, seed, perturb] = {
            kind: hashlib.sha256(out.encode()).hexdigest() for kind, (_, out) in outputs.items()}
    assert digests == RECT_GOLDEN_SHA256
    svg = tmp_path / "rect.svg"
    assert run_cli(capsys, "rect", "render", "--seed", "3", "--svg", str(svg))[0] == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == RECT_RENDER_GOLDEN_SHA256


def test_cyclic_solve_and_verify_roundtrip(capsys, tmp_path):
    entries = tmp_path / "solution.txt"
    code, out = run_cli(capsys, "cyclic", "solve", "--n", "4", "--seed", "7",
                        "--out", str(entries), "--json")
    assert code == 0
    env = json.loads(out)
    assert env["converged"] is True
    assert env["entries"][0] == pytest.approx(1.0, abs=1e-7)
    assert env["entries"][1] == pytest.approx(2.0, abs=1e-7)
    code, out = run_cli(capsys, "cyclic", "verify", "--input", str(entries), "--json")
    assert code == 0
    env = json.loads(out)
    assert env["residual_max_abs"] <= 1e-8
    assert env["minmax"]["ok"] is True


def test_cyclic_solve_reports_the_iteration_it_stalled_at(capsys, tmp_path):
    # the first Newton step from 1e200 overflows to a NaN step, so the line
    # search stalls at iteration 1, not at --max-iter
    entries = tmp_path / "huge_start.txt"
    entries.write_text("1e200\n" * 8)
    code, out = run_cli(capsys, "cyclic", "solve", "--n", "4", "--init", str(entries),
                        "--max-iter", "2000")
    assert (code, out) == (1, "n = 4: DID NOT CONVERGE in 1 iteration(s), residual 1.000e+200\n")


def test_cyclic_verify_rejects_non_solution(capsys, tmp_path):
    entries = tmp_path / "bad.txt"
    entries.write_text("\n".join(["1.0"] * 8) + "\n")
    code, out = run_cli(capsys, "cyclic", "verify", "--input", str(entries), "--json")
    assert code == 1
    assert json.loads(out)["residual_max_abs"] == 1.0


def test_funceq_check_constant_table(capsys, tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{n} 1\n" for n in range(1, 101)))
    code, out = run_cli(capsys, "funceq", "check", "--input", str(table), "--json")
    assert code == 0
    assert json.loads(out)["violation_count"] == 0


def test_funceq_check_mutated_table(capsys, tmp_path):
    lines = {n: 1 for n in range(1, 11)}
    lines[5] = 2
    table = tmp_path / "table.txt"
    table.write_text("".join(f"{n} {v}\n" for n, v in lines.items()))
    code, out = run_cli(capsys, "funceq", "check", "--input", str(table), "--json")
    assert code == 1
    env = json.loads(out)
    assert env["violation_count"] >= 1
    assert env["violations"][0]["kind"] == "sum_rule"


def test_funceq_check_human_lines_list_twenty_violations(capsys, tmp_path):
    # a table of 2s breaks both rules 91 times up to 200; the human report
    # lists the first 20 and counts the rest
    table = tmp_path / "twos.txt"
    table.write_text("".join(f"{n} 2\n" for n in range(1, 201)))
    code, out = run_cli(capsys, "funceq", "check", "--input", str(table))
    lines = out.splitlines()
    assert (code, len(lines)) == (1, 22)
    assert lines[0] == "table up to 200: 91 violation(s)"
    assert lines[-1] == "  ... (71 more)"


def test_timings_add_an_elapsed_line(capsys):
    code, out = run_cli(capsys, "pins", "solve", "--doubled-area", "7", "--timings")
    lines = out.splitlines()
    assert (code, len(lines)) == (0, 3)
    assert lines[0] == "doubled area 7: cost 6 (certified_optimal, lower bound 6)"
    label, seconds, unit = lines[2].split()
    assert (label, unit) == ("elapsed:", "s") and float(seconds) >= 0


@contextlib.contextmanager
def address_space_headroom(extra_bytes):
    """Cap this process's address space at its current size plus extra_bytes,
    so that a runaway allocation raises MemoryError instead of exhausting the
    machine."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    used = int(Path("/proc/self/statm").read_text().split()[0]) * resource.getpagesize()
    resource.setrlimit(resource.RLIMIT_AS, (used + extra_bytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def test_funceq_check_huge_sparse_table_exits_two(capsys, tmp_path):
    # one line naming n = 10^9: the missing n = 1 is found before any allocation
    table = tmp_path / "table.txt"
    table.write_text("1000000000 1\n")
    with address_space_headroom(2**30):
        code = cli.run(["funceq", "check", "--input", str(table)])
    assert code == 2
    assert "table has no value for n = 1" in capsys.readouterr().err


def test_funceq_check_rejects_nonpositive_n(capsys, tmp_path):
    table = tmp_path / "table.txt"
    for text in ("0 5\n1 1\n", "-5 1\n"):
        table.write_text(text)
        assert cli.run(["funceq", "check", "--input", str(table)]) == 2
        assert "is not a positive integer" in capsys.readouterr().err


def test_funceq_trace(capsys):
    code, out = run_cli(capsys, "funceq", "trace", "--limit", "50", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["steps"] == 50
    assert env["replay_ok"] is True


def test_rect_batch_passes(capsys):
    code, out = run_cli(capsys, "rect", "batch", "--count", "5", "--seed", "1", "--json")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_rect_batch_perturbed_fails(capsys):
    code, out = run_cli(capsys, "rect", "batch", "--count", "5", "--seed", "1",
                        "--perturb", "1.05", "--json")
    assert code == 1
    env = json.loads(out)
    assert env["all_pass"] is False
    assert all(r["line_defect_rel"] > 1e-4 for r in env["rows"])


def test_rect_batch_without_json_streams_its_certificates(capsys):
    # the two human lines need only the worst row, so no certificate or row
    # is held: 2,000 rows stay far below the 0.4 MB their certificates fill
    run_cli(capsys, "rect", "batch", "--count", "1")  # parser and imports
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "rect", "batch", "--count", "2000", "--seed", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(out.splitlines()) == 2
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("count", ["0", "-3"])
def test_rect_batch_rejects_nonpositive_count(capsys, count):
    code = cli.run(["rect", "batch", "--count", count])
    assert code == 2
    assert "--count" in capsys.readouterr().err


def test_rect_render(capsys, tmp_path):
    svg = tmp_path / "rect.svg"
    code, _ = run_cli(capsys, "rect", "render", "--seed", "3", "--svg", str(svg))
    assert code == 0
    doc = xml.dom.minidom.parse(str(svg))
    assert len(doc.getElementsByTagName("circle")) >= 4  # 3 circles + point P
    assert len(doc.getElementsByTagName("line")) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("pins", "solve", "--doubled-area", "4042", "--json"),
        ("gcdset", "search", "--size", "2", "--max", "30", "--json"),
        ("cyclic", "solve", "--n", "6", "--seed", "3", "--json"),
        ("pack", "build", "--side", "8", "--json"),
        ("rect", "batch", "--count", "10", "--seed", "42", "--json"),
        ("funceq", "trace", "--limit", "100", "--json"),
    ],
)
def test_json_output_is_deterministic(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    env = json.loads(first[1])
    for key in ("tool", "version", "subcommand", "inputs", "timings"):
        assert key in env
    assert env["timings"] is None


def json_dumps(value):
    """The layout the envelope writer must reproduce byte for byte."""
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


# quotes, backslashes, control characters, non-ASCII, an astral character
# and a lone surrogate: everything json escapes differently
STRING_CHARS = ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
                "é", "€", " ", "\U0001F600", "\ud800", "a", "Z", " ", "0", ":", ","]
FLOATS = [0.0, -0.0, 0.1, -0.1, 1 / 3, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
          1e300, -1e300, 1.7976931348623157e308, 1e16, 1e-7, 123456789.0, 2.5]
INTS = [0, 1, -1, 2**63, -(2**63) - 1, 10**30, -(10**40), 7**100]


def random_string(rng):
    return "".join(rng.choice(STRING_CHARS) for _ in range(rng.randrange(6)))


def random_float(rng):
    if rng.random() < 0.5:
        return rng.choice(FLOATS)
    while True:  # any finite bit pattern, subnormals included
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            return value


def random_value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.choice(INTS) if rng.random() < 0.3 else rng.randrange(-10**6, 10**6)
    if kind == 2:
        return random_float(rng)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:  # scalars of one type, as envelopes hold them
        make = rng.choice([random_float, lambda r: r.randrange(-99, 99), random_string])
        return [make(rng) for _ in range(rng.randrange(5))]
    if kind == 5:
        return rng.choice([{}, []])
    if kind == 6:
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {random_string(rng): random_value(rng, depth + 1) for _ in range(rng.randrange(6))}


def random_key(rng):
    # braces, which the records writer's str.format template must escape
    return random_string(rng) + rng.choice(["", "{", "}", "{}", "{0}", "}{", "{{x}}", "{:>9}"])


def random_column(rng):
    """A maker of one column's cells: one scalar type, scalar lists of one
    length or of several, or (rarely) cells of mixed types or nested lists."""
    scalars = [random_float, random_string, lambda r: r.random() < 0.5, lambda r: None,
               lambda r: r.choice(INTS) if r.random() < 0.2 else r.randrange(-99, 99)]
    make = rng.choice(scalars)
    kind = rng.randrange(10)
    if kind == 0:  # equal-length lists, zero length included
        width = rng.randrange(4)
        return lambda r: [make(r) for _ in range(width)]
    if kind == 1:  # unequal lengths
        return lambda r: [make(r) for _ in range(r.randrange(3))]
    if kind == 2:  # mixed types: bool and int, int and float, str and None, ...
        other = rng.choice(scalars)
        return lambda r: (make if r.random() < 0.7 else other)(r)
    if kind == 3:  # a list holding a container
        return lambda r: [make(r), r.choice([[], {}, [make(r)]])]
    return make


def random_records(rng):
    """A list of dicts sharing one key set, with now and then a non-finite
    float, or a row with a key more or less than the others."""
    columns = {random_key(rng): random_column(rng) for _ in range(rng.randrange(1, 6))}
    rows = [{key: make(rng) for key, make in columns.items()}
            for _ in range(rng.randrange(1, 9))]
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2])):
        row = rng.choice(rows)
        row[rng.choice(list(row))] = rng.choice([math.nan, math.inf, -math.inf])
    if rng.random() < 0.1:
        rng.choice(rows)[random_key(rng) + "+"] = 0.5
    if rng.random() < 0.1:
        row = rng.choice(rows)
        del row[rng.choice(list(row))]
    return rows


def json_outcome(write, value):
    """The text write gives for value, or its error's type and message."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_json_writer_matches_json_dumps_on_random_values():
    rng = random.Random(19)
    for _ in range(3000):
        value = random_value(rng, 0)
        assert cli._json(value) == json_dumps(value)
    # the writer starts from a dict of mixed containers, as _emit does
    for _ in range(300):
        env = {random_string(rng): random_value(rng, 1) for _ in range(rng.randrange(1, 8))}
        assert cli._json(env) == json_dumps(env)
    # lists of records, written column by column when their shape allows it
    columnar = 0
    for _ in range(3000):
        value = {"rows": random_records(rng)}
        assert json_outcome(cli._json, value) == json_outcome(json_dumps, value)
        columnar += cli._records(value["rows"], "  ") is not None
    assert columnar > 700  # of 3000 lists; the others take the per-item path
    # json names the non-finite float it meets first, row by row: inf here,
    # although the column "a" that sorts first holds a NaN
    rows = [{"a": 1.0, "b": math.inf}, {"a": math.nan, "b": 2.0}]
    assert json_outcome(cli._json, rows) == json_outcome(json_dumps, rows) == (
        ValueError, "Out of range float values are not JSON compliant: inf")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_refuses_non_finite_floats_with_json_wording(bad):
    for value in (bad, {"a": bad}, {"rows": [1.0, bad]}, [1, "x", [bad]], [None, bad]):
        with pytest.raises(ValueError) as ours:
            cli._json(value)
        with pytest.raises(ValueError) as theirs:
            json_dumps(value)
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value) == f"Out of range float values are not JSON compliant: {bad!r}"


class Real(float):
    pass


@pytest.mark.parametrize("value", [(1, 2), {1, 2}, Fraction(1, 3), Real(1.5), b"x",
                                   {1: "int key"}, {"a": [1, (2,)]}, [[object()]]],
                         ids=["tuple", "set", "fraction", "float-subclass", "bytes",
                              "int-key", "nested-tuple", "object"])
def test_json_writer_refuses_types_envelopes_do_not_hold(value):
    with pytest.raises(TypeError):
        cli._json(value)


# every subcommand exercised in this file, in an order where each file is
# written before it is read
ENVELOPE_CALLS = [
    ("pins", "solve", "--doubled-area", "4042"),
    ("pins", "oracle", "--doubled-area", "2", "--radius", "3"),
    ("gcdset", "check", "--elements", "6,14,15,35"),
    ("gcdset", "check", "--elements", "2"),
    ("gcdset", "construct", "--k", "2", "--p", "2,3", "--q", "5,7"),
    ("gcdset", "search", "--size", "2", "--max", "30"),
    ("gcdset", "search", "--size", "3", "--max", "100"),
    ("pack", "build", "--side", "6", "--out", "{tmp}/p.txt"),
    ("pack", "build", "--side", "29/2", "--margin", "1/2", "--timings"),
    ("pack", "validate", "--input", "{tmp}/p.txt"),
    ("pack", "validate", "--input", "{tmp}/tiny_side.txt"),
    ("pack", "render", "--input", "{tmp}/p.txt", "--svg", "{tmp}/p.svg"),
    ("cyclic", "solve", "--n", "4", "--seed", "7", "--out", "{tmp}/c.ent"),
    ("cyclic", "solve", "--n", "4", "--init", "{tmp}/huge_start.ent", "--max-iter", "20"),
    ("cyclic", "verify", "--input", "{tmp}/c.ent"),
    ("cyclic", "verify", "--input", "{tmp}/ones.ent"),
    ("funceq", "check", "--input", "{tmp}/mutated.tab"),
    ("funceq", "trace", "--limit", "50"),
    ("rect", "batch", "--count", "5", "--seed", "1", "--perturb", "1.05"),
    ("rect", "batch", "--count", "300", "--seed", "123456"),
    ("rect", "render", "--seed", "3", "--svg", "{tmp}/r.svg"),
]


def test_every_envelope_is_in_the_json_dumps_layout(capsys, tmp_path):
    (tmp_path / "tiny_side.txt").write_text("1e-400\n1 1\n")
    (tmp_path / "huge_start.ent").write_text("1e200\n" * 8)
    (tmp_path / "ones.ent").write_text("1.0\n" * 8)
    (tmp_path / "mutated.tab").write_text("".join(f"{n} {2 if n == 5 else 1}\n"
                                                  for n in range(1, 11)))
    for argv in ENVELOPE_CALLS:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv] + ["--json"]
        code, out, err = call_outputs(capsys, argv)
        assert code in (0, 1) and err == "", argv
        assert out == json_dumps(json.loads(out)) + "\n", argv


def call_outputs(capsys, argv):
    """Exit code, stdout and stderr of one cli.run call, argparse exits included."""
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


SHARED_PARSER_SEQUENCE = [
    ("pins", "solve", "--doubled-area", "x"),
    ("--version",),
    ("cyclic", "solve", "--n", "4", "--seed", "3", "--json"),
    ("cyclic", "solve", "--n", "4", "--json"),
    ("gcdset", "search", "--size", "2", "--max", "30", "--budget", "5000", "--json"),
    ("gcdset", "search", "--size", "2", "--max", "30", "--json"),
    ("pins", "solve", "--doubled-area", "4042", "--json"),
]


def test_shared_parser_leaks_nothing_between_calls(capsys, monkeypatch):
    # one parser per process: each call must read as if it had a parser of its own
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [call_outputs(capsys, argv) for argv in SHARED_PARSER_SEQUENCE]
    shared = [call_outputs(capsys, argv) for argv in SHARED_PARSER_SEQUENCE]
    assert shared == fresh
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0]
    assert json.loads(shared[3][1])["inputs"] == {
        "n": 4, "seed": None, "init": None, "tol": 1e-10, "max_iter": 100, "out": None}
    assert json.loads(shared[5][1])["inputs"] == {"size": 2, "max": 30, "budget": None}
    assert json.loads(shared[6][1])["inputs"] == {"doubled_area": 4042}


GROUP_ACTIONS = {
    "pins": ("solve", "oracle"),
    "gcdset": ("check", "construct", "search"),
    "pack": ("build", "validate", "render"),
    "cyclic": ("solve", "verify"),
    "funceq": ("check", "trace"),
    "rect": ("batch", "render"),
}


fresh_parser = cli._build_parser.__wrapped__  # a new parser on each call, every group unbuilt


def parser_with_every_group():
    parser = fresh_parser()
    for group in cli._GROUPS:
        cli._add_actions(parser, [group])
    return parser


def test_groups_built_on_demand_read_as_if_built_up_front(capsys, monkeypatch):
    # run() adds only the action parsers of the group argv names; every help
    # and usage text must be the one a fully built parser gives
    assert set(GROUP_ACTIONS) == set(cli._GROUPS)
    argvs = [("-h",), ("nogroup",), ("pins", "nope")]
    for group, actions in GROUP_ACTIONS.items():
        argvs += [(group, "-h"), (group,), *((group, action, "-h") for action in actions)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", fresh_parser)
        on_demand = [call_outputs(capsys, argv) for argv in argvs]
        patch.setattr(cli, "_build_parser", parser_with_every_group)
        up_front = [call_outputs(capsys, argv) for argv in argvs]
    assert on_demand == up_front
    assert {code for code, _, _ in on_demand} == {0, 2}
    parser = fresh_parser()
    cli._add_actions(parser, ["pins", "solve"])
    assert set(parser.unbuilt) == set(GROUP_ACTIONS) - {"pins"}


# each action's usage line at a width that wraps none of them; --json and
# --timings come after the action's own arguments
USAGE_LINES = {
    ("pins", "solve"): "usage: jmokit pins solve [-h] --doubled-area DOUBLED_AREA [--json] [--timings]",
    ("pins", "oracle"): "usage: jmokit pins oracle [-h] --doubled-area DOUBLED_AREA --radius RADIUS"
                        " [--json] [--timings]",
    ("gcdset", "check"): "usage: jmokit gcdset check [-h] --elements ELEMENTS [--json] [--timings]",
    ("gcdset", "construct"): "usage: jmokit gcdset construct [-h] --k K [--p P] [--q Q]"
                             " [--json] [--timings]",
    ("gcdset", "search"): "usage: jmokit gcdset search [-h] --size SIZE --max MAX [--budget BUDGET]"
                          " [--json] [--timings]",
    ("pack", "build"): "usage: jmokit pack build [-h] --side SIDE [--margin MARGIN] [--out OUT]"
                       " [--json] [--timings]",
    ("pack", "validate"): "usage: jmokit pack validate [-h] --input INPUT [--json] [--timings]",
    ("pack", "render"): "usage: jmokit pack render [-h] --input INPUT --svg SVG [--json] [--timings]",
    ("cyclic", "solve"): "usage: jmokit cyclic solve [-h] --n N [--seed SEED] [--init INIT] [--tol TOL]"
                         " [--max-iter MAX_ITER] [--out OUT] [--json] [--timings]",
    ("cyclic", "verify"): "usage: jmokit cyclic verify [-h] --input INPUT [--tol TOL] [--json] [--timings]",
    ("funceq", "check"): "usage: jmokit funceq check [-h] --input INPUT [--json] [--timings]",
    ("funceq", "trace"): "usage: jmokit funceq trace [-h] --limit LIMIT [--json] [--timings]",
    ("rect", "batch"): "usage: jmokit rect batch [-h] [--count COUNT] [--seed SEED] [--perturb PERTURB]"
                       " [--rel-tol REL_TOL] [--json] [--timings]",
    ("rect", "render"): "usage: jmokit rect render [-h] [--seed SEED] --svg SVG [--json] [--timings]",
}


def test_every_action_usage_line_is_pinned(monkeypatch):
    # usage lines only: the help text's section headings differ across Python versions
    monkeypatch.setenv("COLUMNS", "1000")
    parser = parser_with_every_group()
    usage = {key: p.format_usage() for key, (p, _) in parser.direct.items()}
    assert usage == {key: line + "\n" for key, line in USAGE_LINES.items()}


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

# argvs at the edge of the direct parse: an abbreviation, --opt=value, values
# and stray arguments that start with - or not, help and version after the
# action, a repeated option and a missing value
PARSE_EDGE_CASES = [
    ("pins", "solve", "--doubled", "4042", "--json"),
    ("pins", "solve", "--doubled-area=4042", "--json"),
    ("pins", "solve", "--doubled-area", "-5"),
    ("pins", "solve", "--doubled-area", "4042", "extra"),
    ("pins", "solve", "--doubled-area", "4042", "--version"),
    ("pins", "solve", "--doubled-area", "4042", "-h"),
    ("pins", "solve", "--=x"),
    ("pins", "solve", "--doubled-area", "4042", "--"),
    ("--", "pins", "solve", "--doubled-area", "4042"),
    ("pins", "solve", "--doubled-area", "1", "--doubled-area", "4042", "--json"),
    ("gcdset", "construct", "--k", "1", "--p", "2", "--q", "--json"),
]


def test_direct_parse_reads_as_the_whole_tree(capsys, monkeypatch, tmp_path):
    # run() hands `group action ...` to the action parser alone; every argv of
    # one round of each bench workload, and every edge case, must give the
    # exit code, stdout and stderr that the whole tree's parse gives (no argv
    # asks for --timings, whose elapsed time differs between two calls)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import checks
    import workloads

    monkeypatch.chdir(tmp_path)
    tree = fresh_parser()
    cli._add_actions(tree, [])

    def tree_outputs(argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", lambda: tree)
            patch.setattr(cli, "_parse_direct", lambda parser, argv: None)
            return call_outputs(capsys, argv)

    argvs = []
    for workload in workloads.WORKLOADS:
        for op in workloads.make_round(workload, 1):
            if "prep" in op:
                checks.prepare(op, tmp_path)
            argv = op["argv"] + ["--json"]  # as the bench worker calls it
            argvs.append(argv)
            assert call_outputs(capsys, argv) == tree_outputs(argv), argv
    assert any(argv[-2] == "many" for argv in argvs)  # the malformed calls are in
    for argv in PARSE_EDGE_CASES:
        outputs = call_outputs(capsys, argv)
        assert outputs == tree_outputs(argv), argv
        assert outputs[0] in (0, 2), argv


def test_only_the_direct_parse_runs_for_a_plain_argv(capsys, monkeypatch):
    calls = []
    tree_parse = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(self)
        return tree_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
    code, out, err = call_outputs(capsys, ["pins", "solve", "--doubled-area", "4042", "--json"])
    assert (code, json.loads(out)["cost"], err) == (0, 128, "")
    assert calls == []
    code, _, err = call_outputs(capsys, ["pins", "solve", "--doubled-area", "4042", "extra"])
    assert (code, err.splitlines()[-1]) == (2, "jmokit: error: unrecognized arguments: extra")
    assert calls == [cli._build_parser()]


def test_pack_validate_non_finite_density_is_invalid_in_both_forms(capsys, tmp_path):
    # n / L^2 overflows a float at side 1e-400: INVALID either way, and the
    # envelope writes the density as null, since JSON has no infinity
    path = tmp_path / "tiny_side.txt"
    path.write_text("1e-400\n1 1\n")
    code, out, err = call_outputs(capsys, ("pack", "validate", "--input", str(path)))
    assert (code, err) == (1, "")
    assert "density n/L^2 = inf" in out and "verdict: INVALID" in out
    code, out, err = call_outputs(capsys, ("pack", "validate", "--input", str(path), "--json"))
    assert (code, err) == (1, "")
    report = json.loads(out)["report"]
    assert (report["density"], report["valid"], report["first_outside"]) == (None, False, 0)


def fresh_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


LAYERS_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from jmokit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(code, *sorted(m for m in set(sys.modules) - before
                    if m.startswith(("jmokit.", "json")) or m in ("numpy", "fractions", "decimal")))
"""


@pytest.mark.parametrize(
    "argv, layer",
    [
        (("pins", "solve", "--doubled-area", "4042"), None),
        (("gcdset", "check", "--elements", "6,14,15,35"), "gcdperfect"),
        (("pack", "build", "--side", "6"), "tripack"),
        (("cyclic", "solve", "--n", "4", "--seed", "3"), "cyclic"),
        (("funceq", "trace", "--limit", "50"), "funceq"),
        (("rect", "batch", "--count", "3"), "rectconcur"),
        (("pins", "oracle", "--doubled-area", "2", "--radius", "3"), "scan"),
        (("cyclic", "verify", "--input", "{tmp}/canonical.ent"), "cyclic"),
        (("rect", "render", "--seed", "3", "--svg", "{tmp}/r.svg"), "rectconcur svg"),
        (("pack", "validate", "--input", "{tmp}/p.txt"), "tripack"),
        (("pack", "render", "--input", "{tmp}/p.txt", "--svg", "{tmp}/p.svg"), "tripack svg"),
        (("funceq", "check", "--input", "{tmp}/f.txt"), "funceq"),
        (("gcdset", "search", "--size", "2", "--max", "30"), "gcdperfect"),
        (("gcdset", "construct", "--k", "1", "--p", "2", "--q", "3"), "gcdperfect"),
    ],
)
def test_a_fresh_call_imports_only_its_layer(tmp_path, argv, layer):
    # a fresh interpreter per case, and only what the import of jmokit.cli
    # and the call add counts (a site that imports json does not): cli, the
    # group's command module and its layers, svg only to render, scan only
    # for pins oracle; no other group's command module, no json, no numpy,
    # and fractions (with decimal) only for pack.  layer names the layers
    # beyond pinopt, which only pins loads, and kernel, which pinopt,
    # gcdperfect and tripack import.
    (tmp_path / "canonical.ent").write_text("1.0\n2.0\n" * 4)
    (tmp_path / "p.txt").write_text("8\n")  # an empty packing, which is valid
    (tmp_path / "f.txt").write_text("1 1\n2 1\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    done = subprocess.run([sys.executable, "-c", LAYERS_PROBE, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = ["jmokit.cli", "jmokit.commands", f"jmokit.commands.{argv[0]}"]
    loaded += [f"jmokit.{name}" for name in (layer or "").split()]
    loaded += {"pins": ["jmokit.pinopt", "jmokit.kernel"], "gcdset": ["jmokit.kernel"],
               "pack": ["jmokit.kernel", "decimal", "fractions"]}.get(argv[0], [])
    assert done.stdout.split() == ["0", *sorted(loaded)]


NO_GROUP_PROBE = """
import contextlib, io, sys
from jmokit import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.run(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("jmokit.")))
"""


@pytest.mark.parametrize("argv, code", [(("--version",), 0), (("-h",), 0), (("nogroup",), 2),
                                        ((), 2)], ids=["version", "help", "typo", "empty"])
def test_a_call_that_names_no_group_loads_no_command_module(argv, code):
    # the top parser reads no action parser, so no group's module and no
    # layer loads
    done = subprocess.run([sys.executable, "-c", NO_GROUP_PROBE, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == [str(code), "jmokit.cli", "jmokit.commands"]


def test_no_module_loads_dataclasses():
    # a fresh interpreter importing every module, scan and the command modules included
    probe = ("import importlib, pkgutil, sys, jmokit\n"
             "for m in pkgutil.walk_packages(jmokit.__path__, 'jmokit.'): importlib.import_module(m.name)\n"
             "print('numpy' in sys.modules, 'dataclasses' in sys.modules, 'jmokit.commands.rect' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], env=fresh_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False", "False", "True"]


EXPONENT_PROBE = """
import contextlib, io, sys, time
from jmokit import cli
started = time.perf_counter()
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.run(sys.argv[1:])
print(code, time.perf_counter() - started)
print(err.getvalue())
"""


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("pack", "build", "--side", "1e-100000000"), None,
         "bad rational: --side has a decimal exponent above 4300 in absolute value"),
        (("pack", "validate", "--input", "{tmp}/exponent.txt"), "1e100000000\n1 1\n",
         "bad packing file: line 1: side has a decimal exponent above 4300 in absolute value"),
    ],
    ids=["build-side", "validate-side-line"],
)
def test_decimal_exponent_exits_two_within_a_second(tmp_path, argv, text, message):
    # Fraction alone would spend minutes building 10**100000000; the child
    # times the call, and the timeout bounds a regression
    if text is not None:
        (tmp_path / "exponent.txt").write_text(text)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    done = subprocess.run([sys.executable, "-c", EXPONENT_PROBE, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=30, check=True)
    result, err = done.stdout.split("\n", 1)
    code, seconds = result.split()
    assert code == "2" and float(seconds) < 1.0
    assert err.strip() == f"error: {message}"


def test_closed_stdout_exits_141_without_a_traceback():
    # the envelope is far larger than a pipe buffer, so the write after the
    # reader closes fails with EPIPE
    child = subprocess.Popen([sys.executable, "-m", "jmokit.cli", "rect", "batch",
                              "--count", "2000", "--json"], env=fresh_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline() == b"{\n"
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (141, b"")
