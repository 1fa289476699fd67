from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import ietkit
from ietkit import build_iet, validate_permutation
from ietkit.cli import (
    _SAMPLES_PER_WORKER,
    SchemaRejection,
    _build_parser,
    _grid,
    _load_schema,
    _validate,
    canonical_json,
    main,
)

from conftest import FROZEN_CROSSING, reference_visit_frequencies

F = Fraction
K = _SAMPLES_PER_WORKER

SVG_NS = "{http://www.w3.org/2000/svg}"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``ietkit *argv``, argparse's own
    rejections included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_power_curve(tmp_path, d: int):
    rows = [[0] * i + [1] for i in range(1, d + 1)]
    path = tmp_path / f"power{d}.json"
    path.write_text(json.dumps({"d": d, "coeffs": rows}))
    return str(path)


# ---------------------------------------------------------------------------
# omega


def test_omega_exact_output(capsys):
    code, out, err = run_cli(capsys, "omega", "--perm", "2,1")
    assert (code, err) == (0, "")
    assert out == "[[0,-1],[1,0]]\n"


def test_omega_larger_example(capsys):
    code, out, _ = run_cli(capsys, "omega", "--perm", "3,1,2")
    assert code == 0
    assert json.loads(out) == [[0, -1, -1], [1, 0, 0], [1, 0, 0]]


def test_bad_permutation_is_a_validation_error(capsys):
    code, out, err = run_cli(capsys, "omega", "--perm", "2,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_seed_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["omega", "--perm", "2,1", "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_shipped_schema_is_a_valid_schema():
    Draft202012Validator.check_schema(_load_schema())


# A sample token for each field and what its option's reader makes of it;
# True marks a flag.  Each value's repr carries its type, so an int read as
# a float, or a list read as text, does not compare equal.
READS = {
    "perm": ("3,1,2", [3, 1, 2]),
    "lengths": (" 1, 3/2 ", ["1", "3/2"]),
    "heights": ("-1 ,0.5", ["-1", "0.5"]),
    "x0": (" -1/2", " -1/2"),
    "svg": ("out.svg", "out.svg"),
    "curve": (" c.json", " c.json"),
    "samples": ("7", 7),
    "jobs": ("2", 2),
    "iters": ("10", 10),
    "refine": ("3", 3),
    "max_m": ("5", 5),
    "from": ("1", 1.0),
    "to": ("-2.5", -2.5),
    "require_simple": (None, True),
}


def test_each_option_is_read_off_its_schema_field():
    # The parsed options are the job, so each command's options must be
    # exactly its schema branch's fields, each with the flag, requiredness,
    # default and reader that the field declares.
    parser = _build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    branches = {b["properties"]["command"]["const"]: b for b in _load_schema()["oneOf"]}
    assert commands.keys() == branches.keys()
    for name, sub in commands.items():
        branch = branches[name]
        assert sub.get_default("run") is getattr(ietkit.cli, f"cmd_{name}")
        actions = {a.dest: a for a in sub._actions if a.dest != "help"}
        assert actions.keys() == branch["properties"].keys() - {"command"}
        for field, action in actions.items():
            assert action.option_strings == ["--" + field.replace("_", "-")], field
            assert action.required == (field in branch["required"]), field
            assert action.default == branch["properties"][field].get("default"), field
            token, value = READS[field]
            if value is True:
                assert isinstance(action, argparse._StoreTrueAction), field
            else:
                assert isinstance(action, argparse._StoreAction), field
                read = token if action.type is None else action.type(token)
                assert repr(read) == repr(value), field


VALID_RUNS_SCRIPT = """
import sys
from ietkit.cli import main

curve, svg = sys.argv[1:]
runs = [
    ["omega", "--perm", "3,2,1"],
    ["suspend", "--perm", "3,2,1", "--lengths", "1,1,1", "--heights", "1,0,-1", "--svg", svg],
    ["check", "--perm", "3,2,1", "--lengths", "1,1,1", "--heights", "1,0,-1"],
    ["orbit", "--perm", "2,1", "--lengths", "1,1597/987", "--x0", "0", "--iters", "100"],
    ["connections", "--perm", "2,1", "--lengths", "1,1", "--max-m", "3"],
    ["scan", "--perm", "3,2,1", "--curve", curve, "--from", "0.5", "--to", "4",
     "--samples", "5", "--jobs", "1"],
]
heavy = ("jsonschema", "concurrent.futures.process")
codes = [main(argv) for argv in runs]
print(codes, [m for m in heavy if m in sys.modules], file=sys.stderr)
codes = [main(["omega", "--perm", "0,1"])]
print(codes, [m for m in heavy if m in sys.modules], file=sys.stderr)
"""


def test_valid_jobs_import_neither_jsonschema_nor_the_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ietkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", VALID_RUNS_SCRIPT, write_power_curve(tmp_path, 3),
         str(tmp_path / "out.svg")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    lines = proc.stderr.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[0] == "[0, 0, 0, 0, 0, 0] []"
    # A rejected job loads neither: the CLI words its message itself.
    assert lines[-1] == "[2] []"


@pytest.mark.parametrize("argv, loaded", [
    (["omega", "--perm", "3,1,2"], set()),
    (["connections", "--perm", "2,1", "--lengths", "1,1", "--max-m", "3"], {"iet", "rauzy"}),
    (["orbit", "--perm", "2,1", "--lengths", "1,1597/987", "--x0", "0", "--iters", "100"],
     {"iet", "diagnostics", "rauzy"}),
    (["suspend", "--perm", "3,2,1", "--lengths", "1,1,1", "--heights", "1,0,-1"],
     {"iet", "suspension"}),
    (["check", "--perm", "3,2,1", "--lengths", "1,1,1", "--heights", "1,0,-1"],
     {"iet", "suspension", "criterion"}),
    (["scan", "--perm", "3,2,1", "--curve", "CURVE", "--from", "0.5", "--to", "4",
      "--samples", "5"], {"iet", "suspension", "criterion"}),
], ids=["omega", "connections", "orbit", "suspend", "check", "scan"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    # Beyond the package, the CLI loads errors and perm; each command imports
    # the other library modules it calls, and none loads dataclasses, which
    # brings in inspect, for the package's records.
    argv = [write_power_curve(tmp_path, 3) if arg == "CURVE" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(ietkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ietkit", *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    expected = {"ietkit", "ietkit.cli", "ietkit.errors", "ietkit.perm"}
    assert {m for m in imported if m.split(".")[0] == "ietkit"} == expected | {
        f"ietkit.{m}" for m in loaded}
    assert imported.isdisjoint({"dataclasses", "inspect"})


NOT_UNDER_ANY = " is not valid under any of the given schemas\n"
SCAN_ARGS = ["scan", "--perm", "2,1", "--curve", "CURVE", "--from", "1", "--to", "2"]
POWER2 = {"d": 2, "coeffs": [[0, 1], [0, 0, 1]]}
# The schema's scalar pattern, as a rejection quotes it.
SCALAR_PATTERN = r"'^[+-]?[0-9]+(/[1-9][0-9]*|\\.[0-9]+)?$'"
# A scalar the schema accepts, with more digits than int() reads by default.
LONG_SCALAR = "1" + "0" * 4400


@pytest.mark.parametrize("code, argv, curve, err", [
    (2, ["orbit", "--perm", "2,1", "--lengths", "1,1", "--x0", "0", "--iters", "5",
         "--refine", "2000000"], None,
     "error: --refine: 2000000 is greater than the maximum of 1048576\n"),
    (2, [*SCAN_ARGS, "--samples", "0"], POWER2,
     "error: --samples: 0 is less than the minimum of 1\n"),
    (2, [*SCAN_ARGS, "--samples", "1048577"], POWER2,
     "error: --samples: 1048577 is greater than the maximum of 1048576\n"),
    (2, [*SCAN_ARGS, "--samples", "3", "--jobs", "0"], POWER2,
     "error: --jobs: 0 is less than the minimum of 1\n"),
    (2, ["omega", "--perm", "0,1"], None,
     "error: --perm item 1: 0 is less than the minimum of 1\n"),
    (2, ["orbit", "--perm", "2,1", "--lengths", "1,1", "--x0", "abc", "--iters", "5"], None,
     f"error: --x0: 'abc' does not match {SCALAR_PATTERN}\n"),
    (2, [*SCAN_ARGS, "--samples", "3"], {**POWER2, "name": "x"},
     "error: curve file: Additional properties are not allowed ('name' was unexpected)\n"),
    (2, [*SCAN_ARGS, "--samples", "3"], {**POWER2, "d": 0},
     "error: curve file d: 0 is less than the minimum of 1\n"),
    (2, [*SCAN_ARGS, "--samples", "3"], {"d": 2, "coeffs": [[0, "1e3"], [0, 0, 1]]},
     "error: curve file coeffs[0][1]: '1e3'" + NOT_UNDER_ANY),
    (2, ["scan", "--perm", "2,1", "--curve", "CURVE", "--from", "1", "--to", "inf",
         "--samples", "3"], POWER2, "error: scan bound --to is not finite: inf\n"),
    (2, ["suspend", "--perm", "2,1", "--lengths", "1,1", "--heights", "1,-1", "--svg", ""], None,
     "error: --svg: '' is too short\n"),
    # An integer past the digit limit, which json.dumps cannot write.
    (2, [*SCAN_ARGS, "--samples", "2"], '{"d": 2, "coeffs": [[' + LONG_SCALAR + ', 1], [0, 1]]}',
     f"error: a number in the curve file has more than {sys.get_int_max_str_digits()} digits\n"),
    # A file that is not UTF-8, whatever the locale's encoding.
    (2, [*SCAN_ARGS, "--samples", "2"], b'{"d": 2, "coeffs": [[0, 1], [0, 0, 1]], "x": "\xff"}',
     "error: the curve file is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 46: "
     "invalid start byte\n"),
    (2, [*SCAN_ARGS, "--samples", "2"], "[" * 100_000,
     "error: the curve file is nested too deeply\n"),
    # A length past the digit limit is parsed by the library, after the
    # permutation and the vector sizes are checked.
    (4, ["check", "--perm", "1,2", "--lengths", LONG_SCALAR + ",1", "--heights", "1,1"], None,
     "error: [1,2] splits at an invariant prefix\n"),
    (2, ["suspend", "--perm", "2,1", "--lengths", LONG_SCALAR + ",1,1", "--heights", "1,1"], None,
     "error: 3 lengths for 2 symbols\n"),
    # Such a length is rejected by its size, not quoted in full.
    (2, ["orbit", "--perm", "2,1", "--lengths", LONG_SCALAR + ",1", "--x0", "0", "--iters", "5"],
     None, "error: malformed scalar (a str of 4401 characters)\n"),
], ids=["refine", "samples", "samples-max", "jobs", "perm", "x0", "curve-extra-key", "curve-d0",
        "curve-coeff", "scan-bound-inf", "suspend-empty-svg", "curve-long-int", "curve-not-utf8",
        "curve-too-deep", "check-long-length-reducible", "suspend-long-length-count",
        "orbit-long-length"])
def test_rejected_jobs_keep_their_messages(capsys, tmp_path, code, argv, curve, err):
    # A schema rejection names the option or the curve-file path, the keyword
    # in jsonschema's words, and the value; other messages are the library's
    # or the CLI's own.  A curve given as a string or bytes is the file's text.
    path = tmp_path / "curve.json"
    if isinstance(curve, dict):
        curve = json.dumps(curve)
    if curve is not None:
        path.write_bytes(curve.encode() if isinstance(curve, str) else curve)
    argv = [str(path) if arg == "CURVE" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (code, "", err)


SCAN_USAGE = ("usage: ietkit scan [-h] --perm PERM --curve CURVE --samples SAMPLES\n"
              "                   [--jobs JOBS] --from FROM --to TO\n")


def test_scan_usage_lists_samples_and_jobs_before_the_bounds(capsys, monkeypatch):
    # The order of scan's fields in the schema is the order of its options.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, "scan", "--help")
    assert (code, err) == (0, "")
    assert out.startswith(SCAN_USAGE + "\n")


def test_scan_lists_missing_options_in_usage_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "scan", "--perm", "2,1") == (2, "", SCAN_USAGE + (
        "ietkit scan: error: the following arguments are required: "
        "--curve, --samples, --from, --to\n"))


def test_scan_samples_are_bounded_by_the_schema():
    # The scan builds its whole grid before the first sample, so the grid's
    # size is capped; the largest allowed job is validated but not run.
    job = {"command": "scan", "perm": [2, 1], "curve": "c.json", "from": 1.0, "to": 2.0,
           "samples": 1048576, "jobs": 1}
    _validate(job, _load_schema())
    with pytest.raises(SchemaRejection):
        _validate({**job, "samples": 1048577}, _load_schema())


@pytest.mark.parametrize("bounds, err", [
    (["--from", "1", "--to", "inf"], "scan bound --to is not finite: inf"),
    (["--from", "-inf", "--to", "2"], "scan bound --from is not finite: -inf"),
    (["--from", "nan", "--to", "2"], "scan bound --from is not finite: nan"),
    (["--from", "1", "--to", "nan"], "scan bound --to is not finite: nan"),
], ids=["to-inf", "from-minus-inf", "from-nan", "to-nan"])
def test_scan_rejects_a_bound_that_is_not_finite(capsys, tmp_path, bounds, err):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(POWER2))
    argv = ["scan", "--perm", "2,1", "--curve", str(path), *bounds, "--samples", "3"]
    assert run_cli(capsys, *argv) == (2, "", f"error: {err}\n")


def test_scan_rejects_a_range_whose_grid_step_overflows(capsys, tmp_path):
    # Both bounds are finite, but their difference is not a float.
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(POWER2))
    argv = ["scan", "--perm", "2,1", "--curve", str(path), "--from", "-1e308", "--to", "1e308",
            "--samples", "3"]
    err = "error: scan range [-1e+308, 1e+308] is too wide: its grid step overflows\n"
    assert run_cli(capsys, *argv) == (2, "", err)


# One valid job per command, which names every option that takes a value.
VALID_JOBS = {
    "omega": ["--perm", "2,1"],
    "suspend": ["--perm", "2,1", "--lengths", "1,1", "--heights", "1,-1", "--svg", "out.svg"],
    "check": ["--perm", "2,1", "--lengths", "1,1", "--heights", "1,-1"],
    "scan": ["--perm", "2,1", "--curve", "curve.json", "--samples", "3", "--jobs", "1",
             "--from", "1", "--to", "2"],
    "orbit": ["--perm", "2,1", "--lengths", "1,1", "--x0", "0", "--iters", "5", "--refine", "4"],
    "connections": ["--perm", "2,1", "--lengths", "1,1", "--max-m", "3"],
}


@pytest.mark.parametrize("command, option, value", [
    ("omega", "--perm", "-1,2"),
    ("suspend", "--perm", "-2,1"),
    ("suspend", "--lengths", "-1,1"),
    ("suspend", "--heights", "-1,-2"),
    ("suspend", "--svg", "-out.svg"),
    ("check", "--perm", "-2,1"),
    ("check", "--lengths", "-1,1"),
    ("check", "--heights", "-1,1"),
    ("check", "--heights", "-1/2,-3/4"),
    ("scan", "--perm", "-2,1"),
    ("scan", "--curve", "-curve.json"),
    ("scan", "--samples", "-1_0"),
    ("scan", "--jobs", "-1_0"),
    ("scan", "--from", "-inf"),
    ("scan", "--to", "-1e3"),
    ("orbit", "--perm", "-2,1"),
    ("orbit", "--lengths", "-1,1"),
    ("orbit", "--x0", "-1/2"),
    ("orbit", "--iters", "-1e3"),
    ("orbit", "--refine", "-1_0"),
    ("connections", "--perm", "-2,1"),
    ("connections", "--lengths", "-1/2,1"),
    ("connections", "--max-m", "-1_0"),
], ids=["omega-perm", "suspend-perm", "suspend-lengths", "suspend-heights", "suspend-svg",
        "check-perm", "negative-length", "heights", "heights-fractions", "scan-perm",
        "scan-curve", "scan-samples", "scan-jobs", "scan-from", "scan-to", "orbit-perm",
        "orbit-lengths", "orbit-x0", "orbit-iters", "orbit-refine", "connections-perm",
        "connections-lengths", "connections-max-m"])
def test_a_value_may_start_with_a_minus_sign(capsys, tmp_path, monkeypatch, command, option,
                                             value):
    # "--heights -1,1" reads as "--heights=-1,1": argparse alone would take
    # "-1,1" for an option, as it is not a plain negative number.
    monkeypatch.chdir(tmp_path)
    for name in ("curve.json", "-curve.json"):
        (tmp_path / name).write_text(json.dumps(POWER2))
    job = VALID_JOBS[command]
    at = job.index(option)
    argv = [command, *job[:at], *job[at + 2:]]
    spaced = run_cli(capsys, *argv, option, value)
    assert spaced == run_cli(capsys, *argv, f"{option}={value}")
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("argv, prefix, option, value", [
    (["check", "--perm", "2,1", "--lengths", "1,1"], "--height", "--heights", "-1,1"),
    (["check", "--perm", "2,1", "--heights", "1,1"], "--len", "--lengths", "-1,1"),
    (["scan", "--perm", "2,1", "--curve", "{curve}", "--to", "2", "--samples", "3"],
     "--f", "--from", "-inf"),
    (["scan", "--perm", "2,1", "--curve", "{curve}", "--from", "-3", "--samples", "3"],
     "--t", "--to", "-2"),
], ids=["heights", "lengths", "scan-from", "scan-to"])
def test_an_abbreviated_option_may_take_a_value_with_a_minus_sign(capsys, tmp_path, argv, prefix,
                                                                   option, value):
    # argparse reads a unique prefix as the option it abbreviates, so
    # "--height -1,1" is "--heights=-1,1".
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(POWER2))
    argv = [arg.format(curve=curve) for arg in argv]
    abbreviated = run_cli(capsys, *argv, prefix, value)
    assert abbreviated == run_cli(capsys, *argv, f"{option}={value}")
    assert "expected one argument" not in abbreviated[2]


def test_an_ambiguous_prefix_keeps_the_argparse_error(capsys):
    # "--he" could be --heights or --help: argparse's own error, exit 2.
    with pytest.raises(SystemExit) as exc:
        main(["check", "--perm", "2,1", "--lengths", "1,1", "--he", "-1,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "ambiguous option: --he could match --help, --heights" in err


CHECK_ARGS = ["check", "--perm", "2,1", "--lengths", "1,1"]


@pytest.mark.parametrize("argv, last_line", [
    # A signed value reaches the check of its option.
    (["omega", "--perm", "-1,2"], "error: --perm item 1: -1 is less than the minimum of 1"),
    (["orbit", "--perm", "2,1", "--lengths", "1,1", "--x0", "-1/2", "--iters", "5"],
     "error: -1/2 outside [0, 2)"),
    (["orbit", "--perm", "2,1", "--lengths", "1,1", "--x0", "0", "--iters", "-1e3"],
     "ietkit orbit: error: argument --iters: invalid int value: '-1e3'"),
    # The parser's own options, "--", abbreviations and the top-level parser
    # keep argparse's errors.
    ([*CHECK_ARGS, "--heights", "-h"],
     "ietkit check: error: argument --heights: expected one argument"),
    (["suspend", "--perm", "2,1", "--lengths", "1,1", "--heights", "1,-1", "--svg", "--"],
     "ietkit suspend: error: argument --svg: expected one argument"),
    ([*CHECK_ARGS, "--he", "-1,1"],
     "ietkit check: error: ambiguous option: --he could match --help, --heights"),
    (["-x", "omega"], "ietkit omega: error: the following arguments are required: --perm"),
], ids=["perm", "x0", "iters", "heights-h", "svg-double-dash", "ambiguous-prefix", "top-level"])
def test_a_signed_value_is_read_by_its_option(capsys, argv, last_line):
    # argparse's errors follow a usage line, which wraps with the terminal.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", last_line)


# ---------------------------------------------------------------------------
# suspend


def test_suspend_reports_simple_parallelogram(capsys):
    code, out, _ = run_cli(
        capsys, "suspend", "--perm", "2,1", "--lengths", "1,1", "--heights", "1,-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is True
    assert payload["witness"] is None
    assert payload["top_chain"] == [["0/1", "0/1"], ["1/1", "1/1"], ["2/1", "0/1"]]
    assert payload["bottom_chain"] == [["0/1", "0/1"], ["1/1", "-1/1"], ["2/1", "0/1"]]
    assert payload["return_profile"] == ["1/1", "1/1"]
    assert payload["first_slope_vs_bottom_first"] == 1
    # sigma^{-1}(d) = 1 here, so the last-symbol comparison is kappa_1 vs itself
    assert payload["first_slope_vs_bottom_last"] == 0


def _frozen_args() -> list[str]:
    return [
        "--perm", ",".join(str(v) for v in FROZEN_CROSSING["perm"]),
        "--lengths", ",".join(str(v) for v in FROZEN_CROSSING["lengths"]),
        "--heights", ",".join(str(v) for v in FROZEN_CROSSING["heights"]),
    ]


def test_suspend_crossing_payload_and_exit(capsys):
    code, out, _ = run_cli(capsys, "suspend", *_frozen_args())
    assert code == 0  # informational by default
    payload = json.loads(out)
    assert payload["simple"] is False
    w = payload["witness"]
    assert w["classification"] == "ProperCrossing"
    assert [w["chain_a"], w["index_a"]] == [FROZEN_CROSSING["chain_a"], FROZEN_CROSSING["index_a"]]
    assert [w["chain_b"], w["index_b"]] == [FROZEN_CROSSING["chain_b"], FROZEN_CROSSING["index_b"]]
    assert w["locus"] == ["8/3", "0/1"]


def test_suspend_require_simple_sets_exit_code(capsys):
    code, out, err = run_cli(capsys, "suspend", *_frozen_args(), "--require-simple")
    assert code == 3
    assert json.loads(out)["simple"] is False  # payload still emitted
    assert err == "error: curve self-intersects but --require-simple was set\n"


def test_suspend_require_simple_writes_the_svg_and_the_json(capsys, tmp_path):
    plain, required = tmp_path / "plain.svg", tmp_path / "required.svg"
    expected = run_cli(capsys, "suspend", *_frozen_args(), "--svg", str(plain))
    assert expected[0] == 0
    code, out, err = run_cli(capsys, "suspend", *_frozen_args(), "--require-simple",
                             "--svg", str(required))
    assert (code, err) == (3, "error: curve self-intersects but --require-simple was set\n")
    assert out == expected[1]
    assert required.read_bytes() == plain.read_bytes()


def test_suspend_svg_geometry(capsys, tmp_path):
    svg_path = tmp_path / "curve.svg"
    code, _, _ = run_cli(capsys, "suspend", *_frozen_args(), "--svg", str(svg_path))
    assert code == 0
    root = ET.fromstring(svg_path.read_text())
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    top_pts = [tuple(float(c) for c in p.split(",")) for p in polylines[0].get("points").split()]
    # y axis is flipped so that positive heights point up on screen
    assert top_pts[0] == (0.0, 0.0)
    assert top_pts[1] == (1.0, -3.0)
    circles = root.findall(f"{SVG_NS}circle")
    assert len(circles) == 1
    assert float(circles[0].get("cx")) == pytest.approx(8 / 3)
    assert float(circles[0].get("cy")) == 0.0
    x, y, w, h = (float(v) for v in root.get("viewBox").split())
    assert x < 0 < x + w and y < 0 < y + h


def test_suspend_one_symbol_reports_the_overlap(capsys):
    code, out, _ = run_cli(capsys, "suspend", "--perm", "1", "--lengths", "1", "--heights", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is False
    assert payload["witness"] == {
        "chain_a": "top", "index_a": 1, "chain_b": "bottom", "index_b": 1,
        "classification": "CollinearOverlap", "locus": [["0/1", "0/1"], ["1/1", "1/1"]],
    }


def test_suspend_svg_marks_both_ends_of_an_overlap(capsys, tmp_path):
    # With one symbol the two chains overlap from end to end, and the witness
    # is drawn as one mark at each end of the overlap.
    svg_path = tmp_path / "overlap.svg"
    code, _, _ = run_cli(capsys, "suspend", "--perm", "1", "--lengths", "1", "--heights", "1",
                         "--svg", str(svg_path))
    assert code == 0
    circles = ET.fromstring(svg_path.read_text()).findall(f"{SVG_NS}circle")
    assert [(float(c.get("cx")), float(c.get("cy"))) for c in circles] == [(0, 0), (1, -1)]


def test_suspend_svg_for_simple_curve_has_no_marks(capsys, tmp_path):
    svg_path = tmp_path / "simple.svg"
    run_cli(capsys, "suspend", "--perm", "2,1", "--lengths", "1,1",
            "--heights", "1,-1", "--svg", str(svg_path))
    root = ET.fromstring(svg_path.read_text())
    assert root.findall(f"{SVG_NS}circle") == []


@pytest.mark.parametrize("lengths, heights, named", [
    # float() of a 401-digit coordinate overflows.
    ("1" + "0" * 400 + ",1", "1,-1", "coordinate (a Fraction of 401 characters) is outside"),
    # Each coordinate is a float, but the y span 2e308 is not.
    ("1,1", "1" + "0" * 308 + ",-1" + "0" * 308,
     "span of (a Fraction of 309 characters) is outside"),
    # Every coordinate underflows to 0, so the float span is 0 but the exact
    # x span 2/10^400 is not.
    ("1/1" + "0" * 400 + ",1/1" + "0" * 400, "1/1" + "0" * 400 + ",-1/1" + "0" * 400,
     "span of (a Fraction of 402 characters) rounds to 0"),
], ids=["coordinate", "view-box-span", "view-box-underflow"])
def test_suspend_svg_outside_the_float_range_is_an_input_error(capsys, tmp_path, lengths,
                                                               heights, named):
    svg_path = tmp_path / "big.svg"
    code, out, err = run_cli(capsys, "suspend", "--perm", "2,1", "--lengths", lengths,
                             "--heights", heights, "--svg", str(svg_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: SVG ") and named in err
    assert not svg_path.exists()


def test_suspend_svg_that_cannot_be_written_prints_nothing(capsys, tmp_path):
    svg_path = tmp_path / "missing" / "x.svg"
    code, out, err = run_cli(capsys, "suspend", "--perm", "2,1", "--lengths", "1,1",
                             "--heights", "1,-1", "--svg", str(svg_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] ") and str(svg_path) in err


# Two lengths whose chains end at (Q1 + Q2) / (Q1 Q2), a denominator of
# 8,000 digits: more than Python converts to text by default.
_Q1, _Q2 = 10**4000 + 1, 10**3999 + 3


@pytest.mark.parametrize("argv", [
    ["suspend", "--perm", "2,1", f"--lengths=1/{_Q1},1/{_Q2}", "--heights=1,1", "--svg", "{svg}"],
    # The expected frequencies are the lengths over their sum.
    ["orbit", "--perm", "3,2,1", f"--lengths=1/{_Q1},1/{_Q2},1/{_Q1 + 2}", "--x0", "0",
     "--iters", "10"],
], ids=["suspend-svg", "orbit"])
def test_output_past_the_digit_limit_is_an_input_error(capsys, tmp_path, argv):
    svg_path = tmp_path / "long.svg"
    code, out, err = run_cli(capsys, *(arg.format(svg=svg_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: an output number has more than {sys.get_int_max_str_digits()} digits\n"
    assert not svg_path.exists()


# A value of 4,001 digits: under the int digit limit, so it parses.
HUGE = "1" + "0" * 4000
# No rejection message is longer than this many bytes, whatever the input.
MESSAGE_BOUND = 300
ORBIT_ARGS = ["orbit", "--perm", "2,1", "--lengths", "1,1", "--x0", "0", "--iters", "5"]


@pytest.mark.parametrize("code, argv, curve", [
    # Each option that the schema checks, with the huge value in the job.
    (2, ["omega", "--perm", f"-{HUGE},1"], None),
    (2, ["orbit", "--perm", "2,1", "--lengths", f"{HUGE}x,1", "--x0", "0", "--iters", "5"], None),
    (2, ["check", "--perm", "2,1", "--lengths", "1,1", "--heights", f"1,{HUGE}x"], None),
    (2, [*ORBIT_ARGS[:-4], "--x0", f"{HUGE}x", "--iters", "5"], None),
    (2, [*ORBIT_ARGS[:-1], f"-{HUGE}"], None),
    (2, [*ORBIT_ARGS, "--refine", HUGE], None),
    (2, [*SCAN_ARGS, "--samples", HUGE], POWER2),
    (2, [*SCAN_ARGS, "--samples", "3", "--jobs", f"-{HUGE}"], POWER2),
    (2, ["connections", "--perm", "2,1", "--lengths", "1,1", "--max-m", f"-{HUGE}"], None),
    (2, ["suspend", "--perm", "2,1", "--lengths", f"{HUGE},1", "--heights", "1,-1", "--svg", ""],
     None),
    # The curve file's d and coeffs.
    (2, [*SCAN_ARGS, "--samples", "3"], f'{{"d": -{HUGE}, "coeffs": [[0, 1], [0, 0, 1]]}}'),
    (2, [*SCAN_ARGS, "--samples", "3"], f'{{"d": {HUGE}, "coeffs": [[0, 1], [0, 0, 1]]}}'),
    (2, [*SCAN_ARGS, "--samples", "3"], {"d": 2, "coeffs": [[0, f"{HUGE}x"], [0, 0, 1]]}),
    # The library's messages: a permutation value out of range, a point
    # outside a huge or an unprintable domain, a length that is not
    # positive, and a curve that leaves its domain.
    (2, ["omega", "--perm", f"{HUGE},1"], None),
    (2, [*ORBIT_ARGS[:-4], "--x0", HUGE, "--iters", "5"], None),
    (2, ["orbit", "--perm", "2,1", "--lengths", f"{HUGE},1", "--x0", "-1", "--iters", "5"], None),
    (2, ["orbit", "--perm", "2,1", f"--lengths=1/{_Q1},1/{_Q2}", "--x0", "5", "--iters", "5"],
     None),
    (2, ["check", "--perm", "2,1", "--lengths", f"-{HUGE},1", "--heights", "1,1"], None),
    (5, [*SCAN_ARGS, "--samples", "3"], {"d": 2, "coeffs": [[f"-{HUGE}", 1], [0, 0, 1]]}),
    # The SVG's coordinates and span, and paths that cannot be opened.
    (2, ["suspend", "--perm", "2,1", "--lengths", f"{HUGE},1", "--heights", "1,-1", "--svg", "SVG"],
     None),
    (2, ["suspend", "--perm", "2,1", "--lengths", f"1/{HUGE},1/{HUGE}",
         "--heights", f"1/{HUGE},-1/{HUGE}", "--svg", "SVG"], None),
    (2, ["suspend", "--perm", "2,1", "--lengths", "1,1", "--heights", "1,-1", "--svg", HUGE], None),
    (2, ["scan", "--perm", "2,1", "--curve", HUGE, "--from", "1", "--to", "2", "--samples", "3"],
     None),
], ids=["perm", "lengths", "heights", "x0", "iters", "refine", "samples", "jobs", "max-m", "svg",
        "curve-d", "curve-d-count", "curve-coeffs", "perm-value", "x0-domain", "x0-long-total",
        "x0-unprintable-total", "length-not-positive", "curve-domain", "svg-coordinate",
        "svg-span", "svg-path", "curve-path"])
def test_rejected_huge_values_keep_messages_short(capsys, tmp_path, code, argv, curve):
    path = tmp_path / "curve.json"
    path.write_text(curve if isinstance(curve, str) else json.dumps(curve))
    paths = {"CURVE": str(path), "SVG": str(tmp_path / "out.svg")}
    argv = [paths.get(arg, arg) for arg in argv]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and len(err.encode()) < MESSAGE_BOUND, err[:MESSAGE_BOUND]


@pytest.mark.parametrize("argv", [
    ["omega", "--perm", f"1,{HUGE}x"],
    [*SCAN_ARGS, "--samples", f"{HUGE}x"],
    [*SCAN_ARGS, "--samples", "3", "--jobs", f"-{HUGE}x"],
    ["scan", "--perm", "2,1", "--curve", "c.json", "--from", f"{HUGE}x", "--to", "2",
     "--samples", "3"],
    [*SCAN_ARGS[:-1], f"-{HUGE}x", "--samples", "3"],
    [*ORBIT_ARGS[:-1], f"{HUGE}x"],
    # More digits than int() reads.
    [*ORBIT_ARGS[:-1], LONG_SCALAR],
    [*ORBIT_ARGS, "--refine", f"{HUGE}x"],
    ["connections", "--perm", "2,1", "--lengths", "1,1", "--max-m", f"{HUGE}x"],
], ids=["perm", "samples", "jobs", "from", "to", "iters", "iters-past-digit-limit", "refine",
        "max-m"])
def test_argparse_rejections_of_huge_values_keep_messages_short(capsys, argv):
    # argparse's own type errors, which follow a usage line.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < MESSAGE_BOUND, err[:MESSAGE_BOUND]


# ---------------------------------------------------------------------------
# check


def test_check_hexagon(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--perm", "3,2,1", "--lengths", "1,1,1", "--heights", "1,0,-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PositivePairByLemma"
    assert payload["monotonicity"] == "StrictlyDecreasing"
    assert payload["simple"] is True
    assert payload["positivity"] == "AllPositive"
    assert payload["chains_exchanged"] is False
    assert payload["connection_check_advised"] is True
    assert payload["slopes"] == ["1/1", "0/1", "-1/1"]


def test_check_prints_a_diagonal_overlap_in_x_order(capsys):
    # Both chains leave the origin along slope -1, so the first offender is
    # the overlap of the two first segments, whose ends print left to right.
    code, out, _ = run_cli(capsys, "check", "--perm", "2,1", "--lengths", "1,1",
                           "--heights=-1,-1")
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness["classification"] == "CollinearOverlap"
    assert witness["locus"] == [["0/1", "0/1"], ["1/1", "-1/1"]]


def test_check_reducible_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "check", "--perm", "1,2", "--lengths", "1,1", "--heights", "1,-1"
    )
    assert code == 4
    assert out == ""
    assert "error:" in err


def test_check_accepts_rational_and_decimal_scalars(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--perm", "3,2,1", "--lengths", "1,3/2,0.25", "--heights", "1,0,-1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PositivePairByLemma"
    assert payload["slopes"][0] == "1/1"


# A curve whose verdict changes along the scan grid: ties at s = 1, where the
# first two slopes meet, and samples of every kind on either side of it.
_MIXED_CURVE = {"d": 3, "coeffs": [[1, 1], [0, 2, "1/2"], ["3/2", 0, 0, 1]]}
# A curve whose first offender is a collinear overlap of slope -1/2, with
# length and height denominators 2 and 20.
_STEEP_OVERLAP = ["--perm", "3,1,2", "--lengths", "1,3/2,1", "--heights=-1/2,-3/4,1/5"]
# A curve whose first contact is bottom vertex 2, at (3,1), lying on top
# segment 3; at every other vertex the top chain is strictly below.
_VERTEX_ON_CHAIN = ["--perm", "2,3,1", "--lengths", "1,1,2", "--heights", "-1,1,2"]
# A curve whose first crossing comes after the last top vertex: bottom vertex
# 2 lies above top segment 3.
_PAST_LAST_TOP = ["--perm", "2,3,1", "--lengths", "3,1,2", "--heights=3,-2,-3"]
_SCAN = ["scan", "--perm", "3,2,1", "--curve", "{curve}", "--from", "0.25", "--to", "3.25",
         "--samples", "25"]


@pytest.mark.parametrize("argv", [
    ["check", "--perm", "3,2,1", "--lengths", "1,1,1", "--heights", "1,0,-1"],
    ["check", *_frozen_args()],
    ["suspend", *_frozen_args(), "--svg", "{svg}"],
    ["check", *_STEEP_OVERLAP],
    ["suspend", *_STEEP_OVERLAP, "--svg", "{svg}"],
    ["connections", "--perm", "4,3,2,1", "--lengths", "1,2/3,3/2,1", "--max-m", "40"],
    # Long enough that each loop takes its steps through a k-step table.
    ["orbit", "--perm", "4,3,2,1", "--lengths", "1/7,2/11,3/13,5/17", "--x0", "1/19",
     "--iters", "50000", "--refine", "8"],
    ["connections", "--perm", "4,3,2,1", "--lengths", "1/7,2/11,3/13,5/17", "--max-m", "2000"],
    [*_SCAN, "--jobs", "1"],
    [*_SCAN, "--jobs", "2"],
    # Enough samples for two workers, so the scan forks where two CPUs exist.
    [*_SCAN[:-1], str(2 * K), "--jobs", "2"],
    ["check", *_VERTEX_ON_CHAIN],
    ["suspend", "--perm", "1", "--lengths", "1", "--heights", "1", "--svg", "{svg}"],
    ["suspend", *_PAST_LAST_TOP, "--svg", "{svg}"],
], ids=["check-simple", "check-self-intersecting", "suspend-svg", "check-overlap",
        "suspend-overlap-svg", "connections", "orbit-table", "connections-table",
        "scan-jobs-1", "scan-jobs-2", "scan-pool", "check-vertex-on-chain", "suspend-one-symbol",
        "suspend-past-last-top-svg"])
def test_output_does_not_depend_on_asserts(argv, tmp_path):
    # python -O strips every assert, so no result may be computed inside one.
    env = dict(os.environ, PYTHONPATH=str(Path(ietkit.__file__).parents[1]))
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(_MIXED_CURVE))
    runs = []
    for k, flags in enumerate(([], ["-O"])):
        svg = tmp_path / f"run{k}.svg"
        args = [arg.format(svg=svg, curve=curve) for arg in argv]
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "ietkit", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        runs.append((proc.returncode, proc.stdout, proc.stderr,
                     svg.read_text() if svg.exists() else None))
    assert runs[0] == runs[1]
    code, out, err, svg_text = runs[0]
    assert code == 0 and out != "" and err == ""
    assert (svg_text is not None) == ("--svg" in argv)


@pytest.mark.parametrize("perm, coeffs, bounds, exit_code", [
    ("3,2,1", _MIXED_CURVE["coeffs"], ("0.25", "3.25"), 0),
    # a_1 = 2 - s leaves the domain at s = 2.
    ("2,1", [[2, -1], [0, 1]], ("0.5", "3"), 5),
    ("1,2", [[0, 1], [0, 0, 1]], ("1", "2"), 4),
    # One symbol: the first sample is evaluated, then the size is refused.
    ("1", [[0, 1]], ("1", "2"), 2),
    ("1", [[0, 1]], ("-1", "2"), 5),
], ids=["mixed", "domain", "reducible", "one-symbol", "one-symbol-domain"])
def test_scan_exits_do_not_depend_on_asserts(capsys, tmp_path, perm, coeffs, bounds, exit_code):
    # Scan samples are decided in integers; python -O strips every assert,
    # and the exit code, stdout and stderr must stay those of a plain run.
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"d": len(coeffs), "coeffs": coeffs}))
    argv = ["scan", "--perm", perm, "--curve", str(curve), "--from", bounds[0],
            "--to", bounds[1], "--samples", "40"]
    expected = run_cli(capsys, *argv)
    assert expected[0] == exit_code
    env = dict(os.environ, PYTHONPATH=str(Path(ietkit.__file__).parents[1]))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "ietkit", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


# ---------------------------------------------------------------------------
# scan


def test_scan_power_family(capsys, tmp_path):
    curve = write_power_curve(tmp_path, 4)
    code, out, _ = run_cli(
        capsys, "scan", "--perm", "4,3,2,1", "--curve", curve,
        "--from", "0.5", "--to", "4", "--samples", "100",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "exceptional": [],
        "fractions": {"PositivePairByMirroredLemma": "1/1"},
        "samples": 100,
    }


def test_scan_of_one_sample_decides_the_lower_bound(capsys, tmp_path):
    # a_1 = 2 - s leaves its domain at s = 2, so a grid that held --to
    # would exit 5.
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"d": 2, "coeffs": [[2, -1], [0, 1]]}))
    code, out, err = run_cli(capsys, "scan", "--perm", "2,1", "--curve", str(curve),
                             "--from", "0.5", "--to", "3", "--samples", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["samples"] == 1


def test_scan_output_is_byte_stable(capsys, tmp_path):
    curve = write_power_curve(tmp_path, 3)
    args = ("scan", "--perm", "3,1,2", "--curve", curve,
            "--from", "0.5", "--to", "2.5", "--samples", "33")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.fixture()
def real_pools(monkeypatch):
    """Keep the scan's real process pool, on four CPUs, and list the
    max_workers of every pool made."""
    from concurrent.futures import ProcessPoolExecutor

    made = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    return made


def test_scan_jobs_matches_serial(capsys, tmp_path, real_pools):
    # The smallest grid that forks: two workers of K samples each.
    curve = write_power_curve(tmp_path, 3)
    args = ["scan", "--perm", "3,2,1", "--curve", curve,
            "--from", "0.5", "--to", "4", "--samples", str(2 * K)]
    _, serial, _ = run_cli(capsys, *args)
    assert real_pools == []
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "3")
    assert real_pools == [2]
    assert serial == parallel


@pytest.fixture()
def scan_pools(monkeypatch):
    """Replace the scan's process pool by an in-process one; each pool made
    appends (max_workers, number of chunks mapped) to the returned list."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            chunks = list(chunks)
            pools.append((self.max_workers, len(chunks)))
            return map(fn, chunks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    return pools


# The worker bound does not depend on the threshold's value, so this test
# sets the threshold to B and keeps its grids small; the tests that fork
# real pools size their grids from K.
B = 1024


@pytest.mark.parametrize(
    "samples, cpus, pools",
    [
        (2 * B - 1, 4, []),  # too few samples for two workers: serial, no pool
        (2 * B, 4, [(2, 2)]),  # two workers' worth
        (3 * B - 1, 4, [(2, 2)]),  # capped by the samples
        (3 * B, 4, [(3, 3)]),  # capped by --jobs 3
        (3 * B, 2, [(2, 2)]),  # capped by the CPUs
        (3 * B, 1, []),  # one CPU: serial, no pool
        (3 * B, None, []),  # CPU count unknown: serial, no pool
        (3 * B, (1, 2), []),  # two CPUs, of which the process may use one: serial
    ],
)
def test_scan_workers_are_bounded(capsys, tmp_path, monkeypatch, scan_pools, samples, cpus, pools):
    # cpus is the number of CPUs the process may run on, or a pair (that
    # number, the machine's CPU count); None means neither is known.
    monkeypatch.setattr("ietkit.cli._SAMPLES_PER_WORKER", B)
    curve = write_power_curve(tmp_path, 3)
    args = ["scan", "--perm", "3,2,1", "--curve", curve,
            "--from", "0.5", "--to", "4", "--samples", str(samples)]
    _, serial, _ = run_cli(capsys, *args)
    allowed, count = cpus if isinstance(cpus, tuple) else (cpus, cpus)
    if allowed is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(allowed)), raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: count)
    code, parallel, _ = run_cli(capsys, *args, "--jobs", "3")
    assert code == 0
    assert parallel == serial
    assert scan_pools == pools


def test_scan_lists_exceptional_samples(capsys, tmp_path):
    # widths (s, s): tied slopes whenever the derivative heights tie too
    path = tmp_path / "ties.json"
    path.write_text(json.dumps({"d": 2, "coeffs": [[0, 1], [0, 1]]}))
    code, out, _ = run_cli(
        capsys, "scan", "--perm", "2,1", "--curve", str(path),
        "--from", "0.5", "--to", "1.5", "--samples", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fractions"] == {"DegenerateTies": "1/1"}
    assert [e["verdict"] for e in payload["exceptional"]] == ["DegenerateTies"] * 3
    assert payload["exceptional"][0]["s"] == "1/2"


def test_scan_domain_violation_exit_code(capsys, tmp_path):
    curve = write_power_curve(tmp_path, 2)
    code, out, err = run_cli(
        capsys, "scan", "--perm", "2,1", "--curve", curve,
        "--from", "-1", "--to", "1", "--samples", "5",
    )
    assert code == 5
    assert out == ""


def test_scan_domain_violation_same_under_jobs(capsys, tmp_path, real_pools):
    curve = write_power_curve(tmp_path, 2)
    code, _, _ = run_cli(
        capsys, "scan", "--perm", "2,1", "--curve", curve,
        "--from", "-1", "--to", "1", "--samples", "5", "--jobs", "4",
    )
    assert code == 5
    # A worker's error reaches the same handler as a serial one, on the
    # smallest grid that forks two workers: a violation at sample 0, one in
    # the second chunk (a = (2 - s, s)) and a reducible permutation.
    late = tmp_path / "late.json"
    late.write_text(json.dumps({"d": 2, "coeffs": [[2, -1], [0, 1]]}))
    first_bad = next(k for k, s in enumerate(_grid(0.5, 3.0, 2 * K)) if s >= 2)
    assert K <= first_bad < 2 * K
    cases = [
        ("2,1", curve, "-1", "1", 5),
        ("2,1", str(late), "0.5", "3", 5),
        ("1,2", curve, "1", "2", 4),
    ]
    samples = str(2 * K)
    for perm, path, lo, hi, exit_code in cases:
        argv = ["scan", "--perm", perm, "--curve", path, "--from", lo, "--to", hi,
                "--samples", samples]
        serial = run_cli(capsys, *argv, "--jobs", "1")
        assert serial[0] == exit_code
        assert serial[2].startswith("error:")
        real_pools.clear()
        assert run_cli(capsys, *argv, "--jobs", "2") == serial
        assert run_cli(capsys, *argv, "--jobs", "4") == serial
        assert real_pools == [2, 2]


def test_scan_curve_file_problems_are_validation_errors(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run_cli(capsys, "scan", "--perm", "2,1", "--curve", missing,
                   "--from", "1", "--to", "2", "--samples", "3")[0] == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{не json")
    assert run_cli(capsys, "scan", "--perm", "2,1", "--curve", str(bad_json),
                   "--from", "1", "--to", "2", "--samples", "3")[0] == 2

    wrong_d = tmp_path / "wrongd.json"
    wrong_d.write_text(json.dumps({"d": 3, "coeffs": [[0, 1], [0, 1]]}))
    assert run_cli(capsys, "scan", "--perm", "2,1", "--curve", str(wrong_d),
                   "--from", "1", "--to", "2", "--samples", "3")[0] == 2

    curve = write_power_curve(tmp_path, 2)
    assert run_cli(capsys, "scan", "--perm", "3,2,1", "--curve", curve,
                   "--from", "1", "--to", "2", "--samples", "3")[0] == 2
    assert run_cli(capsys, "scan", "--perm", "2,1", "--curve", curve,
                   "--from", "2", "--to", "1", "--samples", "3")[0] == 2


# ---------------------------------------------------------------------------
# orbit and connections


def test_orbit_periodic_rotation(capsys):
    code, out, _ = run_cli(
        capsys, "orbit", "--perm", "2,1", "--lengths", "1,1",
        "--x0", "1/4", "--iters", "1000", "--refine", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["iterations"] == 1000
    assert payload["frequencies"] == ["1/2", "1/2"]
    assert payload["expected"] == ["1/2", "1/2"]
    assert payload["discrepancy"] == "0/1"
    assert payload["discrepancy_float"] == 0.0
    assert payload["refinement_cells"] == 2
    assert payload["empirical"] is True


def test_orbit_refinement_is_bounded_by_the_schema(capsys):
    # The refinement allocates one counter per cell, so its size is capped.
    args = ["orbit", "--perm", "2,1", "--lengths", "1,1", "--x0", "0", "--iters", "1"]
    code, out, err = run_cli(capsys, *args, "--refine", "2000000")
    assert code == 2
    assert out == ""
    assert "error:" in err
    code, out, _ = run_cli(capsys, *args, "--refine", "1048576")
    assert code == 0
    assert json.loads(out)["refinement_cells"] == 1048576


@pytest.mark.parametrize("lengths, iters, refine", [
    ("1,1597/987", 7769, None),
    ("1,1", 1, 1048576),
], ids=["three-periods-and-17", "cells-above-sqrt-n"])
def test_orbit_output_matches_the_full_loop(capsys, lengths, iters, refine):
    # The rotation has period 2584 and 7769 = 3 * 2584 + 17; the second case
    # has cells^2 > n, so the plain loop runs.
    refine_args = [] if refine is None else ["--refine", str(refine)]
    code, out, err = run_cli(
        capsys, "orbit", "--perm", "2,1", "--lengths", lengths, "--x0", "0",
        "--iters", str(iters), *refine_args,
    )
    refine = refine or 64
    t = build_iet(validate_permutation([2, 1]), [F(v) for v in lengths.split(",")])
    stats = reference_visit_frequencies(t, F(0), iters, refine)
    expected = {
        "iterations": iters,
        "frequencies": list(stats.frequencies),
        "expected": list(stats.expected),
        "discrepancy": stats.discrepancy,
        "discrepancy_float": float(stats.discrepancy),
        "refinement_cells": refine,
        "refinement_discrepancy": stats.refinement_discrepancy,
        "refinement_discrepancy_float": float(stats.refinement_discrepancy),
        "empirical": True,
    }
    assert (code, out, err) == (0, canonical_json(expected) + "\n", "")


def test_orbit_rejects_point_outside_domain(capsys):
    code, _, err = run_cli(
        capsys, "orbit", "--perm", "2,1", "--lengths", "1,1",
        "--x0", "5", "--iters", "10",
    )
    assert code == 2
    assert "error:" in err


def test_connections_finds_first_hit(capsys):
    code, out, _ = run_cli(
        capsys, "connections", "--perm", "2,1", "--lengths", "1,1", "--max-m", "3"
    )
    assert code == 0
    assert json.loads(out) == {
        "connections": [{"i": 1, "j": 1, "m": 2}],
        "max_m": 3,
    }


def test_connections_empty_result(capsys):
    code, out, _ = run_cli(
        capsys, "connections", "--perm", "2,1", "--lengths", "1,1597/987", "--max-m", "100"
    )
    assert code == 0
    assert json.loads(out)["connections"] == []
