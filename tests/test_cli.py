"""End-to-end tests of the command-line interface.

Every subcommand is exercised through a real subprocess; reports are
validated against the bundled JSON schema and must be byte-identical
across repeated runs and across HH_THREADS settings.
"""

import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import heisenberg_hardy.cli as cli
from heisenberg_hardy.numerics import QuadratureError

SCHEMA = json.loads(
    resources.files("heisenberg_hardy").joinpath("schema/report.schema.json").read_text())

ALL_COMMANDS = [
    ["eval", "--fn", "phi", "--r", "3.141592653589793"],
    ["eval", "--fn", "mu", "--r", "1.0", "--n", "2"],
    ["eval", "--fn", "v", "--r", "0.5"],
    ["eval", "--fn", "w", "--r", "-2.0"],
    ["eval", "--fn", "gamma", "--r", "6.283185307179586"],
    ["eval", "--fn", "eta", "--r", "1.0"],
    ["invert-phi", "--a", "0"],
    ["invert-phi", "--a", "4.0"],
    ["dist", "--xi", "1,0", "--z", "0.25"],
    ["to-polar", "--xi", "1,0,0,0", "--z", "0.25"],
    ["from-polar", "--t", "1.3", "--varpi", "0.6,0.8", "--r", "2.0"],
    ["geodesic", "--varpi", "1,0", "--pz", "1.0", "--steps", "8", "--tmax", "3.0"],
    ["check", "frame", "--n", "2", "--seed", "3"],
    ["check", "jacobian", "--n", "1", "--seed", "5"],
    ["check", "identities", "--n", "1"],
    ["check", "divergence", "--n", "2", "--seed", "11"],
    ["check", "annulus", "--n", "1"],
    ["cone-bounds", "--n", "1", "--alpha", "4.0"],
    ["koranyi-bound", "--n", "1"],
    ["radial", "--kmax", "256"],
    ["sharpness", "--n", "1", "--rho", "1.5707963267948966", "--steps", "4"],
    ["sl", "--n", "1", "--rho", "1.5707963267948966", "--grid", "256", "--weighted"],
    ["sl", "--n", "1", "--rho", "1.5707963267948966", "--grid", "256"],
    ["euclid", "--d", "3", "--a", "0.7853981633974483", "--gamma", "1.0"],
    ["curves", "--fn", "v", "--grid", "32"],
    ["curves", "--fn", "w", "--grid", "32"],
]


def _run(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "heisenberg_hardy.cli"] + args,
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: " ".join(a))
def test_subcommand_runs_and_validates(args):
    proc = _run(args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    jsonschema.validate(report, SCHEMA)
    for key in ("command", "inputs", "outputs", "tolerances", "residuals"):
        assert key in report


@pytest.mark.parametrize("args", ALL_COMMANDS[:6] + ALL_COMMANDS[12:17], ids=lambda a: " ".join(a))
def test_byte_identical_across_runs_and_threads(args):
    a = _run(args)
    b = _run(args)
    c = _run(args, env_extra={"HH_THREADS": "7"})
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_check_reports_all_pass():
    # frame seeds 36 (n=1) and 45 (n=2) sample |r| < 7e-4, where 1 - cos r
    # cancels in the naive forms
    for args in (["frame", "--n=1"], ["frame", "--n=3"], ["frame", "--n=1", "--seed=36"],
                 ["frame", "--n=2", "--seed=45"], ["jacobian", "--n=2"],
                 ["identities", "--n=2"], ["divergence", "--n=1"], ["annulus", "--n=2"]):
        proc = _run(["check"] + args)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["outputs"]["all_passed"] is True, args
        for entry in report["outputs"]["checks"]:
            assert entry["passed"], (args, entry)


def test_eval_phi_reference_value():
    proc = _run(["eval", "--fn", "phi", "--r", "3.141592653589793"])
    value = json.loads(proc.stdout)["outputs"]["value"]
    assert abs(value - 8.0 / math.pi) < 1e-12


def test_invert_phi_reference_values():
    proc = _run(["invert-phi", "--a", "0"])
    assert json.loads(proc.stdout)["outputs"]["r"] == 2.0 * math.pi
    proc = _run(["invert-phi", "--a", str(8.0 / math.pi)])
    assert abs(json.loads(proc.stdout)["outputs"]["r"] - math.pi) < 1e-10


def test_cone_bounds_santalo_value():
    proc = _run(["cone-bounds", "--n", "1", "--alpha", "4.0"])
    out = json.loads(proc.stdout)["outputs"]
    assert abs(out["santalo"] - math.pi ** 3 / 8.0) < 1e-12
    assert out["koranyi_upper"] < 1.0


def test_eval_pole_serializes_as_string():
    proc = _run(["eval", "--fn", "w", "--r", "0"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)["outputs"]
    assert out["value"] == "inf"


def test_csv_formats():
    proc = _run(["curves", "--fn", "w", "--grid", "32", "--format", "csv"])
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "r,value"
    assert len(lines) >= 30
    assert all("." in row or "e" in row for row in lines[1:3])

    proc = _run(["eval", "--fn", "phi", "--r", "1.0", "--format", "csv"])
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("command,")

    proc = _run(["geodesic", "--varpi", "1,0", "--pz", "1.0", "--steps", "4",
                 "--tmax", "3.0", "--format", "csv"])
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "s,xi0,xi1,z,delta"
    assert len(lines) == 6  # header + steps 0..4


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _run(["eval", "--fn", "eta", "--r", "1.0", "--out", str(out)])
    assert proc.returncode == 0 and proc.stdout == ""
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)


@pytest.mark.parametrize("args", [
    ["eval", "--fn", "phi", "--r", "7.0"],
    ["invert-phi", "--a", "-1"],
    ["geodesic", "--varpi", "1,0", "--pz", "3.0", "--steps", "4", "--tmax", "3.0"],
    ["sl", "--n", "1", "--rho", "0.0", "--grid", "512"],
    ["euclid", "--d", "2", "--a", "0.5", "--gamma", "1.0"],
    ["curves", "--fn", "v", "--grid", "8"],
    ["to-polar", "--xi", "1,0,0", "--z", "0.0"],
], ids=lambda a: " ".join(a))
def test_validation_errors_exit_2(args):
    proc = _run(args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_bad_hh_threads_exit_2():
    for value in ("0", "-3", "junk"):
        proc = _run(["eval", "--fn", "phi", "--r", "1.0"], env_extra={"HH_THREADS": value})
        assert proc.returncode == 2
        assert "HH_THREADS" in proc.stderr


def test_threads_never_serialized():
    proc = _run(["check", "identities", "--n", "1"], env_extra={"HH_THREADS": "5"})
    assert "HH_THREADS" not in proc.stdout and "threads" not in proc.stdout


def test_numerical_failure_exit_3(monkeypatch, capsys):
    def boom(n, tol=1e-12):
        raise QuadratureError("synthetic stall")

    monkeypatch.setattr(cli.hardy, "koranyi_upper_bound", boom)
    rc = cli.main(["koranyi-bound", "--n", "1"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
