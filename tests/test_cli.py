"""End-to-end tests of the command-line interface.

Every subcommand is exercised through a real subprocess; reports are
validated against the bundled JSON schema and must be byte-identical
across repeated runs and across the numeric libraries' thread counts.
"""

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
import pytest
from scipy.linalg import lapack

import heisenberg_hardy.cli as cli
from heisenberg_hardy import numerics, special
from heisenberg_hardy.numerics import QuadratureError, SLProblem, sl_min_eig

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
    ["euclid", "--d", "3", "--a", "0.5", "--gamma", "-0.45"],
    ["curves", "--fn", "v", "--grid", "32"],
    ["curves", "--fn", "w", "--grid", "32"],
]


# Thread caps of the BLAS/OpenMP pools under numpy and scipy.
_ONE_THREAD = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


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


# stdout of every ALL_COMMANDS argv, with the Python and numpy versions that
# wrote it.  Rewrite it with `PYTHONPATH=src python tests/test_cli.py` after a
# change that moves output on purpose, and list every moved value in CHANGES.md.
_GOLDEN = Path(__file__).parent / "data" / "cli_stdout.json"


def _stdout_of(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    return code, out.getvalue()


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: " ".join(a))
def test_stdout_matches_golden(args):
    golden = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    code, out = _stdout_of(args)
    assert code == 0
    assert out == golden["stdout"][" ".join(args)], (
        f"golden written by Python {golden['python']}, numpy {golden['numpy']}; "
        f"this is Python {platform.python_version()}, numpy {np.__version__}")


@pytest.mark.parametrize("args", ALL_COMMANDS[:6] + ALL_COMMANDS[12:17], ids=lambda a: " ".join(a))
def test_byte_identical_across_runs_and_threads(args):
    a = _run(args)
    b = _run(args)
    c = _run(args, env_extra=_ONE_THREAD)
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


def test_pole_and_half_space_limits(capsys):
    # phi has the signed pole of v and w at r = +-0, and the Santalo bound
    # underflows to 0 once alpha^2 overflows, instead of failing
    for r, value in (("0", "inf"), ("-0.0", "-inf")):
        for fn in ("phi", "w"):
            assert cli.main(["eval", "--fn", fn, "--r", r]) == 0
            assert json.loads(capsys.readouterr().out)["outputs"]["value"] == value
    assert cli.main(["cone-bounds", "--n", "1", "--alpha", "1e160"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["santalo"] == 0
    assert cli.main(["invert-phi", "--a", "inf"]) == 0
    assert json.loads(capsys.readouterr().out)["residuals"]["phi_roundtrip"] == 0


@pytest.mark.parametrize("xi", ["0,0", "1e-10,0"])
def test_dist_near_the_largest_float(capsys, xi):
    # 4 pi |z| overflows at |z| = 1e308, but its root, the distance of both
    # points to within 1e-164, does not
    assert cli.main(["dist", "--xi", xi, "--z", "1e308"]) == 0
    with mpmath.workdps(50):
        ref = float(mpmath.sqrt(4 * mpmath.pi * mpmath.mpf(1e308)))
    distance = json.loads(capsys.readouterr().out)["outputs"]["distance"]
    assert abs(distance - ref) <= 1e-15 * ref


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


@pytest.mark.parametrize("fn", ["v", "w"])
@pytest.mark.parametrize("grid", [33, 1024])
def test_curves_rows_are_bit_equal_to_scalar_calls(fn, grid, capsys):
    assert cli.main(["curves", "--fn", fn, "--grid", str(grid)]) == 0
    rows = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    rs = [r for r in (-special.TWO_PI + 4.0 * math.pi * i / grid for i in range(1, grid))
          if r != 0.0]
    assert [row["r"] for row in rows] == rs
    scalar = getattr(special, fn)
    for row, r in zip(rows, rs):
        assert row["value"] == float(scalar(r)), r


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    proc = _run(["eval", "--fn", "eta", "--r", "1.0", "--out", str(out)])
    assert proc.returncode == 0 and proc.stdout == ""
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)


_VALIDATION_ERRORS = [
    (["eval", "--fn", "phi", "--r", "7.0"], "r must be finite with |r| <= 2*pi (max |r| = 7.0)"),
    (["invert-phi", "--a", "-1"], "invert_phi: a must be in [0, inf]"),
    (["geodesic", "--varpi", "1,0", "--pz", "3.0", "--steps", "4", "--tmax", "3.0"],
     "geodesic: tmax * |pz| must stay below 2*pi"),
    (["sl", "--n", "1", "--rho", "0.0", "--grid", "512"],
     "sl_perp_estimate: unweighted case needs rho > 0 (Dirichlet node exists)"),
    (["euclid", "--d", "2", "--a", "0.5", "--gamma", "1.0"],
     "euclid_quotient: d must be an integer >= 3"),
    (["curves", "--fn", "v", "--grid", "8"], "--grid must be at least 32"),
    (["to-polar", "--xi", "1,0,0", "--z", "0.0"], "--xi: needs an even number of components"),
    (["eval", "--fn", "mu", "--r", "7"], "r must be finite with |r| <= 2*pi (max |r| = 7.0)"),
    (["eval", "--fn", "gamma", "--r", "nan"], "r must be finite with |r| <= 2*pi (max |r| = nan)"),
    (["eval", "--fn", "mu", "--r", "1", "--n", "0"], "n must be a positive integer, got 0"),
    (["eval", "--fn", "mu", "--r", "1", "--n", "-3"], "n must be a positive integer, got -3"),
    (["check", "identities", "--n", "0"], "n must be a positive integer, got 0"),
    (["check", "identities", "--n", "-2"], "n must be a positive integer, got -2"),
    (["check", "divergence", "--n", "0"], "n must be a positive integer, got 0"),
    (["check", "annulus", "--n", "0"], "n must be a positive integer, got 0"),
    (["from-polar", "--t", "nan", "--varpi", "1,0", "--r", "1"],
     "Polar: requires finite t >= 0 and |r| <= 2*pi"),
    (["dist", "--xi", "inf,0", "--z", "1"], "to_polar: xi and z must be finite"),
    (["check", "frame", "--samples", "0"], "--samples must be at least 1"),
    (["check", "frame", "--samples", "-3"], "--samples must be at least 1"),
    (["check", "jacobian", "--samples", "0"], "--samples must be at least 1"),
    (["eval", "--fn", "gamma", "--r", "1", "--n", "0"], "n must be a positive integer, got 0"),
    (["eval", "--fn", "phi", "--r", "1", "--n", "-1"], "n must be a positive integer, got -1"),
    (["sharpness", "--steps", "0"],
     "default_gamma_schedule: count must be a positive integer, got 0"),
    # every check suite reads --n through special._dimension before any other work
    (["check", "frame", "--n", "0"], "n must be a positive integer, got 0"),
    (["check", "frame", "--n", "-1"], "n must be a positive integer, got -1"),
    (["check", "jacobian", "--n", "-2"], "n must be a positive integer, got -2"),
    (["check", "divergence", "--n", "-1"], "n must be a positive integer, got -1"),
    # --varpi is checked before it is normalized: no numpy warning, no later error
    (["geodesic", "--pz", "1.0", "--varpi", "0,0"],
     "geodesic: --varpi must be finite and nonzero, got '0,0'"),
    (["geodesic", "--pz", "1.0", "--varpi", "inf,0"],
     "geodesic: --varpi must be finite and nonzero, got 'inf,0'"),
    (["geodesic", "--pz", "1.0", "--varpi", "1,nan"],
     "geodesic: --varpi must be finite and nonzero, got '1,nan'"),
]


@pytest.mark.parametrize("args, message", _VALIDATION_ERRORS,
                         ids=[" ".join(args) for args, _ in _VALIDATION_ERRORS])
def test_validation_errors_exit_2(args, message):
    proc = _run(args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_geodesic_varpi_of_any_finite_length(capsys):
    # only the direction of --varpi counts: lengths whose square under- or
    # overflows give the output of the unit vector
    def varpi_out(varpi):
        assert cli.main(["geodesic", "--pz", "1.0", "--steps", "2", "--varpi", varpi]) == 0
        return json.loads(capsys.readouterr().out)["inputs"]["varpi"]

    assert varpi_out("1e-320,0") == varpi_out("1e200,0") == varpi_out("1,0") == [1.0, 0.0]
    assert varpi_out("1e308,1e308") == varpi_out("3e-310,3e-310") == varpi_out("1,1")


def test_removed_tol_and_max_evals_exit_2(capsys):
    for option in (["--tol", "1e-3"], ["--max-evals", "10"]):
        assert cli.main(["koranyi-bound", "--n", "1"] + option) == 2
        assert "usage:" in capsys.readouterr().err


def test_grid_and_seed_only_where_read(capsys):
    # --grid is read by sl, curves and check identities, --seed by check
    # frame, jacobian and divergence, --samples by check frame and jacobian
    for argv in (["koranyi-bound", "--n", "1", "--seed", "5"],
                 ["eval", "--fn", "phi", "--r", "1", "--grid", "64"],
                 ["check", "frame", "--grid", "64"],
                 ["check", "identities", "--seed", "9"],
                 ["check", "identities", "--samples", "7"],
                 ["check", "divergence", "--samples", "7"],
                 ["check", "annulus", "--seed", "9"],
                 ["check", "annulus", "--grid", "64"],
                 ["check", "--n", "1", "annulus"]):
        assert cli.main(argv) == 2
        assert "usage:" in capsys.readouterr().err
    assert cli.main(["check", "identities", "--n", "1", "--grid", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["grid_size"] == 64


_LAZY_SCIPY_CHILD = """
import contextlib, io, json, math, sys
import heisenberg_hardy
from heisenberg_hardy import cli
from heisenberg_hardy.numerics import SLProblem, sl_min_eig
loaded = ["scipy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "--fn", "phi", "--r", "1"]) == 0
loaded.append("scipy" in sys.modules)
res = sl_min_eig(SLProblem(p=lambda x: x * x, q=lambda x: 1.0 + 0.0 * x, a=1.0, b=math.e,
                           grid_n=256))
loaded.append("scipy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["sl", "--n", "1", "--rho", "1.5", "--grid", "256", "--weighted"]) == 0
linalg = "scipy.linalg" in sys.modules
from scipy.linalg import lapack
from heisenberg_hardy import numerics
print(json.dumps({"loaded": loaded, "linalg": linalg,
                  "same": numerics._lapack().dpttrf is lapack.dpttrf,
                  "result": [x.hex() for x in (res.lambda_min,) + tuple(res.bracket)]}))
"""


def test_scipy_loads_only_for_sl_min_eig():
    # one child for all three stages: scipy must not be in sys.modules
    # before the first SL solve, the solves (and `hh sl`) must not import
    # the scipy.linalg package, and the solve must match this process's,
    # which loaded the same routines through scipy.linalg (imported above);
    # the child imports scipy.linalg after its solves, the other order
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY_CHILD],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["loaded"] == [False, False, True]
    assert child["linalg"] is False
    assert child["same"] is True
    assert numerics._lapack().dpttrf is lapack.dpttrf
    res = sl_min_eig(SLProblem(p=lambda x: x * x, q=lambda x: 1.0 + 0.0 * x, a=1.0, b=math.e,
                               grid_n=256))
    assert child["result"] == [x.hex() for x in (res.lambda_min,) + tuple(res.bracket)]


def test_numerical_failure_exit_3(monkeypatch, capsys):
    def boom(n, rtol=1e-12):
        raise QuadratureError("synthetic stall")

    monkeypatch.setattr(cli.hardy, "koranyi_upper_bound", boom)
    rc = cli.main(["koranyi-bound", "--n", "1"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


if __name__ == "__main__":
    stdout = {}
    for args in ALL_COMMANDS:
        code, stdout[" ".join(args)] = _stdout_of(args)
        assert code == 0, args
    _GOLDEN.parent.mkdir(exist_ok=True)
    _GOLDEN.write_text(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                                   "stdout": stdout}, indent=1) + "\n", encoding="utf-8")
