"""Command-line front end: every check and sweep, emitted as JSON or CSV.

Reports are deterministic: all randomness is seeded through ``--seed``, all
numbers are serialized with 17 significant digits, and nothing
time- or machine-dependent is written, so identical argv produce
byte-identical output.

Exit codes: 0 success, 2 validation error (bad arguments/domain), 3
numerical failure (tolerance not reachable).
"""

import argparse
import math
import sys

import numpy as np

from . import geometry, hardy, special
from .numerics import QuadratureError, SpherePoly, sphere_integral
from .special import TWO_PI

_EVAL_FNS = ("phi", "mu", "v", "w", "gamma", "eta")


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def _fmt_float(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return "%.17g" % x


def _normalize(obj):
    """Coerce numpy scalars/arrays and tuples into plain python."""
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    return obj


def _json_value(obj, indent):
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, list):
        if not obj:
            return "[]"
        inner = ", ".join(_json_value(v, indent + 1) for v in obj)
        if len(inner) <= 100 and "\n" not in inner:
            return f"[{inner}]"
        lines = (",\n").join("  " * (indent + 1) + _json_value(v, indent + 1) for v in obj)
        return "[\n" + lines + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = []
        for k, v in obj.items():
            key = _json_value(str(k), 0)
            lines.append("  " * (indent + 1) + f"{key}: {_json_value(v, indent + 1)}")
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_report(report):
    """Serialize a report dict to deterministic JSON with %.17g floats."""
    return _json_value(_normalize(report), 0) + "\n"


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_float(v).strip('"')
    return str(v)


def _flatten(obj, prefix=""):
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}.{i}"))
    else:
        out.append((prefix, obj))
    return out


def dumps_csv(report):
    """CSV rendering: a table when the outputs carry ``rows``, else one row.

    One header row, '.' decimal separator, no locale dependence.
    """
    outputs = report.get("outputs", {})
    rows = outputs.get("rows") if isinstance(outputs, dict) else None
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(_normalize(row.get(h))) for h in header))
        return "\n".join(lines) + "\n"
    flat = _flatten(_normalize(report))
    header = ",".join(k for k, _ in flat)
    data = ",".join(_csv_cell(v) for _, v in flat)
    return header + "\n" + data + "\n"


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

def _parse_vec(text, name):
    try:
        vec = np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ValueError(f"{name}: expected comma-separated floats, got {text!r}") from exc
    if vec.size == 0 or vec.size % 2:
        raise ValueError(f"{name}: needs an even number of components")
    return vec


def _report(command, inputs, outputs, tolerances=None, residuals=None):
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "tolerances": tolerances or {},
        "residuals": residuals or {},
    }


def _check_entry(name, residual, tolerance):
    return {"name": name, "residual": float(residual),
            "tolerance": float(tolerance), "passed": bool(residual <= tolerance)}


def _checks_report(command, inputs, entries):
    outputs = {"checks": entries, "all_passed": all(e["passed"] for e in entries)}
    tolerances = {e["name"]: e["tolerance"] for e in entries}
    residuals = {e["name"]: e["residual"] for e in entries}
    return _report(command, inputs, outputs, tolerances, residuals)


def _random_polar(rng, n, t_range=(0.1, 10.0), r_min=1e-6, r_max=TWO_PI - 1e-6):
    t = rng.uniform(*t_range)
    r = rng.uniform(r_min, r_max) * (1.0 if rng.uniform() < 0.5 else -1.0)
    varpi = rng.normal(size=2 * n)
    varpi /= np.linalg.norm(varpi)
    return geometry.Polar(t, varpi, r)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _cmd_eval(args):
    value = getattr(special.eval_weights(args.r, args.n), args.fn)
    return _report("eval", {"fn": args.fn, "r": args.r, "n": args.n}, {"value": value})


def _cmd_invert_phi(args):
    r = special.invert_phi(args.a)
    if math.isinf(args.a):             # r = 0, where phi - a is inf - inf = nan
        resid = 0.0
    else:
        resid = abs(special.eval_phi(r) - args.a) / max(1.0, args.a)
    return _report("invert-phi", {"a": args.a}, {"r": r},
                   {"residual": 1e-12}, {"phi_roundtrip": resid})


def _cmd_dist(args):
    p = geometry.Point(_parse_vec(args.xi, "--xi"), args.z)
    c = geometry.to_polar(p)
    return _report("dist", {"xi": p.xi, "z": p.z},
                   {"distance": c.t, "t": c.t, "varpi": c.varpi, "r": c.r})


def _cmd_to_polar(args):
    p = geometry.Point(_parse_vec(args.xi, "--xi"), args.z)
    c = geometry.to_polar(p)
    back = geometry.from_polar(c)
    resid = max(float(np.max(np.abs(back.xi - p.xi))), abs(back.z - p.z))
    return _report("to-polar", {"xi": p.xi, "z": p.z},
                   {"t": c.t, "varpi": c.varpi, "r": c.r},
                   {"roundtrip": 1e-9}, {"roundtrip": resid})


def _cmd_from_polar(args):
    c = geometry.Polar(args.t, _parse_vec(args.varpi, "--varpi"), args.r)
    p = geometry.from_polar(c)
    if c.t > 0.0:
        back = geometry.to_polar(p)
        p2 = geometry.from_polar(back)
        resid = max(float(np.max(np.abs(p2.xi - p.xi))), abs(p2.z - p.z))
    else:
        resid = 0.0
    return _report("from-polar", {"t": c.t, "varpi": c.varpi, "r": c.r},
                   {"xi": p.xi, "z": p.z},
                   {"roundtrip": 1e-9}, {"roundtrip": resid})


def _cmd_geodesic(args):
    varpi = _parse_vec(args.varpi, "--varpi")
    big = float(np.max(np.abs(varpi)))
    if not 0.0 < big < math.inf:        # NaN fails too
        raise ValueError(f"geodesic: --varpi must be finite and nonzero, got {args.varpi!r}")
    varpi = np.ldexp(varpi, -math.frexp(big)[1])    # exact, so varpi.varpi neither under- nor overflows
    varpi = varpi / np.linalg.norm(varpi)
    if args.tmax <= 0 or args.steps < 1:
        raise ValueError("geodesic: needs tmax > 0 and steps >= 1")
    if args.tmax * abs(args.pz) >= TWO_PI:
        raise ValueError("geodesic: tmax * |pz| must stay below 2*pi")
    rows = []
    max_err = 0.0
    for j in range(args.steps + 1):
        s = args.tmax * j / args.steps
        pt = geometry.geodesic(varpi, args.pz, s)
        delta = geometry.cc_distance(pt)
        max_err = max(max_err, abs(delta - s))
        row = {"s": s}
        for i, x in enumerate(pt.xi):
            row[f"xi{i}"] = float(x)
        row["z"] = pt.z
        row["delta"] = delta
        rows.append(row)
    return _report("geodesic",
                   {"varpi": varpi, "pz": args.pz, "tmax": args.tmax, "steps": args.steps},
                   {"rows": rows},
                   {"delta_vs_s": 1e-9}, {"max_delta_error": max_err})


def _cmd_check_frame(args):
    n = special._dimension(args.n)
    rng = np.random.default_rng(args.seed)
    tol = 1e-9
    gram_max = horiz_max = tnorm_max = eik_max = 0.0
    for _ in range(args.samples):
        c = _random_polar(rng, n)
        fr = geometry.frame(c)
        mat = np.stack([vec.v_xi for vec in fr.vectors])
        gram_max = max(gram_max, float(np.max(np.abs(mat @ mat.T - np.eye(2 * n)))))
        for vec in fr.vectors:
            horiz_max = max(horiz_max, geometry.is_horizontal(vec)[1])
        eik_max = max(eik_max, abs(fr.vectors[0].norm_horizontal() - 1.0))
        ww = special._w(c.r, *c.kernels)
        t_norm2 = float(fr.t_field.v_xi @ fr.t_field.v_xi)
        expected = (1.0 + ww * ww) / (ww * ww)
        tnorm_max = max(tnorm_max, abs(t_norm2 / expected - 1.0))
    entries = [
        _check_entry("gram_identity", gram_max, tol),
        _check_entry("horizontality", horiz_max, tol),
        _check_entry("eikonal", eik_max, tol),
        _check_entry("t_field_norm", tnorm_max, tol),
    ]
    return _checks_report("check frame",
                          {"n": n, "samples": args.samples, "seed": args.seed}, entries)


def _fd_jacobian_det(c, h=1e-5):
    """Finite-difference determinant of Phi at c, same tangent basis layout."""
    n = c.n
    dim = 2 * n + 1
    tangent = np.vstack((geometry._J(c.varpi), c.complement))    # jacobian's sphere columns

    def embed(t, varpi, r):
        pt = geometry.from_polar(geometry.Polar(t, varpi / np.linalg.norm(varpi), r))
        return np.concatenate([pt.xi, [pt.z]])

    cols = np.empty((dim, dim))
    cols[:, 0] = (embed(c.t + h, c.varpi, c.r) - embed(c.t - h, c.varpi, c.r)) / (2 * h)
    for j, th in enumerate(tangent):
        plus = c.varpi * math.cos(h) + th * math.sin(h)
        minus = c.varpi * math.cos(h) - th * math.sin(h)
        cols[:, 1 + j] = (embed(c.t, plus, c.r) - embed(c.t, minus, c.r)) / (2 * h)
    cols[:, -1] = (embed(c.t, c.varpi, c.r + h) - embed(c.t, c.varpi, c.r - h)) / (2 * h)
    return abs(float(np.linalg.det(cols)))


def _cmd_check_jacobian(args):
    n = special._dimension(args.n)
    rng = np.random.default_rng(args.seed)
    formula_max = fd_max = 0.0
    for _ in range(args.samples):
        c = _random_polar(rng, n, t_range=(0.5, 3.0), r_min=1e-2, r_max=TWO_PI - 1e-2)
        jac = geometry.jacobian(c)
        reference = c.t ** (2 * n + 1) * special.mu(c.r, n)
        formula_max = max(formula_max, abs(jac.det - reference) / reference)
        fd_max = max(fd_max, abs(_fd_jacobian_det(c) - reference) / reference)
    entries = [
        _check_entry("det_vs_mu_formula", formula_max, 1e-9),
        _check_entry("det_vs_finite_difference", fd_max, 1e-6),
    ]
    return _checks_report("check jacobian",
                          {"n": n, "samples": args.samples, "seed": args.seed}, entries)


def _cmd_check_identities(args):
    grid = args.grid if args.grid is not None else 10_000
    rep = special.check_identities(args.n, grid_size=grid)
    entries = [_check_entry(name, residual, tol) for (name, tol), residual in
               zip(special._IDENTITY_TOLERANCES.items(), special._identity_residuals(rep))]
    return _checks_report("check identities",
                          {"n": args.n, "grid_size": rep.grid_size,
                           "fd_step": rep.fd_step}, entries)


def _random_sphere_poly(rng, dim, max_terms=6, max_degree=4):
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=dim))
        terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-2.0, 2.0))
    return SpherePoly(dim, terms)


def _cmd_check_divergence(args):
    n = special._dimension(args.n)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(20):
        poly = _random_sphere_poly(rng, 2 * n)
        worst = max(worst, abs(sphere_integral(poly.rotation_derivative(), n)))
    entries = [_check_entry("rotation_divergence", worst, 1e-12)]
    return _checks_report("check divergence", {"n": n, "seed": args.seed}, entries)


def _cmd_check_annulus(args):
    n = args.n
    one = hardy.constant_profile(1.0, (0.0, math.inf))
    t2 = hardy.power_profile(2.0, (0.0, math.inf))
    hr = hardy.Profile(fn=lambda r: 2.0 + np.cos(r),
                       dfn=lambda r: -np.sin(r),
                       support=(-math.inf, math.inf))
    cases = [
        ("constant", hardy.SeparableFn(one, hardy.constant_profile(1.0, (-TWO_PI, TWO_PI))), 1e-12),
        ("t_squared", hardy.SeparableFn(t2, hardy.constant_profile(1.0, (-TWO_PI, TWO_PI))), 1e-8),
        ("t_squared_h", hardy.SeparableFn(t2, hr), 1e-6),
    ]
    entries = []
    for name, f, tol in cases:
        resid = hardy.annulus_identity_check(f, 1.0, 2.0, cone_n=n)
        entries.append(_check_entry(name, resid, tol))
    return _checks_report("check annulus", {"n": n, "R1": 1.0, "R2": 2.0}, entries)


def _cmd_cone_bounds(args):
    cone = hardy.ConeSpec.from_alpha(args.n, args.alpha)
    rep = hardy.cone_bounds(cone)
    return _report("cone-bounds", {"n": args.n, "alpha": args.alpha},
                   {"rho": rep.rho, "lower_dir": rep.lower_dir,
                    "upper_dir": rep.upper_dir, "santalo": rep.santalo,
                    "koranyi_upper": rep.koranyi_upper})


def _cmd_koranyi_bound(args):
    value = hardy.koranyi_upper_bound(args.n)
    n2 = float(args.n * args.n)
    return _report("koranyi-bound", {"n": args.n},
                   {"value": value, "n_squared": n2, "ratio": value / n2},
                   {"strictly_below": n2}, {"margin": n2 - value})


def _cmd_radial(args):
    if args.kmax < 4:
        raise ValueError("radial: kmax must be at least 4")
    ks = []
    k = 4
    while k <= args.kmax:
        ks.append(k)
        k *= 4
    rows = [{"k": k, "quotient": hardy.radial_sequence_quotient(k)} for k in ks]
    values = [row["quotient"] for row in rows]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    return _report("radial", {"kmax": args.kmax},
                   {"rows": rows, "strictly_decreasing": decreasing,
                    "last_value": values[-1]},
                   {"vanishing_threshold": 0.1},
                   {"last_value": values[-1]})


def _cmd_sharpness(args):
    cone = hardy.ConeSpec.from_rho(args.n, args.rho)
    gammas = hardy.default_gamma_schedule(args.steps)
    pairs = hardy.sharpness_sweep(cone, gammas)
    rows = [{"gamma": g, "value": rv} for g, rv in pairs]
    target = args.n * args.n / 4.0
    min_value = min(rv for _, rv in pairs)
    return _report("sharpness",
                   {"n": args.n, "rho": args.rho, "steps": args.steps},
                   {"rows": rows, "min_value": min_value, "target": target},
                   {"lower_bound": target * (1.0 - 1e-6)},
                   {"min_margin": min_value - target})


def _cmd_sl(args):
    cone = hardy.ConeSpec.from_rho(args.n, args.rho)
    grid = args.grid if args.grid is not None else 1024
    res = hardy.sl_perp_estimate(cone, grid_n=grid, weighted=args.weighted)
    return _report("sl",
                   {"n": args.n, "rho": args.rho, "grid": grid,
                    "weighted": bool(args.weighted)},
                   {"lambda_min": res.lambda_min,
                    "bracket_lo": res.bracket[0], "bracket_hi": res.bracket[1]})


def _cmd_euclid(args):
    value = hardy.euclid_quotient(args.d, args.a, args.gamma)
    expected = args.gamma * args.gamma
    return _report("euclid", {"d": args.d, "a": args.a, "gamma": args.gamma},
                   {"value": value, "expected": expected},
                   {"match": 1e-8}, {"abs_error": abs(value - expected)})


def _cmd_curves(args):
    grid = args.grid if args.grid is not None else 1024
    fn = special.v if args.fn == "v" else special.w
    r = -TWO_PI + 4.0 * math.pi * np.arange(1, grid) / grid
    r = r[r != 0.0]
    rows = [{"r": x, "value": y} for x, y in zip(r.tolist(), fn(r).tolist())]
    return _report("curves", {"fn": args.fn, "grid": grid}, {"rows": rows})


# ----------------------------------------------------------------------
# Argument parsing and dispatch
# ----------------------------------------------------------------------

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None)
    # --grid only on the subcommands that read it; main rejects grid < 32
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    gridded.add_argument("--grid", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="hh",
        description="Geodesic polar coordinates and Hardy-inequality checks on the Heisenberg group")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate a special function")
    p.add_argument("--fn", choices=_EVAL_FNS, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("invert-phi", parents=[common], help="solve phi(r) = a")
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(func=_cmd_invert_phi)

    p = sub.add_parser("dist", parents=[common], help="Carnot distance from the identity")
    p.add_argument("--xi", required=True)
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("to-polar", parents=[common], help="group point to polar coordinates")
    p.add_argument("--xi", required=True)
    p.add_argument("--z", type=float, required=True)
    p.set_defaults(func=_cmd_to_polar)

    p = sub.add_parser("from-polar", parents=[common], help="polar coordinates to group point")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--varpi", required=True)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(func=_cmd_from_polar)

    p = sub.add_parser("geodesic", parents=[common], help="sample a unit-speed geodesic")
    p.add_argument("--pz", type=float, required=True)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--tmax", type=float, default=1.0)
    p.add_argument("--varpi", default="1,0")
    p.set_defaults(func=_cmd_geodesic)

    # each check suite takes only the options it reads
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0)
    sampled = argparse.ArgumentParser(add_help=False, parents=[seeded])
    sampled.add_argument("--samples", type=int, default=200)
    p = sub.add_parser("check", help="run a structural check suite")
    suites = p.add_subparsers(dest="what", required=True)
    for what, parent, func, text in (
            ("annulus", common, _cmd_check_annulus, "annulus integration identity"),
            ("divergence", seeded, _cmd_check_divergence, "rotation field is divergence free"),
            ("frame", sampled, _cmd_check_frame, "orthonormal horizontal frame"),
            ("identities", gridded, _cmd_check_identities, "kernel identities on a grid"),
            ("jacobian", sampled, _cmd_check_jacobian, "Jacobian determinant t^(2n+1) mu")):
        q = suites.add_parser(what, parents=[parent], help=text)
        q.add_argument("--n", type=int, default=1)
        q.set_defaults(func=func)

    p = sub.add_parser("cone-bounds", parents=[common], help="bound report for a cone")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_cone_bounds)

    p = sub.add_parser("koranyi-bound", parents=[common], help="gauge-ansatz upper bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_koranyi_bound)

    p = sub.add_parser("radial", parents=[common], help="radial minimizing-sequence quotients")
    p.add_argument("--kmax", type=int, default=4096)
    p.set_defaults(func=_cmd_radial)

    p = sub.add_parser("sharpness", parents=[common], help="weighted sharpness sweep R(gamma)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.5 * math.pi)
    p.add_argument("--steps", type=int, default=12)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("sl", parents=[gridded], help="Sturm-Liouville perpendicular estimate")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.5 * math.pi)
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(func=_cmd_sl)

    p = sub.add_parser("euclid", parents=[common], help="Euclidean cone quotient check")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=_cmd_euclid)

    p = sub.add_parser("curves", parents=[gridded], help="emit v or w curve data (CSV columns r,value)")
    p.add_argument("--fn", choices=("v", "w"), required=True)
    p.set_defaults(func=_cmd_curves)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "grid", None) is not None and args.grid < 32:
            raise ValueError("--grid must be at least 32")
        if getattr(args, "samples", 1) < 1:
            raise ValueError("--samples must be at least 1")
        report = args.func(args)
        text = dumps_csv(report) if args.format == "csv" else dumps_report(report)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
