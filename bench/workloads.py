"""Seeded workloads: input streams, operations, correctness checks, and the
register of known-defect inputs.

Every workload is a stream of operations drawn from ``numpy.random`` seeded by
the benchmark's ``--seed``; the library receives only the generated inputs.
An operation is ``Op(kind, run, ctx)``: ``run()`` makes the library calls and
returns their outputs, and ``check(op, out)`` returns ``None`` or the name of
the first check the output fails.  Checks run outside the timed region.

Library functions are always called through their module attribute
(``geometry.to_polar(...)``), so the tracer's wrappers see every call.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# Relative tolerances of the checks.  The chart tolerance is the one the
# library's own `hh check frame` applies; near the center the distance
# amplifies the last-ulp rounding of a dilated point by ~1/(2*pi - |r|), so
# covariance gets the same one.  The quotient identities are exact up to
# rounding and get tighter ones.
TOL_CHART = 1e-9
TOL_SPLIT = 1e-12
TOL_INVARIANCE = 1e-9
TOL_RADIAL = 1e-9
TOL_KERNEL = 1e-12

VARIANTS = ("full", "radial", "perp", "perp_weighted", "garofalo")
SL_LADDER = (256, 1024, 4096, 16384)

# Largest bump dilation s per dimension n at which the library's quadrature
# converges; beyond it `separable_quotient` raises QuadratureError after
# ~10^6 evaluations (absolute tolerance on integrals of size s^(2n+1)).
# Those inputs are in hardy_defects, not in the timed stream.
S_MAX = {1: 10.0, 2: 3.0, 3: 1.0}


@dataclass
class Op:
    kind: str
    run: object
    ctx: dict = field(default_factory=dict)
    starts_pass: bool = False     # first op of a stratified pass of the stream


def _passes(blocks):
    """Mark the first operation of every block (one pass) of a stream."""
    for block in blocks:
        for i, op in enumerate(block):
            op.starts_pass = i == 0
            yield op


def _lib():
    from heisenberg_hardy import cli, geometry, hardy, numerics, special
    return {"special": special, "numerics": numerics, "geometry": geometry,
            "hardy": hardy, "cli": cli}


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0.0 else abs(a)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# ----------------------------------------------------------------------
# chart-points
# ----------------------------------------------------------------------

# One block of 20 points: the shape a = |xi|^2/|z| is log-uniform within each
# stratum, so the share of points near the center (a -> 0, r -> 2*pi) and
# near the plane z = 0 (a -> inf, r -> 0) is fixed.  The range a in
# [1e-6, 1e4] is where the library meets TOL_CHART for
# every direction and scale (worst frame Gram error 4e-12 and 4e-10 at the
# two ends); inputs beyond it are in chart_defects.
CHART_BLOCK = (("body", 1e-2, 1e2),) * 12 + (("center", 1e-6, 1e-2),) * 3 + \
    (("plane", 1e2, 1e4),) * 3 + (("on_center", 0.0, 0.0), ("on_plane", 0.0, 0.0))


def chart_op(p, lam, label):
    geometry = _lib()["geometry"]

    def run():
        c = geometry.to_polar(p)
        back = geometry.from_polar(c)
        d_lam = geometry.cc_distance(geometry.dilate(lam, p))
        fr = jac = None
        if 0.0 < abs(c.r) < TWO_PI:
            fr = geometry.frame(c)
            jac = geometry.jacobian(c)
        return c, back, d_lam, fr, jac

    return Op("point", run, {"p": p, "lam": lam, "label": label})


def _chart_point(rng, i, label, lo, hi):
    n = 1 + i % 3
    direction = rng.normal(size=2 * n)
    direction /= np.linalg.norm(direction)
    scale = _log_uniform(rng, 1e-4, 1e4)
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    if label == "on_center":
        xi, z = np.zeros(2 * n), sign
    elif label == "on_plane":
        xi, z = direction, 0.0
    else:
        xi, z = math.sqrt(_log_uniform(rng, lo, hi)) * direction, sign
    p = _lib()["geometry"].Point(scale * xi, scale * scale * z)
    return chart_op(p, _log_uniform(rng, 1e-3, 1e3), label)


def chart_block(points):
    """One operation: a stratified block of point operations.  A single point
    takes about 5 ms, so with points as operations the tail would sit at
    p99.8, where host hiccups of 10-20 ms decide it; a block takes ~100 ms."""
    def run():
        return [point.run() for point in points]
    return Op("block", run, {"points": points})


def chart_stream(rng):
    def block():
        return [chart_block([_chart_point(rng, i, *stratum)
                             for i, stratum in enumerate(CHART_BLOCK)])]
    return _passes(iter(block, None))


def check_chart_block(op, out):
    for point, point_out in zip(op.ctx["points"], out):
        failure = check_chart(point, point_out)
        if failure:
            return f"{failure} at {describe(point)}"
    return None


def check_chart(op, out):
    special = _lib()["special"]
    geometry = _lib()["geometry"]
    p, lam = op.ctx["p"], op.ctx["lam"]
    c, back, d_lam, fr, jac = out
    nxi = float(np.linalg.norm(p.xi))
    err_xi = float(np.linalg.norm(back.xi - p.xi)) / nxi if nxi else float(np.linalg.norm(back.xi))
    if max(err_xi, _rel(back.z, p.z)) > TOL_CHART:
        return "round_trip"
    if _rel(d_lam, lam * c.t) > TOL_CHART:
        return "dilation_covariance"
    if fr is not None:
        mat = np.stack([vec.v_xi for vec in fr.vectors])
        if float(np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0])))) > TOL_CHART:
            return "frame_gram"
        for vec in fr.vectors:
            _, resid = geometry.is_horizontal(vec)
            scale = 0.5 * float(np.linalg.norm(vec.base.xi)) * vec.norm_horizontal() + abs(vec.v_z)
            if resid > TOL_CHART * scale:
                return "frame_horizontality"
        ref = c.t ** (2 * c.n + 1) * special.mu(c.r, c.n)
        if _rel(jac.det, ref) > TOL_CHART:
            return "jacobian_det"
    return None


def _polar_point(n, r):
    geometry = _lib()["geometry"]
    varpi = np.zeros(2 * n)
    varpi[0] = 1.0
    return geometry.from_polar(geometry.Polar(1.0, varpi, r))


def chart_defects():
    """Known-defect inputs of the library, each with the check it fails."""
    geometry = _lib()["geometry"]
    cases = [(f"round trip (xi={xi:g}, z={z:g})", geometry.Point([xi, 0.0], z), "round_trip")
             for xi, z in ((1e-8, 1.0), (1e-12, 1.0), (1e-150, 1e150), (1.0, 1e-16), (1.0, 1e-20))]
    cases += [("frame n=2 near the center (xi=(1,1,1,1)*sqrt(1e-9)/2, z=1)",
               geometry.Point(np.full(4, 0.5 * math.sqrt(1e-9)), 1.0), "frame_gram"),
              ("frame n=2 at r=1e-6", _polar_point(2, 1e-6), "frame_gram"),
              ("frame n=2 at r=1e-8", _polar_point(2, 1e-8), "ZeroDivisionError"),
              ("frame n=2 at 2pi-r=1e-9", _polar_point(2, TWO_PI - 1e-9), "ZeroDivisionError")]
    return [(label, chart_block([chart_op(p, 2.0, "defect")]), expect)
            for label, p, expect in cases]


# ----------------------------------------------------------------------
# hardy-quotients
# ----------------------------------------------------------------------

def _separable(hardy, cone, s):
    h = hardy.smoothstep_profile(cone.rho, 0.5 * (TWO_PI - cone.rho))
    return hardy.SeparableFn(g=hardy.bump_profile(0.5 * s, 3.0 * s), h=h)


def hardy_group(n, alpha, s, k):
    """The twelve operations on one cone; they share ``group`` for the split check."""
    hardy = _lib()["hardy"]
    cone = hardy.ConeSpec.from_alpha(n, alpha)
    u = _separable(hardy, cone, s)
    group = {"n": n, "cone": cone, "s": s, "k": k}
    ops = [Op(f"separable.{v}", (lambda v=v: hardy.separable_quotient(u, cone, variant=v)),
              {"group": group, "variant": v}) for v in VARIANTS]
    ops.append(Op("sharpness", lambda: hardy.sharpness_sweep(cone), {"group": group}))
    ops.append(Op("koranyi", lambda: hardy.koranyi_upper_bound(n), {"group": group}))
    ops.append(Op("radial", lambda: hardy.radial_sequence_quotient(k), {"group": group}))
    ops += [Op(f"sl.{grid}", (lambda grid=grid: hardy.sl_perp_estimate(cone, grid, weighted=True)),
               {"group": group}) for grid in SL_LADDER]
    return ops


def hardy_stream(rng):
    def block():
        ops = []
        for n in (1, 2, 3):
            alpha = _log_uniform(rng, 1e-2, 1e2)
            s = _log_uniform(rng, 0.1, S_MAX[n])
            k = _log_uniform(rng, 4.0, 4096.0)
            ops += hardy_group(n, alpha, s, k)
        return ops
    return _passes(iter(block, None))


def check_hardy(op, out):
    hardy = _lib()["hardy"]
    group = op.ctx["group"]
    n = group["n"]
    quarter = n * n / 4.0
    if op.kind.startswith("separable."):
        v = op.ctx["variant"]
        group[v] = out
        if not (math.isfinite(out) and out > 0.0):
            return "quotient_positive"
        if v == "perp":
            if "full" not in group or "radial" not in group:
                return "full_split"
            if _rel(group["radial"] + out, group["full"]) > TOL_SPLIT:
                return "full_split"
        ref = hardy.separable_quotient(_separable(hardy, group["cone"], 1.0), group["cone"],
                                       variant=v)
        if _rel(out, ref) > TOL_INVARIANCE:
            return "dilation_invariance"
    elif op.kind == "sharpness":
        if not all(value >= quarter for _, value in out):
            return "sharpness_above_quarter"
    elif op.kind == "koranyi":
        if not 0.0 < out < n * n:
            return "koranyi_below_n2"
    elif op.kind == "radial":
        if _rel(out, 3.0 / math.log(group["k"]) ** 2) > TOL_RADIAL:
            return "radial_closed_form"
    elif op.kind.startswith("sl."):
        if not out.lambda_min >= quarter:
            return "sl_above_quarter"
    return None


def hardy_defects():
    cases = []
    for n, s in ((2, 10.0), (3, 3.0), (3, 10.0)):
        op = hardy_group(n, 4.0, s, 16.0)[0]
        cases.append((f"separable full n={n} alpha=4 s={s:g}", op, "QuadratureError"))
    return cases


# ----------------------------------------------------------------------
# kernel-bulk
# ----------------------------------------------------------------------

KERNEL_SIZE = 10 ** 6
# Exact special points placed at the head of each half of the array.
KERNEL_SPECIAL = (0.0, 0.25, math.pi, TWO_PI)


def kernel_array(rng, size=KERNEL_SIZE):
    """``size`` values of r, odd-symmetric (second half = -first half), with
    fixed shares in the series region |r| < 0.25 and within 2*pi - |r| in
    [1e-4, 1e-2].  Closer to 2*pi than 1e-4 the kernels lose relative
    accuracy (see kernel_defects), so no value is drawn there; the exact
    endpoints +-2*pi are among KERNEL_SPECIAL."""
    half = size // 2
    n_series, n_edge = half // 10, half // 10
    body = half - n_series - n_edge - len(KERNEL_SPECIAL)
    parts = [np.array(KERNEL_SPECIAL),
             rng.uniform(0.0, 0.25, n_series),
             TWO_PI - np.exp(rng.uniform(math.log(1e-4), math.log(1e-2), n_edge)),
             rng.uniform(0.0, TWO_PI - 1e-4, body)]
    pos = np.concatenate(parts)
    return np.concatenate([pos, -pos])


def kernel_ops(r, n):
    special = _lib()["special"]
    ctx = {"r": r, "n": n}
    return [Op("eval_weights", lambda: special.eval_weights(r, n), ctx),
            Op("mu", lambda: special.mu(r, n), ctx),
            Op("gamma", lambda: special.gamma(r), ctx),
            Op("eta", lambda: special.eta(r), ctx),
            Op("check_identities", lambda: special.check_identities(n), ctx)]


def kernel_stream(rng):
    ns = itertools.cycle((1, 2, 3))
    return _passes(iter(lambda: kernel_ops(kernel_array(rng), next(ns)), None))


def _odd_even_ok(values, even, chunk=100_000):
    half = values.size // 2
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        a = values[lo:hi]
        b = values[half + lo:half + hi]
        ok = np.isfinite(a) & np.isfinite(b)
        target = a if even else -a
        if np.any(np.abs(b[ok] - target[ok]) > TOL_KERNEL * np.maximum(1.0, np.abs(a[ok]))):
            return False
    return True


def _eta_identity_ok(eta_v, w_v, chunk=100_000):
    for lo in range(0, eta_v.size, chunk):
        w2 = w_v[lo:lo + chunk] ** 2
        e = eta_v[lo:lo + chunk]
        ok = np.isfinite(w2)
        if np.any(np.abs(e[ok] - w2[ok] / (1.0 + w2[ok])) > TOL_KERNEL * np.maximum(1e-300, e[ok])):
            return False
    return True


def check_kernel(op, out):
    n = op.ctx["n"]
    i0, i_pi, i_2pi = 0, 2, 3            # indices of 0, pi, 2*pi in KERNEL_SPECIAL
    mu_pi = 4.0 ** n / math.pi ** (2 * n + 2)
    if op.kind == "eval_weights":
        if _rel(out.phi[i_pi], 8.0 / math.pi) > TOL_KERNEL:
            return "phi_pi"
        if _rel(out.mu[i_pi], mu_pi) > TOL_KERNEL:
            return "mu_pi"
        if _rel(out.w[i_pi], 0.5 * math.pi) > TOL_KERNEL:
            return "w_pi"
        for name, even in (("phi", False), ("mu", True), ("v", False), ("w", False),
                           ("gamma", True), ("eta", True)):
            if not _odd_even_ok(getattr(out, name), even):
                return f"parity_{name}"
        if not _eta_identity_ok(out.eta, out.w):
            return "eta_identity"
    elif op.kind == "mu":
        if _rel(out[i_pi], mu_pi) > TOL_KERNEL or _rel(out[i0], 1.0 / 12.0) > TOL_KERNEL:
            return "mu_closed_form"
        if not _odd_even_ok(out, True):
            return "parity_mu"
    elif op.kind == "gamma":
        if _rel(out[i0], 1.0) > TOL_KERNEL or _rel(out[i_2pi], 1.0 / math.sqrt(math.pi)) > TOL_KERNEL:
            return "gamma_closed_form"
        if not _odd_even_ok(out, True):
            return "parity_gamma"
    elif op.kind == "eta":
        if _rel(out[i0], 1.0) > TOL_KERNEL or abs(out[i_2pi]) > TOL_KERNEL:
            return "eta_closed_form"
        if not _odd_even_ok(out, True):
            return "parity_eta"
    elif op.kind == "check_identities":
        if not out.passed:
            return "identities_passed"
    return None


def kernel_defects():
    """eta = w^2/(1 + w^2) fails TOL_KERNEL near |r| = 2*pi: c2 is computed from
    sinc(r/(2*pi)), whose argument keeps only eps/(2*pi - |r|) relative accuracy."""
    cases = []
    for delta in (1e-6, 1e-8):
        pos = np.array(KERNEL_SPECIAL + (TWO_PI - delta,))
        cases.append((f"eval_weights eta identity at 2pi-|r|={delta:g}",
                      kernel_ops(np.concatenate([pos, -pos]), 1)[0], "eta_identity"))
    return cases


# ----------------------------------------------------------------------
# cli-mix
# ----------------------------------------------------------------------

CLI_KINDS = ("eval", "invert-phi", "dist", "to-polar", "koranyi-bound", "cone-bounds",
             "sharpness", "sl", "check frame", "check jacobian", "check identities",
             "radial", "curves", "geodesic")


def _vec(rng, n):
    return ",".join(repr(x) for x in rng.normal(size=2 * n).tolist())


def cli_args(kind, rng):
    """Seeded argv for one subcommand, as ``--option=value`` so that negative
    numbers are not taken for options.  `check` suites keep the CLI's default
    --seed 0: for about 2% of other seeds `check frame` samples |r| < 7e-4,
    where the frame defect in chart_defects fails its 1e-9 tolerance
    (cli_defects lists two such seeds)."""
    n = int(rng.integers(1, 4))
    if kind == "eval":
        fn = ("phi", "mu", "v", "w", "gamma", "eta")[int(rng.integers(0, 6))]
        return ["eval", f"--fn={fn}", f"--r={rng.uniform(0.1, 6.2)!r}", f"--n={n}"]
    if kind == "invert-phi":
        return ["invert-phi", f"--a={_log_uniform(rng, 1e-3, 1e3)!r}"]
    if kind in ("dist", "to-polar"):
        return [kind, f"--xi={_vec(rng, n)}", f"--z={rng.uniform(-2.0, 2.0)!r}"]
    if kind == "koranyi-bound":
        return ["koranyi-bound", f"--n={n}"]
    if kind == "cone-bounds":
        return ["cone-bounds", f"--n={n}", f"--alpha={_log_uniform(rng, 1e-2, 1e2)!r}"]
    if kind == "sharpness":
        return ["sharpness", f"--n={n}", f"--rho={rng.uniform(0.3, 5.5)!r}",
                f"--steps={rng.integers(8, 13)}"]
    if kind == "sl":
        return ["sl", f"--n={n}", f"--rho={rng.uniform(0.3, 5.5)!r}",
                f"--grid={(256, 512, 1024)[int(rng.integers(0, 3))]}", "--weighted"]
    if kind.startswith("check"):
        what = kind.split()[1]
        argv = ["check", what, f"--n={n}"]
        return argv if what == "identities" else argv + [f"--samples={rng.integers(50, 201)}"]
    if kind == "radial":
        return ["radial", f"--kmax={4 ** int(rng.integers(2, 7))}"]
    if kind == "curves":
        return ["curves", f"--fn={('v', 'w')[int(rng.integers(0, 2))]}",
                f"--grid={rng.integers(256, 1025)}"]
    if kind == "geodesic":
        return ["geodesic", f"--pz={rng.uniform(-2.0, 2.0)!r}",
                f"--tmax={rng.uniform(0.5, 2.0)!r}", f"--steps={rng.integers(8, 25)}",
                f"--varpi={_vec(rng, n)}"]
    raise ValueError(kind)


def child_env():
    """Environment of every process the benchmark starts: this process's
    (whose BLAS/OpenMP thread caps run.py sets) with the library on the path."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    paths = env.get("PYTHONPATH", "")
    if paths.split(os.pathsep)[0] != src:
        env["PYTHONPATH"] = src + (os.pathsep + paths if paths else "")
    return env


def run_child(argv, out_dir, env):
    """Run a child to completion; returns (code, stdout, stderr, max RSS in KiB).
    Output goes through files in ``out_dir`` so the child is reaped with wait4."""
    out_path = os.path.join(out_dir, f"child-of-{os.getpid()}.out")
    err_path = os.path.join(out_dir, f"child-of-{os.getpid()}.err")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fo, open(err_path, "rb") as fe:
        out, err = fo.read(), fe.read()
    os.remove(out_path)
    os.remove(err_path)
    return proc.returncode, out, err, usage.ru_maxrss


def cli_op(argv, out_dir, env, prefix=None):
    prefix = prefix or [sys.executable, "-m", "heisenberg_hardy.cli"]
    return Op(argv[0] if argv[0] != "check" else "check " + argv[1],
              lambda: run_child(prefix + argv, out_dir, env), {"argv": argv})


def cli_stream(rng, out_dir, env, prefix=None):
    return _passes(iter(lambda: [cli_op(cli_args(kind, rng), out_dir, env, prefix)
                                 for kind in CLI_KINDS], None))


_SCHEMA = []


def _validator():
    if not _SCHEMA:
        import jsonschema
        with open(os.path.join("src", "heisenberg_hardy", "schema", "report.schema.json"),
                  encoding="utf-8") as fh:
            _SCHEMA.append(jsonschema.Draft7Validator(json.load(fh)))
    return _SCHEMA[0]


def check_cli(op, out):
    code, stdout, _, _ = out
    if code != 0:
        return f"exit_code_{code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "json_parse"
    if not _validator().is_valid(report):
        return "schema"
    if report["outputs"].get("all_passed", True) is not True:
        return "all_passed"
    return None


def cli_defects(out_dir, env):
    return [(f"hh check frame --n={n} --seed={seed}",
             cli_op(["check", "frame", f"--n={n}", f"--seed={seed}"], out_dir, env),
             "all_passed")
            for n, seed in ((1, 36), (2, 45))]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def stream(name, rng, out_dir, env, prefix=None):
    """The seeded operation stream of a workload."""
    if name == "cli-mix":
        return cli_stream(rng, out_dir, env, prefix)
    return {"chart-points": chart_stream, "hardy-quotients": hardy_stream,
            "kernel-bulk": kernel_stream}[name](rng)


def run_op(op, check):
    """Run one operation; returns (latency_ns, output, failed check or None).
    Only ``op.run()`` is timed; the check runs after the timer stops."""
    t0 = time.perf_counter_ns()
    try:
        out = op.run()
        failure = None
    except Exception as exc:          # a raising operation is a counted failure
        out, failure = None, type(exc).__name__
    dt = time.perf_counter_ns() - t0
    if failure is None:
        failure = check(op, out)
    return dt, out, failure


def describe(op):
    """One line naming an operation's inputs, for failure reports."""
    if "argv" in op.ctx:
        return "hh " + " ".join(op.ctx["argv"])
    if "p" in op.ctx:
        p = op.ctx["p"]
        return f"{op.ctx['label']} point xi={p.xi.tolist()!r} z={p.z!r} lam={op.ctx['lam']!r}"
    if "group" in op.ctx:
        g = op.ctx["group"]
        return f"{op.kind} n={g['n']} alpha={g['cone'].alpha!r} s={g['s']!r} k={g['k']!r}"
    if "points" in op.ctx:
        return f"block starting at {describe(op.ctx['points'][0])}"
    return f"{op.kind} n={op.ctx.get('n')}"


# Code a fresh interpreter runs for setup_s: import the package and make the
# first call into each layer the workload uses.
SETUP_CODE = {
    "cli-mix": "from heisenberg_hardy import cli\n"
               "cli.main(['eval', '--fn', 'phi', '--r', '1.0'])\n",
    "chart-points": "from heisenberg_hardy import geometry as g\n"
                    "p = g.Point([0.3, 0.4], 0.2)\n"
                    "c = g.to_polar(p)\n"
                    "g.from_polar(c); g.cc_distance(g.dilate(2.0, p)); g.frame(c); g.jacobian(c)\n",
    "hardy-quotients": "from heisenberg_hardy import hardy as H\n"
                       "cone = H.ConeSpec.from_alpha(1, 4.0)\n"
                       "u = H.SeparableFn(g=H.bump_profile(0.5, 3.0), "
                       "h=H.smoothstep_profile(cone.rho, 1.0))\n"
                       "H.separable_quotient(u, cone); H.sharpness_sweep(cone, [-0.25])\n"
                       "H.koranyi_upper_bound(1); H.radial_sequence_quotient(4.0)\n"
                       "H.sl_perp_estimate(cone, 256)\n",
    "kernel-bulk": "import numpy as np\n"
                   "from heisenberg_hardy import special as S\n"
                   "r = np.linspace(-6.0, 6.0, 64)\n"
                   "S.eval_weights(r, 1); S.mu(r, 1); S.gamma(r); S.eta(r)\n"
                   "S.check_identities(1, grid_size=16)\n",
}

CHECKS = {"cli-mix": check_cli, "chart-points": check_chart_block,
          "hardy-quotients": check_hardy, "kernel-bulk": check_kernel}

# Operations in the traced pass: a fixed prefix of the stream, so the work
# counts of a seed repeat exactly.
TRACE_OPS = {"cli-mix": len(CLI_KINDS), "chart-points": 15,
             "hardy-quotients": 12 * 9, "kernel-bulk": 5}
