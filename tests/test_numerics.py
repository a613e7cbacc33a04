"""Unit tests for quadrature, root finding, the 1-D eigensolver, and sphere moments."""

import math
import sys

import mpmath
import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrf

from heisenberg_hardy.numerics import (
    QuadratureError,
    SLProblem,
    SpherePoly,
    find_root_monotone,
    integrate,
    sl_min_eig,
    sphere_area,
    sphere_integral,
)
from heisenberg_hardy import hardy, numerics, special

TWO_PI = special.TWO_PI


# ----------------------------------------------------------------------
# Gauss-Kronrod panel and adaptive driver
# ----------------------------------------------------------------------

def test_rule_weights_and_nodes():
    assert abs(sum(numerics._K_WEIGHTS) - 2.0) < 1e-15
    assert abs(sum(numerics._G_WEIGHTS) - 2.0) < 1e-15
    nodes = np.asarray(numerics._GK_NODES)
    assert np.allclose(nodes, -nodes[::-1], atol=0)
    assert np.all(np.abs(nodes) < 1.0)


def test_polynomial_exact_in_one_panel():
    # Gauss degree 13 / Kronrod degree 22: a degree-8 integrand converges
    # with zero estimated error on the very first panel.
    res = integrate(lambda x: 9.0 * x ** 8, 0.0, 1.0)
    assert res.evaluations == 15
    assert abs(res.value - 1.0) < 5e-15


def test_smooth_integrals():
    res = integrate(np.sin, 0.0, math.pi)
    assert abs(res.value - 2.0) < 1e-13
    res = integrate(lambda x: np.exp(-x * x), -8.0, 8.0, rtol=1e-12)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12
    # reversed endpoints are rejected, not silently sign-flipped
    with pytest.raises(ValueError):
        integrate(np.sin, math.pi, 0.0)


def test_log_singularity_without_hint():
    res = integrate(np.log, 0.0, 1.0, rtol=1e-10)
    assert abs(res.value + 1.0) < 1e-10


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_EVALS", 20000)
    with pytest.raises(QuadratureError):
        integrate(lambda x: x ** -0.99, 1e-300, 1.0, rtol=1e-10)


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.where(x < 0.5, np.nan, 1.0), 0.0, 1.0)


def test_scalar_integrand_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_vector_integrand_meets_rtol_per_component():
    # 60 decades apart on shared nodes: a tolerance on the norm of the
    # vector would leave the small component unresolved
    res = integrate(lambda x: np.stack([1e-30 * np.cos(x), 1e30 * np.exp(-x * x)]),
                    -3.0, 3.0, rtol=1e-12)
    exact = np.array([2e-30 * math.sin(3.0), 1e30 * math.sqrt(math.pi) * math.erf(3.0)])
    assert res.value.shape == res.error.shape == (2,)
    assert np.all(np.abs(res.value - exact) <= 1e-12 * np.abs(exact))
    assert np.all(res.error <= 1e-12 * np.abs(res.value))


def test_odd_integrand_on_symmetric_interval_ends():
    # the value cancels to rounding; the 50 eps int |f| floor ends it
    res = integrate(lambda x: x ** 3 * np.exp(x * x), -2.0, 2.0)
    assert abs(res.value) < 1e-12
    res = integrate(lambda x: np.stack([np.sin(x), np.cos(x)]), -math.pi, math.pi)
    assert abs(res.value[0]) < 1e-14 and abs(res.value[1]) < 1e-14


def test_one_dimensional_integrand_returns_floats():
    res = integrate(np.cos, 0.0, 1.0)
    assert type(res.value) is float and type(res.error) is float
    empty = integrate(lambda x: np.stack([x, x]), 1.0, 1.0)
    assert np.array_equal(empty.value, [0.0, 0.0]) and empty.evaluations == 0


def test_budget_and_stall_are_reported(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(numerics, "_MAX_EVALS", 100)
        with pytest.raises(QuadratureError, match="evaluations"):
            integrate(np.log, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="rounding"):
        integrate(lambda x: x ** -0.99, 1e-300, 1.0)


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

def test_root_simple():
    assert abs(find_root_monotone(math.cos, 0.0, 2.0) - math.pi / 2) < 1e-12
    assert abs(find_root_monotone(lambda x: x ** 3 - 8.0, 0.0, 3.0) - 2.0) < 1e-12


def test_root_tol_zero_bisects_to_ulp():
    r = find_root_monotone(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(r - math.sqrt(2.0)) <= 4 * np.finfo(float).eps * math.sqrt(2.0)
    # The collapse test is relative, so a root far below 1 keeps its digits.
    r = find_root_monotone(lambda x: x - 1e-20, 0.0, 1.0)
    assert abs(r - 1e-20) <= 1e-12 * 1e-20


def test_root_requires_bracket():
    with pytest.raises(ValueError):
        find_root_monotone(lambda x: x + 10.0, 0.0, 1.0)
    # NaN straddles nothing: no bisection to a plausible end point
    for f in (lambda x: math.nan, lambda x: math.nan if x > 0.5 else -1.0):
        with pytest.raises(ValueError, match="same sign"):
            find_root_monotone(f, 0.0, 1.0)


# ----------------------------------------------------------------------
# Sturm-Liouville minimal eigenvalue
# ----------------------------------------------------------------------

def _const(x):
    return np.ones_like(x)


def test_sl_free_end_quarter():
    # -u'' = lambda u on (0, pi), u(0) = 0, natural at pi: lambda = 1/4.
    # Finite differences approach the continuum eigenvalue from below
    # (discrete symbol (2 - 2cos kh)/h^2 <= k^2), so only closeness is
    # asserted, not one-sidedness.
    lam = sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=math.pi,
                               grid_n=2048)).lambda_min
    assert abs(lam - 0.25) < 1e-6


def test_sl_second_order_convergence():
    errs = []
    for m in (256, 512, 1024):
        lam = sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=math.pi,
                                   grid_n=m)).lambda_min
        errs.append(abs(lam - 0.25))
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def _euler_problem(grid_n):
    # -(x^2 u')' = lambda u on (1, e), u(1) = 0, free at e:
    # u = x^(-1/2) sin(k ln x), and u'(e) = 0 needs tan k = 2k
    return SLProblem(p=lambda x: x * x, q=_const, a=1.0, b=math.e, grid_n=grid_n)


def test_sl_variable_coefficients():
    # the smallest root k = 1.1655611852..., lambda_1 = 1/4 + k^2 = 1.6085328764...
    k = float(mpmath.findroot(lambda k: mpmath.tan(k) - 2 * k, 1.1))
    lam = sl_min_eig(_euler_problem(4096)).lambda_min
    assert abs(lam - (0.25 + k * k)) < 1e-7


def test_sl_eigvec_shape_and_normalization():
    res = sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=math.pi, grid_n=256))
    assert res.eigvec.shape == res.grid.shape
    assert abs(np.max(np.abs(res.eigvec)) - 1.0) < 1e-12
    lo, hi = res.bracket
    assert lo <= res.lambda_min
    # the fundamental mode of the free-end problem has no interior node
    assert np.all(res.eigvec > -1e-10)


def _dense_min_eig(problem):
    """Smallest eigenvalue of the standard-form matrix S K S, S = diag(q^(-1/2)),
    of the finite-volume discretization, assembled densely and solved by
    numpy's symmetric eigensolver."""
    m, a, b = problem.grid_n, problem.a, problem.b
    dx = (b - a) / (m + 0.5)
    x = a + dx * np.arange(1, m + 1)
    # fluxes at the m + 1 cell faces; the free end carries no flux
    faces = np.append(np.asarray(problem.p(x - 0.5 * dx), dtype=float), 0.0)
    k = (np.diag(faces[:-1] + faces[1:]) - np.diag(faces[1:-1], 1)
         - np.diag(faces[1:-1], -1)) / dx ** 2
    s = 1.0 / np.sqrt(np.asarray(problem.q(x), dtype=float))
    return float(np.linalg.eigvalsh(s[:, None] * k * s[None, :])[0])


def _perp_problem(n, rho, grid_n, weighted=True):
    # the perpendicular problem of hardy.sl_perp_estimate, in rw and mu
    def weight(r):
        return r if weighted else 1.0
    return SLProblem(p=lambda r: special.rw(r) ** 2 / weight(r) * special.mu(r, n),
                     q=lambda r: weight(r) * special.mu(r, n), a=rho, b=TWO_PI,
                     grid_n=grid_n)


@pytest.mark.parametrize("case", ["euler", "perp-weighted-n2"])
def test_sl_matches_dense_reference(case):
    if case == "euler":
        problem = _euler_problem(256)
        res = sl_min_eig(problem)
    else:
        cone = hardy.ConeSpec.from_rho(2, math.pi / 2)
        problem = _perp_problem(2, cone.rho, 256)
        res = hardy.sl_perp_estimate(cone, grid_n=256, weighted=True)
    ref = _dense_min_eig(problem)
    assert abs(res.lambda_min - ref) <= 1e-10 * abs(ref)
    lo, hi = res.bracket
    slack = 1e-13 * abs(ref)
    assert lo - slack <= ref <= hi + slack
    assert hi - lo <= 1e-10 * max(1.0, abs(lo), abs(hi))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 3), log_alpha=st.floats(math.log(1e-2), math.log(1e2)),
       weighted=st.booleans())
def test_sl_bracket_holds_dense_reference(n, log_alpha, weighted):
    # The bracket comes from two definiteness probes around the Rayleigh
    # quotient; it must hold the dense eigenvalue and lambda_min.
    problem = _perp_problem(n, hardy.ConeSpec.from_alpha(n, math.exp(log_alpha)).rho, 256,
                            weighted)
    res = sl_min_eig(problem)
    ref = _dense_min_eig(problem)
    lo, hi = res.bracket
    slack = 1e-13 * abs(ref)
    assert lo - slack <= ref <= hi + slack
    assert lo - slack <= res.lambda_min <= hi + slack
    assert hi - lo <= 1e-10 * max(1.0, abs(lo), abs(hi))


@pytest.mark.parametrize("n, alpha, grid", [(1, 4.0, 4096), (1, 50.0, 16384)])
def test_sl_work_count(monkeypatch, n, alpha, grid):
    # Factorizations plus solves for one SL solve: a coarse bisection,
    # inverse iteration on its last factors and two probes take 15-16 here,
    # where plain bisection to 1e-10 alone needs 34-47 factorizations.
    calls = []
    lapack = numerics._lapack()
    for name in ("dpttrf", "dpttrs"):
        def counted(*args, _name=name, _f=getattr(lapack, name), **kw):
            calls.append(_name)
            return _f(*args, **kw)
        monkeypatch.setattr(lapack, name, counted)
    res = hardy.sl_perp_estimate(hardy.ConeSpec.from_alpha(n, alpha), grid_n=grid)
    assert 0 < len(calls) <= 25, calls
    lo, hi = res.bracket
    assert lo <= res.lambda_min <= hi


def test_sl_probe_disagreement_bisects_on(monkeypatch):
    # Make the first probe after inverse iteration report "not definite":
    # the solver must bisect on to 1e-10 and keep that bracket.
    solves = []
    lied = []
    lapack = numerics._lapack()

    def dpttrs(*args, _f=lapack.dpttrs, **kw):
        solves.append(1)
        return _f(*args, **kw)

    def dpttrf(d, e, _f=lapack.dpttrf, **kw):
        out = _f(d, e, **kw)
        if solves and not lied:
            lied.append(len(solves))
            return out[0], out[1], 1
        return out

    monkeypatch.setattr(lapack, "dpttrs", dpttrs)
    monkeypatch.setattr(lapack, "dpttrf", dpttrf)
    problem = _euler_problem(256)
    res = sl_min_eig(problem)
    assert lied and len(solves) > lied[0]
    ref = _dense_min_eig(problem)
    lo, hi = res.bracket
    slack = 1e-13 * abs(ref)
    assert lo - slack <= ref <= hi + slack and lo <= res.lambda_min <= hi
    assert hi - lo <= 1e-10 * max(1.0, abs(lo), abs(hi))
    assert abs(res.lambda_min - ref) <= 1e-10 * abs(ref)


def test_sl_bracket_zero_pivot_moves_hi():
    # T = lam I + (path Laplacian with free ends): T - lam I = L D L^T with
    # D = (1, ..., 1, 0), computed exactly in floating point.  The bisection
    # starts, as sl_min_eig does, from lo = 0 (every Gershgorin bound is
    # lam > 0) and hi0 = min(d) (1 + 1e-12), and lam is the float for which
    # the first midpoint hi0/2 is exactly lam.  The exact zero pivot must
    # count as "not positive definite", so hi lands on lam.
    lam = 1.0 + 9008 * 2.0 ** -52
    lap = np.concatenate(([1.0], np.full(30, 2.0), [1.0]))
    d, e = lam + lap, -np.ones(31)
    assert np.array_equal(d - lam, lap)
    assert dpttrf(d - lam, e)[2] == 32
    hi0 = float(np.min(d))
    hi0 += 1e-12 * max(1.0, abs(hi0))
    pairs = [[np.empty(32), np.empty(31)] for _ in range(2)]
    lo, hi = numerics._bisect(d, e, 1e-10, 0.0, hi0, pairs)
    assert hi == lam
    assert lo < lam


def test_sl_solves_in_one_workspace(monkeypatch):
    # Every vector the LAPACK calls of one solve receive is a view of one
    # workspace, passed with its overwrite flags set, and comes back as the
    # same array: f2py factors and solves in place and allocates nothing.
    seen = []
    lapack = numerics._lapack()
    for name, flags in (("dpttrf", ("overwrite_d", "overwrite_e")),
                        ("dpttrs", ("overwrite_b",))):
        def recorded(*args, _f=getattr(lapack, name), _flags=flags, **kw):
            out = _f(*args, **kw)
            # dpttrf overwrites d and e, dpttrs the right-hand side b
            written = args if len(_flags) == 2 else args[2:]
            seen.append((args, [kw.get(flag) for flag in _flags], written, out[:-1]))
            return out
        monkeypatch.setattr(lapack, name, recorded)
    res = hardy.sl_perp_estimate(hardy.ConeSpec.from_alpha(2, 1.0), grid_n=16384)
    assert len(seen) >= 10
    work = seen[0][0][0].base
    assert work is not None and work.shape[1] == 16384
    for args, flags, written, out in seen:
        assert all(a.base is work for a in args)
        assert flags == [1] * len(flags)
        assert len(out) == len(written) and all(o is a for o, a in zip(out, written))
    assert not np.shares_memory(res.grid, work) and not np.shares_memory(res.eigvec, work)
    lo, hi = res.bracket
    assert lo <= res.lambda_min <= hi


def test_lapack_extension_missing(monkeypatch):
    # the loader names the extension it cannot find and falls back on nothing
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__path__", [])
    with pytest.raises(ImportError, match="scipy.linalg._flapack"):
        numerics._lapack()


def test_sl_validation_errors():
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=lambda x: 0.0 * x, a=0.0, b=1.0, grid_n=256))
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=1.0, grid_n=16))
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=_const, a=1.0, b=1.0, grid_n=256))


# ----------------------------------------------------------------------
# Sphere moments and polynomials
# ----------------------------------------------------------------------

def test_sphere_areas():
    assert abs(sphere_area(1) - 2.0 * math.pi) < 1e-14
    assert abs(sphere_area(2) - 2.0 * math.pi ** 2) < 1e-13


def test_monomial_moments():
    # int_{S^1} x^2 = pi; odd moments vanish; int_{S^3} x1^2 = pi^2/2;
    # int_{S^3} x1^2 x2^2 = pi^2/12.
    assert abs(sphere_integral(SpherePoly.monomial((2, 0)), 1) - math.pi) < 1e-14
    assert sphere_integral(SpherePoly.monomial((1, 0)), 1) == 0.0
    assert sphere_integral(SpherePoly.monomial((1, 1)), 1) == 0.0
    assert abs(sphere_integral(SpherePoly.monomial((2, 0, 0, 0)), 2) - math.pi ** 2 / 2) < 1e-13
    assert abs(sphere_integral(SpherePoly.monomial((2, 2, 0, 0)), 2) - math.pi ** 2 / 12) < 1e-14
    # constant integrates to the area
    assert abs(sphere_integral(SpherePoly.constant(3.0, 4), 2) - 3.0 * sphere_area(2)) < 1e-12
    # only a SpherePoly on R^(2n) is integrated: no dict, number or other dimension
    for f in (3.0, {(2, 0, 0, 0): 1.0}, SpherePoly.constant(1.0, 2)):
        with pytest.raises(ValueError, match="SpherePoly"):
            sphere_integral(f, 2)


def test_sphere_poly_algebra():
    rng = np.random.default_rng(11)
    x = SpherePoly.monomial((1, 0, 0, 0))
    y = SpherePoly.monomial((0, 1, 0, 0))
    p = x * y + x.scaled(2.0)
    for _ in range(10):
        pt = rng.normal(size=4)
        pt /= np.linalg.norm(pt)
        assert abs(p(pt) - (pt[0] * pt[1] + 2.0 * pt[0])) < 1e-14
    dp = p.diff(0)
    for _ in range(5):
        pt = rng.normal(size=4)
        assert abs(dp(pt) - (pt[1] + 2.0)) < 1e-14


def test_rotation_derivative_flow():
    # The rotation field pairs coordinates (2k, 2k+1); its flow through a
    # point is explicit, so compare against a centered difference.
    rng = np.random.default_rng(5)
    poly = SpherePoly.monomial((2, 1, 0, 3)) + SpherePoly.monomial((0, 2, 1, 0)).scaled(-0.7)
    vpoly = poly.rotation_derivative()
    h = 1e-6
    for _ in range(10):
        pt = rng.normal(size=4)
        pt /= np.linalg.norm(pt)

        def flow(s):
            c, s_ = math.cos(s), math.sin(s)
            q = pt.copy()
            q[0], q[1] = c * pt[0] + s_ * pt[1], -s_ * pt[0] + c * pt[1]
            q[2], q[3] = c * pt[2] + s_ * pt[3], -s_ * pt[2] + c * pt[3]
            return q

        fd = (poly(flow(h)) - poly(flow(-h))) / (2.0 * h)
        assert abs(vpoly(pt) - fd) < 1e-8


def test_rotation_divergence_free():
    rng = np.random.default_rng(17)
    for n in (1, 2):
        for _ in range(20):
            poly = SpherePoly.constant(0.0, 2 * n)
            for _ in range(4):
                expo = tuple(int(e) for e in rng.integers(0, 3, size=2 * n))
                poly = poly + SpherePoly.monomial(expo).scaled(float(rng.normal()))
            assert abs(sphere_integral(poly.rotation_derivative(), n)) < 1e-12
