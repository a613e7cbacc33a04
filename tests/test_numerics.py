"""Unit tests for quadrature, root finding, the 1-D eigensolver, and sphere moments."""

import math

import numpy as np
import pytest

from heisenberg_hardy.numerics import (
    QuadratureError,
    SLProblem,
    SpherePoly,
    find_root_monotone,
    integrate,
    sl_min_eig,
    sphere_area,
    sphere_integral,
    sphere_surface_area,
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
    res = integrate(lambda x: np.exp(-x * x), -8.0, 8.0, tol=1e-12)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12
    # reversed endpoints are rejected, not silently sign-flipped
    with pytest.raises(ValueError):
        integrate(np.sin, math.pi, 0.0)


def test_endpoint_singularities():
    res = integrate(lambda x: x ** -0.5, 0.0, 1.0, singularity=("left", -0.5))
    assert abs(res.value - 2.0) < 1e-12
    res = integrate(lambda x: (1.0 - x) ** (-1.0 / 3.0), 0.0, 1.0,
                    singularity=("right", -1.0 / 3.0))
    assert abs(res.value - 1.5) < 1e-12
    res = integrate(lambda x: x ** -0.9, 0.0, 1.0, singularity=("left", -0.9))
    assert abs(res.value - 10.0) < 1e-9 * 10.0


def test_log_singularity_without_hint():
    res = integrate(np.log, 0.0, 1.0, tol=1e-10)
    assert abs(res.value + 1.0) < 1e-10


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: x ** -0.99, 1e-300, 1.0, tol=1e-10, max_evals=20000)


def test_nonfinite_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: np.where(x < 0.5, np.nan, 1.0), 0.0, 1.0)


def test_scalar_integrand_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_singularity_validation():
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, singularity=("left", -1.0))
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, 1.0, singularity=("middle", -0.5))


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

def test_root_simple():
    assert abs(find_root_monotone(math.cos, 0.0, 2.0) - math.pi / 2) < 1e-12
    assert abs(find_root_monotone(lambda x: x ** 3 - 8.0, 0.0, 3.0) - 2.0) < 1e-12


def test_root_with_derivative():
    r = find_root_monotone(math.cos, 0.0, 2.0, df=lambda x: -math.sin(x))
    assert abs(r - math.pi / 2) < 1e-12


def test_root_tol_zero_bisects_to_ulp():
    r = find_root_monotone(lambda x: x * x - 2.0, 0.0, 2.0, tol=0.0)
    assert abs(r - math.sqrt(2.0)) <= 4 * np.finfo(float).eps * math.sqrt(2.0)


def test_root_requires_bracket():
    with pytest.raises(ValueError):
        find_root_monotone(lambda x: x + 10.0, 0.0, 1.0)


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
                               grid_n=2048, right_bc="natural")).lambda_min
    assert abs(lam - 0.25) < 1e-6


def test_sl_dirichlet_unit():
    lam = sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=math.pi,
                               grid_n=2048, right_bc="dirichlet")).lambda_min
    assert abs(lam - 1.0) < 1e-5


def test_sl_second_order_convergence():
    errs = []
    for m in (256, 512, 1024):
        lam = sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=math.pi,
                                   grid_n=m, right_bc="natural")).lambda_min
        errs.append(abs(lam - 0.25))
    assert errs[0] > errs[1] > errs[2] > 0.0
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_sl_variable_coefficients():
    # Euler problem -(x^2 u')' = lambda u on (1, e) with Dirichlet ends:
    # u = x^(-1/2) sin(k ln x), eigenvalues 1/4 + (m pi)^2.
    lam = sl_min_eig(SLProblem(p=lambda x: x * x, q=_const, a=1.0, b=math.e,
                               grid_n=4096, right_bc="dirichlet")).lambda_min
    assert abs(lam - (0.25 + math.pi ** 2)) < 1e-3


def test_sl_eigvec_shape_and_normalization():
    res = sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=math.pi,
                               grid_n=256, right_bc="natural"))
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
    natural = problem.right_bc == "natural"
    dx = (b - a) / (m + (0.5 if natural else 1.0))
    x = a + dx * np.arange(1, m + 1)
    # fluxes at the m + 1 cell faces; the free end carries no flux
    faces = np.asarray(problem.p(np.append(x - 0.5 * dx, b - 0.5 * dx)), dtype=float)
    if natural:
        faces[-1] = 0.0
    k = (np.diag(faces[:-1] + faces[1:]) - np.diag(faces[1:-1], 1)
         - np.diag(faces[1:-1], -1)) / dx ** 2
    s = 1.0 / np.sqrt(np.asarray(problem.q(x), dtype=float))
    return float(np.linalg.eigvalsh(s[:, None] * k * s[None, :])[0])


def _perp_problem(n, rho, grid_n):
    # the weighted perpendicular problem of hardy.sl_perp_estimate
    return SLProblem(p=lambda r: special.rw(r) ** 2 / r * special.mu(r, n),
                     q=lambda r: r * special.mu(r, n), a=rho, b=TWO_PI,
                     grid_n=grid_n, right_bc="natural")


@pytest.mark.parametrize("case", ["euler", "perp-weighted-n2"])
def test_sl_matches_dense_reference(case):
    bisect_tol = 1e-10
    if case == "euler":
        problem = SLProblem(p=lambda x: x * x, q=_const, a=1.0, b=math.e,
                            grid_n=256, right_bc="dirichlet")
        res = sl_min_eig(problem, bisect_tol=bisect_tol)
    else:
        cone = hardy.ConeSpec.from_rho(2, math.pi / 2)
        problem = _perp_problem(2, cone.rho, 256)
        res = hardy.sl_perp_estimate(cone, grid_n=256, weighted=True)
    ref = _dense_min_eig(problem)
    assert abs(res.lambda_min - ref) <= 1e-10 * abs(ref)
    lo, hi = res.bracket
    slack = 1e-13 * abs(ref)
    assert lo - slack <= ref <= hi + slack
    assert hi - lo <= bisect_tol * max(1.0, abs(lo), abs(hi))


def test_sl_bracket_zero_pivot_moves_hi():
    # T = lam I + (path Laplacian with free ends): T - lam I = L D L^T with
    # D = (1, ..., 1, 0), computed exactly in floating point.  The bisection
    # starts from lo = 0 (every Gershgorin bound is lam > 0) and
    # hi0 = min(d) (1 + 1e-12), and lam is the float for which the first
    # midpoint hi0/2 is exactly lam.  The exact zero pivot must count as
    # "not positive definite", so hi lands on lam.
    lam = 1.0 + 9008 * 2.0 ** -52
    lap = np.concatenate(([1.0], np.full(30, 2.0), [1.0]))
    d, e = lam + lap, -np.ones(31)
    assert np.array_equal(d - lam, lap)
    assert numerics.dpttrf(d - lam, e)[2] == 32
    lo, hi = numerics._min_eig_bracket(d, e, 1e-10)
    assert hi == lam
    assert lo < lam


def test_sl_validation_errors():
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=lambda x: 0.0 * x, a=0.0, b=1.0,
                             grid_n=256, right_bc="natural"))
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=1.0,
                             grid_n=16, right_bc="natural"))
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=_const, a=1.0, b=1.0,
                             grid_n=256, right_bc="natural"))
    with pytest.raises(ValueError):
        sl_min_eig(SLProblem(p=_const, q=_const, a=0.0, b=1.0,
                             grid_n=256, right_bc="mixed"))


# ----------------------------------------------------------------------
# Sphere moments and polynomials
# ----------------------------------------------------------------------

def test_sphere_areas():
    assert abs(sphere_area(1) - 2.0 * math.pi) < 1e-14
    assert abs(sphere_area(2) - 2.0 * math.pi ** 2) < 1e-13
    assert abs(sphere_surface_area(3) - 4.0 * math.pi) < 1e-13
    assert abs(sphere_surface_area(2) - 2.0 * math.pi) < 1e-14


def test_monomial_moments():
    # int_{S^1} x^2 = pi; odd moments vanish; int_{S^3} x1^2 = pi^2/2;
    # int_{S^3} x1^2 x2^2 = pi^2/12.
    assert abs(sphere_integral({(2, 0): 1.0}, 1) - math.pi) < 1e-14
    assert sphere_integral({(1, 0): 1.0}, 1) == 0.0
    assert sphere_integral({(1, 1): 1.0}, 1) == 0.0
    assert abs(sphere_integral({(2, 0, 0, 0): 1.0}, 2) - math.pi ** 2 / 2) < 1e-13
    assert abs(sphere_integral({(2, 2, 0, 0): 1.0}, 2) - math.pi ** 2 / 12) < 1e-14
    # constant integrates to the area
    assert abs(sphere_integral(3.0, 2) - 3.0 * sphere_area(2)) < 1e-12


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
