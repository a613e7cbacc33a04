"""Reusable numerical kernels: adaptive quadrature, root finding,
Sturm-Liouville minimal eigenvalues, and exact sphere integration of
polynomials.

Nothing in this module knows about the Heisenberg group; it is the layer the
geometric and variational code sits on.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpttrf


class QuadratureError(RuntimeError):
    """Raised when a quadrature cannot reach the requested tolerance."""


# ----------------------------------------------------------------------
# Gauss-Kronrod 7/15 rule
# ----------------------------------------------------------------------
# Standard G7/K15 abscissae and weights on [-1, 1]; the Gauss points are the
# odd-indexed nodes.  (Checked against the usual published tables; the unit
# tests verify the degrees of exactness, 13 for G7 and 22 for K15.)

_GK_NODES = np.array([
    -0.99145537112081263921, -0.94910791234275852453, -0.86486442335976907279,
    -0.74153118559939443986, -0.58608723546769113029, -0.40584515137739716691,
    -0.20778495500789846760, 0.0,
    0.20778495500789846760, 0.40584515137739716691, 0.58608723546769113029,
    0.74153118559939443986, 0.86486442335976907279, 0.94910791234275852453,
    0.99145537112081263921,
])
_K_WEIGHTS = np.array([
    0.02293532201052922496, 0.06309209262997855329, 0.10479001032225018384,
    0.14065325971552591875, 0.16900472663926790283, 0.19035057806478540991,
    0.20443294007529889241, 0.20948214108472782801,
    0.20443294007529889241, 0.19035057806478540991, 0.16900472663926790283,
    0.14065325971552591875, 0.10479001032225018384, 0.06309209262997855329,
    0.02293532201052922496,
])
_G_WEIGHTS = np.array([
    0.12948496616886969327, 0.27970539148927666790, 0.38183005050511894495,
    0.41795918367346938776,
    0.38183005050511894495, 0.27970539148927666790, 0.12948496616886969327,
])


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and cost of an adaptive integration."""
    value: float
    error: float
    evaluations: int


def _gk15(f, lo, hi):
    """Apply the 7/15 pair on [lo, hi]; returns (K15, |K15-G7| based error, n_evals)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid + half * _GK_NODES
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrate: integrand must be vectorized (f(array) -> array)")
    k = half * float(_K_WEIGHTS @ y)
    g = half * float(_G_WEIGHTS @ y[1::2])
    if not (math.isfinite(k) and math.isfinite(g)):
        raise QuadratureError("integrate: integrand returned non-finite values")
    d = abs(k - g)
    scale = abs(half)
    err = scale * (200.0 * d / scale) ** 1.5 if scale > 0 else 0.0
    err = max(err, 50.0 * np.finfo(float).eps * abs(k))
    return k, err, x.size


def integrate(f, a, b, tol=1e-10, max_evals=1_000_000, singularity=None):
    """Adaptively integrate a vectorized integrand over (a, b).

    Worst-interval-first bisection with the Gauss-Kronrod 7/15 pair; all
    nodes are strictly interior, so the integrand is never evaluated at
    ``a`` or ``b``.

    Parameters
    ----------
    f : callable
        Vectorized integrand, f(ndarray) -> ndarray.
    tol : float
        Absolute tolerance on the summed error estimate.
    max_evals : int
        Budget of integrand evaluations; exceeding it raises QuadratureError.
    singularity : tuple or None
        Optional ("left"|"right", beta) declaring an integrable power
        behaviour f ~ (x - endpoint)^beta with beta > -1 at one endpoint.
        The integral is transformed with the substitution
        x = endpoint +- u^(1/(1+beta)), which makes the transformed
        integrand bounded, before adapting.

    Returns
    -------
    QuadResult
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate: endpoints must be finite")
    if b < a:
        raise ValueError("integrate: requires a <= b")
    if b == a:
        return QuadResult(0.0, 0.0, 0)

    g, lo, hi = f, a, b
    if singularity is not None:
        side, beta = singularity
        beta = float(beta)
        if beta <= -1.0:
            raise ValueError(f"integrate: exponent beta = {beta} is not integrable")
        if side not in ("left", "right"):
            raise ValueError("integrate: singularity side must be 'left' or 'right'")
        if beta != 0.0:
            e = 1.0 + beta
            if side == "left":
                def g(u, _f=f, _a=a, _e=e):
                    u = np.asarray(u, dtype=float)
                    return _f(_a + u ** (1.0 / _e)) * u ** (1.0 / _e - 1.0) / _e
            else:
                def g(u, _f=f, _b=b, _e=e):
                    u = np.asarray(u, dtype=float)
                    return _f(_b - u ** (1.0 / _e)) * u ** (1.0 / _e - 1.0) / _e
            lo, hi = 0.0, (b - a) ** e

    span = hi - lo
    width_floor = 1e-14 * max(abs(lo), abs(hi), span)

    val, err, evals = _gk15(g, lo, hi)
    total_val, total_err = val, err
    heap = [(-err, 0, lo, hi, val, err)]
    counter = 1
    stuck_err = 0.0

    while heap and total_err > tol:
        if evals + 30 > max_evals:
            raise QuadratureError(
                f"integrate: tolerance {tol:g} not reached within {max_evals} evaluations "
                f"(error estimate {total_err:g})")
        _, _, ilo, ihi, ival, ierr = heapq.heappop(heap)
        if ihi - ilo < width_floor:
            # Interval at rounding width; its error cannot be refined away.
            stuck_err += ierr
            if not heap and stuck_err > tol:
                raise QuadratureError(
                    f"integrate: error estimate stalled at {total_err:g} > tol {tol:g} "
                    "(interval width at rounding level)")
            continue
        imid = 0.5 * (ilo + ihi)
        v1, e1, n1 = _gk15(g, ilo, imid)
        v2, e2, n2 = _gk15(g, imid, ihi)
        evals += n1 + n2
        total_val += (v1 + v2) - ival
        total_err += (e1 + e2) - ierr
        heapq.heappush(heap, (-e1, counter, ilo, imid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, imid, ihi, v2, e2))
        counter += 2

    return QuadResult(total_val, total_err, evals)


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

def find_root_monotone(f, lo, hi, tol=1e-12, df=None, coarse=1e-4, max_iter=300):
    """Find the root of a monotone function bracketed by [lo, hi].

    Bisects until the bracket has width ``coarse``, then switches to a
    Newton iteration safeguarded by the bracket when a derivative ``df``
    is supplied (pure bisection otherwise).  Iterates until
    |f(x)| <= tol * scale with scale = max(1, |f(lo)|, |f(hi)|), or until
    the bracket collapses to rounding level -- so ``tol=0`` polishes the
    root to ~1 ulp.

    Raises
    ------
    ValueError
        if f(lo) and f(hi) do not straddle zero.
    """
    lo = float(lo)
    hi = float(hi)
    if hi < lo:
        lo, hi = hi, lo
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("find_root_monotone: f(lo) and f(hi) have the same sign")
    scale = max(1.0, abs(flo), abs(fhi))
    sign_lo = math.copysign(1.0, flo)

    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fx = float(f(x))
        if fx == 0.0 or abs(fx) <= tol * scale:
            return x
        if math.copysign(1.0, fx) == sign_lo:
            lo = x
        else:
            hi = x
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        step = None
        if df is not None and hi - lo <= coarse:
            dfx = float(df(x))
            if dfx != 0.0 and math.isfinite(dfx):
                cand = x - fx / dfx
                if lo < cand < hi:
                    step = cand
        x = step if step is not None else 0.5 * (lo + hi)
    return x


# ----------------------------------------------------------------------
# Sturm-Liouville minimal eigenvalue
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SLProblem:
    """The weak form  int p u'^2 / int q u^2  on (a, b).

    Discretized with a Dirichlet condition at ``a`` and, at ``b``, either
    the natural (free) condition or another Dirichlet condition.  ``p`` and
    ``q`` must be vectorized callables, positive on the open interval.
    """
    p: object
    q: object
    a: float
    b: float
    grid_n: int = 1024
    right_bc: str = "natural"


@dataclass(frozen=True)
class EigResult:
    """Minimal eigenvalue, its grid, and the (max-normalized) eigenvector."""
    lambda_min: float
    grid: np.ndarray
    eigvec: np.ndarray
    bracket: tuple


def _min_eig_bracket(d, e, bisect_tol):
    """Bracket (lo, hi) of the smallest eigenvalue of the symmetric
    tridiagonal with diagonal ``d`` and off-diagonal ``e``.

    Barth, Martin & Wilkinson's Sturm bisection, asking only whether any
    eigenvalue lies at or below lambda, i.e. whether T - lambda I is not
    positive definite: LAPACK ``dpttrf`` factors it as L D L^T and stops at
    the first pivot <= 0, so a zero pivot moves ``hi``.  Stops once
    hi - lo <= bisect_tol * max(1, |lo|, |hi|).
    """
    hi = float(np.min(d))
    hi += 1e-12 * max(1.0, abs(hi))
    lo = float(np.min(d - np.abs(np.concatenate(([0.0], e))) - np.abs(np.concatenate((e, [0.0])))))
    lo = min(lo, 0.0)
    while hi - lo > bisect_tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if dpttrf(d - mid, e)[2] != 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def sl_min_eig(problem, bisect_tol=1e-10):
    """Smallest generalized eigenvalue of -(p u')' = lambda q u.

    Second-order finite volumes on a staggered grid: fluxes use ``p`` at
    cell midpoints, masses use ``q`` at the nodes.  With the natural right
    condition the last node sits half a cell inside ``b`` so the free
    endpoint is handled without one-sided differences.

    With S = diag(q^(-1/2)) the problem becomes a symmetric tridiagonal T.
    Its smallest eigenvalue is bracketed by bisection on the definiteness
    of T - lambda I, tested by a compiled LDL^T factorization (LAPACK
    ``dpttrf``); ``bracket`` is the final (lo, hi), of width at most
    ``bisect_tol * max(1, |lo|, |hi|)``.  The value is then polished by
    inverse iteration; the returned value is the Rayleigh quotient of the
    computed eigenvector, so it is an upper bound for the discrete minimum.

    Raises
    ------
    ValueError
        for grid_n < 32, a non-positive mass weight on the grid (singular
        mass matrix), or a non-positive stiffness weight.
    """
    m = int(problem.grid_n)
    if m < 32:
        raise ValueError("sl_min_eig: grid_n must be at least 32")
    a, b = float(problem.a), float(problem.b)
    if not b > a:
        raise ValueError("sl_min_eig: requires b > a")
    if problem.right_bc not in ("natural", "dirichlet"):
        raise ValueError("sl_min_eig: right_bc must be 'natural' or 'dirichlet'")

    if problem.right_bc == "natural":
        dx = (b - a) / (m + 0.5)
    else:
        dx = (b - a) / (m + 1.0)
    x = a + dx * np.arange(1, m + 1)
    xm = x - 0.5 * dx                      # interior flux points p_{i-1/2}
    pm = np.asarray(problem.p(xm), dtype=float)
    qv = np.asarray(problem.q(x), dtype=float)
    if not (np.all(np.isfinite(pm)) and np.all(np.isfinite(qv))):
        raise ValueError("sl_min_eig: coefficients must be finite on the grid")
    if np.all(qv == 0.0):
        raise ValueError("sl_min_eig: singular mass matrix (q vanishes on the grid)")
    if np.any(qv <= 0.0):
        raise ValueError("sl_min_eig: mass weight q must be positive on the grid")
    if np.any(pm <= 0.0):
        raise ValueError("sl_min_eig: stiffness weight p must be positive on the grid")

    inv_dx2 = 1.0 / (dx * dx)
    diag = np.empty(m)
    if problem.right_bc == "natural":
        diag[:-1] = (pm[:-1] + pm[1:]) * inv_dx2
        diag[-1] = pm[-1] * inv_dx2       # free end: no flux beyond x_m
    else:
        p_last = float(np.asarray(problem.p(np.array([b - 0.5 * dx])), dtype=float)[0])
        diag[:-1] = (pm[:-1] + pm[1:]) * inv_dx2
        diag[-1] = (pm[-1] + p_last) * inv_dx2
    off = -pm[1:] * inv_dx2

    # Reduce K u = lambda M u to standard form with S = diag(1/sqrt(q)).
    s = 1.0 / np.sqrt(qv)
    d = diag * s * s
    e = off * s[:-1] * s[1:]

    lo, hi = _min_eig_bracket(d, e, bisect_tol)

    # Inverse iteration from a shift just below the bisection bracket.
    y = np.full(m, 1.0 / math.sqrt(m))
    lam = hi
    shift_gap = 1e-8 * max(1.0, abs(lo))
    for attempt in range(4):
        sigma = lo - shift_gap
        ab = np.zeros((2, m))
        ab[0, 1:] = e
        ab[1, :] = d - sigma
        try:
            cb = cholesky_banded(ab)
        except np.linalg.LinAlgError:
            shift_gap *= 100.0
            continue
        prev = None
        for _ in range(60):
            y = cho_solve_banded((cb, False), y)
            y /= np.linalg.norm(y)
            ty = d * y
            ty[:-1] += e * y[1:]
            ty[1:] += e * y[:-1]
            lam = float(y @ ty)
            if prev is not None and abs(lam - prev) <= 1e-14 * max(1.0, abs(lam)):
                break
            prev = lam
        break
    else:
        lam = 0.5 * (lo + hi)

    u = y * s
    i = int(np.argmax(np.abs(u)))
    u = u / u[i]
    return EigResult(lambda_min=lam, grid=x, eigvec=u, bracket=(lo, hi))


# ----------------------------------------------------------------------
# Polynomial integration over spheres
# ----------------------------------------------------------------------

class SpherePoly:
    """Polynomial on R^dim stored as {exponent tuple: coefficient}.

    Supports the little algebra needed to verify first-order identities on
    spheres: addition, products, coordinate multiplication, partial
    derivatives, and the rotation field sum_k (w_{k2} d/dw_{k1} -
    w_{k1} d/dw_{k2}) acting on pairs of coordinates.
    """

    def __init__(self, dim, terms=None):
        self.dim = int(dim)
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.dim:
                    raise ValueError("SpherePoly: exponent tuple has wrong length")
                if c != 0.0:
                    self.terms[exps] = self.terms.get(exps, 0.0) + float(c)

    @classmethod
    def constant(cls, c, dim):
        return cls(dim, {tuple([0] * dim): float(c)})

    @classmethod
    def monomial(cls, exps, coeff=1.0):
        return cls(len(exps), {tuple(exps): float(coeff)})

    def __add__(self, other):
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0.0) + c
        return SpherePoly(self.dim, out)

    def scaled(self, c):
        return SpherePoly(self.dim, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return SpherePoly(self.dim, out)

    def diff(self, i):
        out = {}
        for exps, c in self.terms.items():
            if exps[i] > 0:
                e = list(exps)
                e[i] -= 1
                out[tuple(e)] = out.get(tuple(e), 0.0) + c * exps[i]
        return SpherePoly(self.dim, out)

    def times_coord(self, i):
        out = {}
        for exps, c in self.terms.items():
            e = list(exps)
            e[i] += 1
            out[tuple(e)] = c
        return SpherePoly(self.dim, out)

    def rotation_derivative(self):
        """Apply V = sum_k (w_{k,2} d_{k,1} - w_{k,1} d_{k,2}); dim must be even."""
        if self.dim % 2:
            raise ValueError("rotation_derivative: needs an even dimension")
        out = SpherePoly(self.dim)
        for k in range(self.dim // 2):
            i1, i2 = 2 * k, 2 * k + 1
            out = out + self.diff(i1).times_coord(i2)
            out = out + self.diff(i2).times_coord(i1).scaled(-1.0)
        return out

    def __call__(self, w):
        w = np.asarray(w, dtype=float)
        val = 0.0
        for exps, c in self.terms.items():
            val += c * np.prod([w[i] ** e for i, e in enumerate(exps) if e], initial=1.0)
        return val


def _sphere_monomial_moment(exps):
    """int_{S^(m-1)} prod w_i^{a_i} dS, zero unless every a_i is even."""
    if any(e % 2 for e in exps):
        return 0.0
    num = 2.0
    s = 0.0
    for e in exps:
        num *= math.gamma(0.5 * (e + 1))
        s += 0.5 * (e + 1)
    return num / math.gamma(s)


def sphere_integral(f, n):
    """Exact integral of a polynomial over the unit sphere S^(2n-1).

    ``f`` may be a SpherePoly on R^(2n), a {exponents: coeff} dict, or a
    plain number (constant).  Uses the classical Gamma-function monomial
    moments, so the only error is final rounding.
    """
    dim = 2 * int(n)
    if isinstance(f, SpherePoly):
        if f.dim != dim:
            raise ValueError("sphere_integral: polynomial dimension mismatch")
        terms = f.terms
    elif isinstance(f, dict):
        terms = SpherePoly(dim, f).terms
    else:
        terms = {tuple([0] * dim): float(f)}
    return float(sum(c * _sphere_monomial_moment(e) for e, c in terms.items()))


def sphere_surface_area(d):
    """Surface area of the unit sphere S^(d-1) in R^d."""
    if d < 1:
        raise ValueError("sphere_surface_area: d must be >= 1")
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def sphere_area(n):
    """Surface area of S^(2n-1), the sphere of the horizontal slice of H^n."""
    return sphere_surface_area(2 * int(n))
