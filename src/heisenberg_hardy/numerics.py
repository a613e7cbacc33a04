"""Reusable numerical kernels: adaptive quadrature, root finding,
Sturm-Liouville minimal eigenvalues, and exact sphere integration of
polynomials.

Nothing in this module knows about the Heisenberg group; it is the layer the
geometric and variational code sits on.
"""

import math
import os
import sys
from dataclasses import dataclass
from importlib.util import module_from_spec

import numpy as np

from .special import _dimension


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
    """Value, error estimate and cost of an adaptive integration: floats for
    a 1-D integrand, arrays of shape (k,) for k integrands."""
    value: object
    error: object
    evaluations: int


def _gk15(f, edges):
    """K15 values, QUADPACK error estimates and K15 integrals of |f| on the
    panels edges[:, j] = (lo_j, hi_j) from one call of f, as an array of
    shape (3, k, panels); and the number of dimensions f returned."""
    half = 0.5 * (edges[1] - edges[0])
    x = (0.5 * (edges[1] + edges[0]))[:, None] + half[:, None] * _GK_NODES
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape[-1:] != (x.size,) or y.ndim > 2:
        raise ValueError("integrate: integrand must be vectorized (f(array) -> array)")
    rows = y.reshape(-1, _GK_NODES.size)
    with np.errstate(all="ignore"):
        k = rows @ _K_WEIGHTS
        resasc = np.abs(rows - 0.5 * k[:, None]) @ _K_WEIGHTS
        ratio = 200.0 * np.abs(k - rows[:, 1::2] @ _G_WEIGHTS) / resasc
        out = np.stack((k, resasc * np.fmin(1.0, ratio * np.sqrt(ratio)),
                        np.abs(rows) @ _K_WEIGHTS))
    if not np.isfinite(out).all():
        raise QuadratureError("integrate: integrand returned non-finite values")
    return out.reshape(3, -1, half.size) * half, y.ndim


_MAX_EVALS = 1_000_000   # budget of integrand evaluations (nodes) of one integrate call


def integrate(f, a, b, rtol=1e-10):
    """Adaptively integrate k vectorized integrands over (a, b) on shared nodes.

    Gauss-Kronrod 7/15 panels with the QUADPACK error estimate; all nodes
    are strictly interior, so the integrand is never evaluated at ``a`` or
    ``b``.  Component k is done once its summed error estimate is at most
    max(rtol |I_k|, 50 eps int |f_k|); the floor covers a value that
    cancels to zero.  Each round bisects every panel whose error exceeds
    1/M of a failing component's tolerance (M panels), and evaluates all
    new panels in one call of ``f`` (Berntsen, Espelid & Genz 1991).
    More than _MAX_EVALS evaluations raise QuadratureError, as does an
    error stuck on panels of rounding width.

    Parameters
    ----------
    f : callable
        Vectorized integrand: f(x) for x of shape (m,) returns shape (m,)
        for one integrand or (k, m) for k integrands.
    rtol : float
        Relative tolerance, applied to each component.

    Returns
    -------
    QuadResult, with float fields for a 1-D integrand and (k,) arrays
    otherwise.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate: endpoints must be finite")
    if b < a:
        raise ValueError("integrate: requires a <= b")
    if b == a:
        shape = np.shape(f(np.empty(0)))[:-1]
        zero = np.zeros(shape) if shape else 0.0
        return QuadResult(zero, zero, 0)

    width_floor = 1e-14 * max(abs(a), abs(b), b - a)
    edges = np.array([[a], [b]])
    panels, ndim = _gk15(f, edges)
    evals = _GK_NODES.size
    while True:
        val, err, babs = panels.sum(axis=2)
        tol = np.maximum(rtol * np.abs(val), 50.0 * np.finfo(float).eps * babs)
        failing = err > tol
        if not failing.any():
            break
        split = (panels[1, failing] > (tol[failing] / edges.shape[1])[:, None]).any(axis=0)
        split &= edges[1] - edges[0] >= width_floor
        if not split.any():
            raise QuadratureError(
                f"integrate: error estimate stalled at {err.max():g} > rtol {rtol:g} "
                "(panel width at rounding level)")
        left, right = edges[:, split]
        if evals + 2 * _GK_NODES.size * left.size > _MAX_EVALS:
            raise QuadratureError(
                f"integrate: rtol {rtol:g} not reached within {_MAX_EVALS} evaluations "
                f"(error estimate {err.max():g})")
        mid = 0.5 * (left + right)
        halves = np.array([np.concatenate((left, mid)), np.concatenate((mid, right))])
        new, _ = _gk15(f, halves)
        evals += _GK_NODES.size * halves.shape[1]
        edges = np.concatenate((edges[:, ~split], halves), axis=1)
        panels = np.concatenate((panels[..., ~split], new), axis=2)

    if ndim == 1:
        return QuadResult(float(val[0]), float(err[0]), evals)
    return QuadResult(val, err, evals)


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

_MAX_BISECTIONS = 300   # most halvings of find_root_monotone


def find_root_monotone(f, lo, hi):
    """Find the root of a monotone function bracketed by [lo, hi].

    Bisects until f(x) = 0 or the bracket is within 4 eps of its end points
    (a relative test, floored at the smallest normal float), so the root
    is polished to ~1 ulp, given _MAX_BISECTIONS = 300 halvings enough to
    reach its scale.

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
    sign_lo = math.copysign(1.0, flo)

    x = 0.5 * (lo + hi)
    for _ in range(_MAX_BISECTIONS):
        fx = float(f(x))
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == sign_lo:
            lo = x
        else:
            hi = x
        if hi - lo <= 4.0 * np.finfo(float).eps * max(np.finfo(float).tiny, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        x = 0.5 * (lo + hi)
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


# Relative width to which sl_min_eig bisects before inverse iteration, well
# inside the spectral gap (lambda_2/lambda_1 is 1.036 for n = 3, grid 16384),
# and the relative width of the bracket it reports.
_COARSE_TOL = 1e-3
_BISECT_TOL = 1e-10


def _lapack():
    """scipy's f2py LAPACK extension, found by the standard finders under
    scipy's own path: ``import scipy.linalg`` would also run that package's
    ``__init__`` (about 230 ms and 23 MB), and ``import scipy`` alone sets up
    the bundled OpenBLAS.  It is registered in ``sys.modules``, so
    ``scipy.linalg.lapack`` reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        import scipy
        paths = [os.path.join(p, "linalg") for p in scipy.__path__]
        spec = next(filter(None, (f.find_spec(name, paths) for f in sys.meta_path)), None)
        if spec is None:
            raise ImportError(f"no LAPACK extension {name}", name=name)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _factor(d, e, shift, pair):
    """Whether T - shift I is positive definite (T symmetric tridiagonal
    with diagonal ``d``, off-diagonal ``e``).  Writes T - shift I over
    ``pair`` and factors it there as L D L^T with LAPACK ``dpttrf``, which
    stops at the first pivot <= 0, so a zero pivot counts as not definite.
    ``pair`` takes what ``dpttrf`` returns: the same arrays, unless f2py
    had to copy one (it copies input that is not contiguous).
    """
    np.subtract(d, shift, out=pair[0])
    pair[1][...] = e
    pair[0], pair[1], info = _lapack().dpttrf(*pair, overwrite_d=1, overwrite_e=1)
    return info == 0


def _bisect(d, e, tol, lo, hi, pairs):
    """Barth, Martin & Wilkinson's Sturm bisection for the smallest
    eigenvalue of T (``_factor``'s d and e), asking only whether T - lambda I
    is positive definite.  Starts from (lo, hi), where ``lo`` bounds the
    eigenvalue from below, and stops once hi - lo <= tol * max(1, |lo|,
    |hi|); returns (lo, hi).  ``pairs`` is [kept, trial]: each midpoint is
    factored into trial, and a definite one swaps the two, so kept holds
    the factors of T - lo I for every lo the loop sets.
    """
    while hi - lo > tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if _factor(d, e, mid, pairs[1]):
            lo = mid
            pairs.reverse()
        else:
            hi = mid
    return lo, hi


def sl_min_eig(problem):
    """Smallest generalized eigenvalue of -(p u')' = lambda q u.

    Second-order finite volumes on a staggered grid: fluxes use ``p`` at
    cell midpoints, masses use ``q`` at the nodes.  With the natural right
    condition the last node sits half a cell inside ``b`` so the free
    endpoint is handled without one-sided differences.

    With S = diag(q^(-1/2)) the problem becomes a symmetric tridiagonal T.
    One loop bisects on the definiteness of T - lambda I (``_bisect``) to
    relative width 1e-3, then runs inverse iteration (LAPACK ``dpttrs``) on
    the ``dpttrf`` factors of T - lo I at the last definite shift ``lo``
    until the Rayleigh quotient lam changes by <= 1e-14 relative or by no
    less than before.  Two factorizations confirm lo' < lambda_1 <= hi' at
    lo', hi' = lam -+ 0.45 _BISECT_TOL max(1, |lam|); if either disagrees,
    the loop bisects on to _BISECT_TOL, iterates again and keeps that
    bracket.  ``bracket`` is thus verified, holds ``lambda_min`` (the
    Rayleigh quotient of the returned eigenvector), and is at most
    ``_BISECT_TOL * max(1, |lo|, |hi|)`` wide.  ``_lapack`` gives ``dpttrs``
    here and ``dpttrf`` in ``_factor``: no other routine loads scipy.

    Memory: one (11, m) workspace per call holds every vector of length m
    (grid, faces, d, e, S, the iterate y, the solve v and two ``dpttrf``
    factor pairs), filled in place.  Each shift is factored in the trial
    pair, and a definite one swaps it with the kept pair, which so holds
    the factors at ``lo`` without a copy; ``dpttrs`` solves in v.  Both
    calls pass their overwrite flags: without them f2py copies every input
    into a new array, some 45 arrays of m doubles per solve.  At m = 16384
    each is 128 KiB, glibc's initial mmap threshold, and glibc maps each one
    or trims the heap and faults it back in.  Part of the saving rests on
    glibc's dynamic mmap threshold (mallopt(3)): freeing the mmapped
    workspace raises that threshold to its size and the trim threshold to
    twice that, which also keeps the temporaries of ``p`` and ``q`` on an
    untrimmed heap.  ``grid`` is returned as a copy, so no result keeps the
    workspace alive.

    Raises
    ------
    ValueError
        for grid_n < 32, a non-positive mass weight on the grid (singular
        mass matrix), or a non-positive stiffness weight.
    numpy.linalg.LinAlgError
        if T is not numerically positive definite.
    """
    m = int(problem.grid_n)
    if m < 32:
        raise ValueError("sl_min_eig: grid_n must be at least 32")
    a, b = float(problem.a), float(problem.b)
    if not b > a:
        raise ValueError("sl_min_eig: requires b > a")
    if problem.right_bc not in ("natural", "dirichlet"):
        raise ValueError("sl_min_eig: right_bc must be 'natural' or 'dirichlet'")

    dpttrs = _lapack().dpttrs
    work = np.empty((11, m))
    x, xm, d, s, y, v = work[:6]
    e = work[6, :-1]
    pairs = [[work[7], work[8, :-1]], [work[9], work[10, :-1]]]

    natural = problem.right_bc == "natural"
    dx = (b - a) / (m + (0.5 if natural else 1.0))
    np.multiply(np.arange(1, m + 1), dx, out=x)
    x += a
    np.subtract(x, 0.5 * dx, out=xm)      # interior flux points p_{i-1/2}
    pm = np.asarray(problem.p(xm), dtype=float)
    qv = np.asarray(problem.q(x), dtype=float)
    if not (np.all(np.isfinite(pm)) and np.all(np.isfinite(qv))):
        raise ValueError("sl_min_eig: coefficients must be finite on the grid")
    if np.any(qv <= 0.0):
        raise ValueError("sl_min_eig: mass weight q must be positive on the grid")
    if np.any(pm <= 0.0):
        raise ValueError("sl_min_eig: stiffness weight p must be positive on the grid")

    inv_dx2 = 1.0 / (dx * dx)
    p_last = 0.0                          # the free end carries no flux beyond x_m
    if not natural:
        p_last = float(np.asarray(problem.p(np.array([b - 0.5 * dx])), dtype=float)[0])
    np.add(pm[:-1], pm[1:], out=d[:-1])
    d[-1] = pm[-1] + p_last
    d *= inv_dx2
    np.multiply(pm[1:], -inv_dx2, out=e)

    # Reduce K u = lambda M u to standard form with S = diag(1/sqrt(q)).
    np.divide(1.0, np.sqrt(qv, out=s), out=s)
    d *= s
    d *= s
    e *= s[:-1]
    e *= s[1:]

    # K is positive definite (p > 0, Dirichlet at a), so 0 bounds lambda_1
    # from below; T's Gershgorin bound reaches -2e5 for small a.
    y.fill(1.0 / math.sqrt(m))
    hi = float(np.min(d))
    hi += 1e-12 * max(1.0, abs(hi))
    lo, tol = 0.0, _COARSE_TOL
    while True:
        lo, hi = _bisect(d, e, tol, lo, hi, pairs)
        # lo is 0 only if no midpoint was definite
        if lo == 0.0 and not _factor(d, e, 0.0, pairs[0]):
            raise np.linalg.LinAlgError("sl_min_eig: T is not numerically positive definite")
        # v = (T - lo I)^(-1) y has the Rayleigh quotient lo + v.y / v.v
        lam, step = lo, math.inf
        while True:
            v[...] = y
            v = dpttrs(*pairs[0], v, overwrite_b=1)[0]
            new = lo + float(v @ y) / float(v @ v)
            np.divide(v, np.linalg.norm(v), out=y)
            change, lam = abs(new - lam), new
            if change <= 1e-14 * max(1.0, abs(lam)) or change >= step:
                break
            step = change
        if tol == _BISECT_TOL:             # keep lam in the bisection bracket
            lam = min(max(lam, lo), hi)
            break
        half = 0.45 * _BISECT_TOL * max(1.0, abs(lam))
        if (_factor(d, e, lam - half, pairs[1])
                and not _factor(d, e, lam + half, pairs[1])):
            lo, hi = lam - half, lam + half
            break
        tol = _BISECT_TOL

    u = y * s
    u /= u[np.argmax(np.abs(u, out=v))]
    return EigResult(lambda_min=lam, grid=x.copy(), eigvec=u, bracket=(lo, hi))


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
    """Exact integral of the SpherePoly ``f`` on R^(2n) over the unit sphere
    S^(2n-1).  Uses the classical Gamma-function monomial moments, so the
    only error is final rounding.
    """
    dim = 2 * _dimension(n)
    if not (isinstance(f, SpherePoly) and f.dim == dim):
        raise ValueError(f"sphere_integral: f must be a SpherePoly on R^{dim}")
    return float(sum(c * _sphere_monomial_moment(e) for e, c in f.terms.items()))


def sphere_area(n):
    """Surface area of S^(2n-1), the sphere of the horizontal slice of H^n."""
    n = _dimension(n)
    return 2.0 * math.pi ** n / math.gamma(n)
