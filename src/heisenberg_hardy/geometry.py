"""Geodesic polar coordinates and horizontal frames on the Heisenberg group H^n.

Points are (xi, z) in R^(2n) x R with the group law

    (xi, z) * (xi', z') = (xi + xi', z + z' + <xi, J xi'>/2),

where J acts blockwise on the planes (x_i, y_i) as (x, y) -> (y, -x).
Geodesic polar coordinates (t, varpi, r) -- Carnot distance t >= 0, a unit
horizontal direction varpi in S^(2n-1), and a vertical angle |r| <= 2*pi --
parametrize the group through

    Phi(t, varpi, r) = ( (t/r) A(r) varpi_i , t^2 (r - sin r)/(2 r^2) ),
    A(r) = [[sin r, cos r - 1], [1 - cos r, sin r]]  (blockwise),

with the r -> 0 limits built into the stable kernels of
:mod:`heisenberg_hardy.special`.  This module provides the coordinate maps
both ways, the Carnot distance, the Koranyi gauge, the polar Jacobian, and
the adapted orthonormal horizontal frame.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .special import TWO_PI, _kernels
from .numerics import integrate


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """Group element (xi, z); xi has even length 2n."""
    xi: np.ndarray
    z: float

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if xi.ndim != 1 or xi.size == 0 or xi.size % 2:
            raise ValueError("Point: xi must be a flat vector of even length")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "z", float(self.z))

    @property
    def n(self):
        return self.xi.size // 2


@dataclass(frozen=True)
class Polar:
    """Polar triple (t, varpi, r): t >= 0, |varpi| = 1, |r| <= 2*pi."""
    t: float
    varpi: np.ndarray
    r: float

    def __post_init__(self):
        varpi = np.atleast_1d(np.asarray(self.varpi, dtype=float))
        if varpi.ndim != 1 or varpi.size == 0 or varpi.size % 2:
            raise ValueError("Polar: varpi must be a flat vector of even length")
        object.__setattr__(self, "varpi", varpi)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "r", float(self.r))
        if self.t < 0.0:
            raise ValueError("Polar: t must be non-negative")
        if abs(self.r) > TWO_PI:
            raise ValueError("Polar: |r| must not exceed 2*pi")
        nrm = float(np.linalg.norm(varpi))
        if self.t > 0.0 and abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"Polar: varpi must be unit (|varpi| = {nrm!r})")

    @property
    def n(self):
        return self.varpi.size // 2


@dataclass(frozen=True)
class TangentVec:
    """Tangent vector (v_xi, v_z) attached at a base point."""
    base: Point
    v_xi: np.ndarray
    v_z: float

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v_xi, dtype=float))
        if v.shape != self.base.xi.shape:
            raise ValueError("TangentVec: v_xi must match the base dimension")
        object.__setattr__(self, "v_xi", v)
        object.__setattr__(self, "v_z", float(self.v_z))

    def norm_horizontal(self):
        """Euclidean length of the horizontal part."""
        return float(np.linalg.norm(self.v_xi))


@dataclass(frozen=True)
class FrameAtPoint:
    """Orthonormal horizontal frame V_1 .. V_2n at a point off the center.

    ``vectors`` are the pushed-forward frame fields (ambient components),
    ``polar_forms`` their components in the (t, varpi, r) chart as rows
    (d/dt, d/dvarpi in the tangent basis implied by the construction, d/dr).
    ``xi_field`` is the distinguished second leg Xi = V_2 and ``t_field``
    the vertical-direction combination T = grad(delta) - Xi/w.
    """
    point: Point
    polar: Polar
    vectors: tuple
    polar_forms: np.ndarray
    xi_field: TangentVec
    t_field: TangentVec


@dataclass(frozen=True)
class Jacobian:
    """Polar Jacobian matrix (columns Phi_* d/dt, d/dvarpi, d/dr) and det."""
    matrix: np.ndarray
    det: float


# ----------------------------------------------------------------------
# Group operations
# ----------------------------------------------------------------------

def _J(xi):
    """Blockwise rotation (x, y) -> (y, -x) on each symplectic pair."""
    out = np.empty_like(xi)
    out[0::2] = xi[1::2]
    out[1::2] = -xi[0::2]
    return out


def _symp(xi, eta):
    """Symplectic form <xi, J eta> = sum (x_i eta_y_i - y_i eta_x_i)."""
    return float(xi @ _J(eta))


def group_mul(p, q):
    """Group product p * q."""
    if p.xi.size != q.xi.size:
        raise ValueError("group_mul: dimension mismatch")
    return Point(p.xi + q.xi, p.z + q.z + 0.5 * _symp(p.xi, q.xi))


def group_inverse(p):
    """Group inverse (-xi, -z)."""
    return Point(-p.xi, -p.z)


def dilate(lam, p):
    """Anisotropic dilation (xi, z) -> (lam xi, lam^2 z), lam > 0."""
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("dilate: lam must be positive")
    return Point(lam * p.xi, lam * lam * p.z)


def koranyi(p):
    """Koranyi gauge N(p) = (|xi|^4 + 16 z^2)^(1/4)."""
    s = float(p.xi @ p.xi)
    return math.sqrt(math.hypot(s, 4.0 * p.z))


def koranyi_polar(c):
    """The gauge through polar coordinates: N(Phi(t, varpi, r)) = t * gamma(r)."""
    return c.t * special.gamma(c.r)


# ----------------------------------------------------------------------
# Block helpers for the matrix A(r)
# ----------------------------------------------------------------------

def _apply_block(m2, xi):
    """Apply a single 2x2 matrix to every symplectic pair of xi."""
    pairs = xi.reshape(-1, 2) @ np.asarray(m2).T
    return pairs.reshape(-1)

def _A(r):
    sr, h = math.sin(r), 2.0 * math.sin(0.5 * r) ** 2    # h = 1 - cos r
    return np.array([[sr, -h], [h, sr]])

def _A_prime(r):
    sr, cr = math.sin(r), math.cos(r)
    return np.array([[cr, -sr], [sr, cr]])

def _at(r):
    """The kernels q1, c2, m3 at the scalar r, as three floats."""
    return tuple(float(k[0]) for k in _kernels(np.atleast_1d(r)))

def _A_over_r(r, c2r):
    """A(r)/r from c2(r), removable at r = 0: diag sinc(r), off-diagonal -+ r c2(r)/2."""
    s = float(np.sinc(r / math.pi))               # sin(r)/r
    h = 0.5 * r * c2r                             # (1 - cos r)/r
    return np.array([[s, -h], [h, s]])

def _A_prime_minus_A_over_r(r, c2r, q1r):
    """A'(r) - A(r)/r from the kernels c2(r), q1(r): diagonal
    -r^2 (c2/2 - q1), off-diagonal +-(r (c2/2 - 1) + r^3 q1), which do not
    cancel near r = 0."""
    dg = -r * r * (0.5 * c2r - q1r)
    off = r * (0.5 * c2r - 1.0) + r ** 3 * q1r
    return np.array([[dg, off], [-off, dg]])


# ----------------------------------------------------------------------
# Coordinate maps
# ----------------------------------------------------------------------

def from_polar(c):
    """Evaluate Phi(t, varpi, r): polar coordinates to a group point.

    Stable down to r = 0 (where it degenerates to the Euclidean ray
    t*varpi) and exact at |r| = 2*pi, which maps onto the vertical center
    at height sign(r) t^2/(4*pi).
    """
    t, r = c.t, c.r
    if abs(r) == TWO_PI:
        return Point(np.zeros_like(c.varpi), math.copysign(t * t / (4.0 * math.pi), r))
    return _point(t, c.varpi, r, *_at(r)[:2])


def _point(t, varpi, r, q1r, c2r):
    """Phi(t, varpi, r) for |r| < 2*pi from the kernels q1(r), c2(r)."""
    return Point(t * _apply_block(_A_over_r(r, c2r), varpi), 0.5 * t * t * r * q1r)


def to_polar(p):
    """Invert Phi: group point to polar coordinates (t, varpi, r).

    On the center (xi = 0) the angle saturates at r = sign(z) 2*pi and
    varpi is reported as the first coordinate direction.  The zero point
    maps to t = 0.
    """
    nxi = float(np.linalg.norm(p.xi))
    dim = p.xi.size
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if nxi == 0.0:
        if p.z == 0.0:
            return Polar(0.0, e1, 0.0)
        return Polar(math.sqrt(4.0 * math.pi * abs(p.z)), e1, math.copysign(TWO_PI, p.z))
    if p.z == 0.0:
        return Polar(nxi, p.xi / nxi, 0.0)

    a = nxi * nxi / abs(p.z)
    if math.isinf(a):
        return Polar(nxi, p.xi / nxi, 0.0)
    rmag = special.invert_phi(a)
    r = math.copysign(rmag, p.z)
    if rmag > math.pi:
        # sin(r/2) vanishes at 2*pi, so near the center it amplifies the
        # rounding of r; the height z = t^2 r q1(r)/2 gives t without it.
        t = math.sqrt(2.0 * abs(p.z) / (rmag * _at(rmag)[0]))
    else:
        t = rmag * nxi / (2.0 * math.sin(0.5 * rmag))
    # varpi_i = (r/t) A(r)^T xi_i / (2 - 2 cos r) = B xi_i / t: stable
    # blockwise form, normalized without the 1/t, which can underflow it.
    half_cot = 0.5 * rmag / math.tan(0.5 * rmag)
    B = np.array([[half_cot, 0.5 * r], [-0.5 * r, half_cot]])
    varpi = _apply_block(B, p.xi)
    varpi = varpi / float(np.linalg.norm(varpi))
    return Polar(t, varpi, r)


def cc_distance(p):
    """Carnot-Caratheodory distance of p from the identity (= polar t)."""
    return to_polar(p).t


# ----------------------------------------------------------------------
# Jacobian of the polar map
# ----------------------------------------------------------------------

def _complete_basis(seeds, dim, pivot_tol=1e-6):
    """Extend orthonormal ``seeds`` to an orthonormal basis of R^dim.

    Deterministic modified Gram-Schmidt over the coordinate vectors, with
    re-orthogonalization; candidates with residual below ``pivot_tol`` are
    skipped, so the output does not depend on near-degenerate pivots.
    """
    basis = [np.asarray(s, dtype=float) for s in seeds]
    for i in range(dim):
        if len(basis) == dim:
            break
        u = np.zeros(dim)
        u[i] = 1.0
        for _ in range(2):
            for bvec in basis:
                u = u - (u @ bvec) * bvec
        nrm = float(np.linalg.norm(u))
        if nrm > pivot_tol:
            basis.append(u / nrm)
    if len(basis) != dim:
        raise RuntimeError("_complete_basis: failed to complete the basis")
    return basis[len(seeds):]


def jacobian(c):
    """Differential of Phi at (t, varpi, r) and its determinant.

    Columns are Phi_* d/dt, Phi_* of an orthonormal basis of the tangent
    space of the sphere at varpi, and Phi_* d/dr; the sphere basis is
    oriented so the determinant is positive, and it then equals
    t^(2n+1) mu(r).

    Requires t > 0 and 0 < |r| < 2*pi.
    """
    t, r = c.t, c.r
    if not (t > 0.0 and 0.0 < abs(r) < TWO_PI):
        raise ValueError("jacobian: requires t > 0 and 0 < |r| < 2*pi")
    n = c.n
    dim = 2 * n + 1
    varpi = c.varpi
    A = _A(r)
    q1r, c2r, _ = _at(r)
    Aor = _A_over_r(r, c2r)

    cols = np.empty((dim, dim))
    # d/dt column
    cols[:-1, 0] = _apply_block(Aor, varpi)
    cols[-1, 0] = t * r * q1r
    # sphere columns
    tangent = _complete_basis([varpi], 2 * n)
    for j, th in enumerate(tangent):
        cols[:-1, 1 + j] = (t / r) * _apply_block(A, th)
        cols[-1, 1 + j] = 0.0
    # d/dr column
    cols[:-1, -1] = (t / r) * _apply_block(
        _A_prime_minus_A_over_r(r, c2r, q1r), varpi)
    cols[-1, -1] = -0.5 * t * t * (2.0 * q1r - 0.5 * c2r)     # k3 = 2 q1 - c2/2

    det = float(np.linalg.det(cols))
    if det < 0.0:
        cols[:, 1] = -cols[:, 1]
        det = -det
    return Jacobian(matrix=cols, det=det)


# ----------------------------------------------------------------------
# Gradient of the distance and the horizontal frame
# ----------------------------------------------------------------------

def grad_delta(p):
    """Horizontal gradient of the Carnot distance at p (off the center).

    In polar coordinates grad(delta) = (A'(r) varpi, t r c2(r)/4); it is a
    unit horizontal vector, so the eikonal equation |grad delta| = 1 holds.
    """
    if float(np.linalg.norm(p.xi)) == 0.0:
        raise ValueError("grad_delta: undefined on the center xi = 0")
    c = to_polar(p)
    v_xi = _apply_block(_A_prime(c.r), c.varpi)
    v_z = 0.25 * c.t * c.r * _at(c.r)[1]
    return TangentVec(base=p, v_xi=v_xi, v_z=v_z)


def frame(c):
    """Adapted orthonormal horizontal frame at Phi(c), 0 < |r| < 2*pi, t > 0.

    Returns a FrameAtPoint with:

    * V_1 = grad(delta), polar components (1, 0, r/t);
    * V_2 = Xi, polar components (0, (r/t) v(r) J varpi, (r/t) w(r));
    * V_j, j >= 3, the rotated sphere directions with polar components
      (0, |r|/(t sqrt(2 - 2 cos r)) W_j, 0), where the W_j complete
      (varpi, J varpi) to an orthonormal basis of R^(2n);
    * the vertical combination T = grad(delta) - Xi/w with polar
      components (1, -(r v/(t w)) J varpi, 0) and squared length
      (1 + w^2)/w^2.

    ``polar_forms`` stacks the (2n+2)-component polar coordinates of
    V_1 .. V_2n as rows, ordered (t; varpi in ambient R^(2n); r).
    """
    t, r = c.t, c.r
    if not (t > 0.0 and 0.0 < abs(r) < TWO_PI):
        raise ValueError("frame: requires t > 0 and 0 < |r| < 2*pi")
    n = c.n
    varpi = c.varpi
    q1r, c2r, m3r = _at(r)
    point = _point(t, varpi, r, q1r, c2r)
    A = _A(r)
    Ap = _A_prime(r)
    Jvarpi = _J(varpi)
    rwr = c2r / (2.0 * m3r)                  # r w(r)
    vv = q1r / (m3r * r)
    ww = c2r / (2.0 * m3r * r)
    root = 2.0 * abs(math.sin(0.5 * r))      # sqrt(2 - 2 cos r)

    # pushforwards
    v1 = TangentVec(base=point, v_xi=_apply_block(Ap, varpi), v_z=0.25 * t * r * c2r)
    xi2 = (vv * _apply_block(A, Jvarpi)
           + ww * _apply_block(_A_prime_minus_A_over_r(r, c2r, q1r), varpi))
    v2 = TangentVec(base=point, v_xi=xi2, v_z=-0.5 * t * rwr * (2.0 * q1r - 0.5 * c2r))
    vecs = [v1, v2]
    wdirs = _complete_basis([varpi, Jvarpi], 2 * n)
    sgn = math.copysign(1.0, r)
    for wd in wdirs:
        vecs.append(TangentVec(base=point, v_xi=sgn * _apply_block(A, wd) / root, v_z=0.0))

    # polar components, rows (t, varpi-block, r)
    forms = np.zeros((2 * n, 2 * n + 2))
    forms[0, 0] = 1.0
    forms[0, -1] = r / t
    forms[1, 1:-1] = (r / t) * vv * Jvarpi
    forms[1, -1] = (r / t) * ww
    for j, wd in enumerate(wdirs):
        forms[2 + j, 1:-1] = abs(r) / (t * root) * wd

    t_field = TangentVec(base=point, v_xi=v1.v_xi - v2.v_xi / ww,
                         v_z=v1.v_z - v2.v_z / ww)
    return FrameAtPoint(point=point, polar=c, vectors=tuple(vecs),
                        polar_forms=forms, xi_field=v2, t_field=t_field)


def is_horizontal(vec, tol=1e-10):
    """Check membership of a tangent vector in the horizontal distribution.

    The horizontal plane at (xi, z) is spanned by X_i = d/dx_i + (y_i/2) d/dz
    and Y_i = d/dy_i - (x_i/2) d/dz, so the residual is
    |v_z - <xi, J v_xi>/2| evaluated at the base point.

    Returns (bool, residual).
    """
    base = vec.base
    resid = abs(vec.v_z - 0.5 * _symp(base.xi, vec.v_xi))
    return resid <= tol, resid


# ----------------------------------------------------------------------
# Geodesics
# ----------------------------------------------------------------------

def geodesic(varpi, p_z, s):
    """Unit-speed geodesic from the identity with direction (varpi, p_z).

    gamma(s) = Phi(s, varpi, s p_z); requires s >= 0 and s |p_z| < 2*pi
    (conjugate-point bound).  The Carnot distance of gamma(s) equals s.
    """
    s = float(s)
    p_z = float(p_z)
    if s < 0.0:
        raise ValueError("geodesic: s must be non-negative")
    if s * abs(p_z) >= TWO_PI:
        raise ValueError("geodesic: requires s |p_z| < 2*pi before the conjugate point")
    return from_polar(Polar(s, varpi, s * p_z))


def geodesic_curve_length(varpi, p_z, s, fd_step=1e-6):
    """Euclidean-horizontal arc length of the geodesic up to parameter s.

    Integrates |d gamma_xi / d sigma| with central differences; for a
    unit-speed geodesic this reproduces s, which is what the consistency
    checks rely on.
    """
    varpi = np.asarray(varpi, dtype=float)

    def speed(sig):
        sig = np.atleast_1d(sig)
        out = np.empty_like(sig)
        for i, ss in enumerate(sig):
            h = fd_step
            gp = geodesic(varpi, p_z, ss + h)
            gm = geodesic(varpi, p_z, max(ss - h, 0.0))
            out[i] = np.linalg.norm(gp.xi - gm.xi) / (h + min(ss, h))
        return out

    res = integrate(speed, 0.0, s, rtol=1e-9)
    return res.value
