"""Geodesic polar coordinates and horizontal frames on the Heisenberg group H^n.

Points are (xi, z) in R^(2n) x R with the group law

    (xi, z) * (xi', z') = (xi + xi', z + z' + <xi, J xi'>/2),

where J acts blockwise on the planes (x_i, y_i) as (x, y) -> (y, -x).
Reading each pair as one complex coordinate x_i + i y_i (so H^n = C^n x R),
J is multiplication by -i and every 2x2 block of the chart below is a
complex scalar.  Geodesic polar coordinates (t, varpi, r) -- Carnot distance
t >= 0, a unit horizontal direction varpi in S^(2n-1), and a vertical angle
|r| <= 2*pi -- parametrize the group through

    Phi(t, varpi, r) = ( (t/r) A(r) varpi , t^2 (r - sin r)/(2 r^2) ),
    A(r) = 2 sin(r/2) e^(i r/2),  so  xi = t sinc(r/2) e^(i r/2) varpi,

with the r -> 0 limits built into the stable kernels of
:mod:`heisenberg_hardy.special`.  This module provides the coordinate maps
both ways, the Carnot distance, the Koranyi gauge, the polar Jacobian, and
the adapted orthonormal horizontal frame.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

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
        xi = np.ascontiguousarray(self.xi, dtype=float)     # _mul views pairs
        if xi.ndim != 1 or xi.size == 0 or xi.size % 2:
            raise ValueError("Point: xi must be a flat vector of even length")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "z", float(self.z))

    @property
    def n(self):
        return self.xi.size // 2


@dataclass(frozen=True)
class Polar:
    """Polar triple (t, varpi, r): t >= 0, |varpi| = 1, |r| <= 2*pi.

    Its kernels, complement and point are computed on first use and kept.
    """
    t: float
    varpi: np.ndarray
    r: float

    def __post_init__(self):
        varpi = np.ascontiguousarray(self.varpi, dtype=float)
        if varpi.ndim != 1 or varpi.size == 0 or varpi.size % 2:
            raise ValueError("Polar: varpi must be a flat vector of even length")
        object.__setattr__(self, "varpi", varpi)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "r", float(self.r))
        if not (0.0 <= self.t < math.inf and abs(self.r) <= TWO_PI):    # NaN fails
            raise ValueError("Polar: requires finite t >= 0 and |r| <= 2*pi")
        nrm = math.hypot(*varpi)
        if self.t > 0.0 and not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"Polar: varpi must be unit (|varpi| = {nrm!r})")

    @property
    def n(self):
        return self.varpi.size // 2

    @cached_property
    def kernels(self):
        """The kernels (q1, c2, m3) at r, as three floats."""
        return _at(self.r)

    @cached_property
    def _point(self):
        """Phi(t, varpi, r), evaluated on first use; ``from_polar`` returns it."""
        t, r = self.t, self.r
        if abs(r) == TWO_PI:
            point = Point(np.zeros_like(self.varpi), math.copysign(t * t / (4.0 * math.pi), r))
        else:
            q1r, c2r, _ = self.kernels
            point = Point(t * _mul(_A_over_r(r, c2r), self.varpi), 0.5 * t * (t * r * q1r))
        point.xi.flags.writeable = False    # shared by every caller
        return point

    @cached_property
    def complement(self):
        """Orthonormal rows spanning the complement of span(varpi, J varpi)."""
        rows = _complement(self.varpi)
        rows.flags.writeable = False        # shared by the maps of this triple
        return rows


@dataclass(frozen=True)
class TangentVec:
    """Tangent vector (v_xi, v_z) attached at a base point."""
    base: Point
    v_xi: np.ndarray
    v_z: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.v_xi, dtype=float)
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
    The distinguished second leg Xi is ``vectors[1]``; ``t_field`` is the
    vertical-direction combination T = grad(delta) - Xi/w.
    """
    point: Point
    polar: Polar
    vectors: tuple
    polar_forms: np.ndarray
    t_field: TangentVec


@dataclass(frozen=True)
class Jacobian:
    """Polar Jacobian matrix (columns Phi_* d/dt, d/dvarpi, d/dr) and det."""
    matrix: np.ndarray
    det: float


# ----------------------------------------------------------------------
# Group operations
# ----------------------------------------------------------------------

def _mul(k, xi):
    """Multiply each pair x_i + i y_i of the contiguous real vector xi by k."""
    return (k * xi.view(complex)).view(float)


def _J(xi):
    """Blockwise rotation (x, y) -> (y, -x), i.e. multiplication by -i."""
    return _mul(-1j, xi)


def _symp(xi, eta):
    """Symplectic form <xi, J eta> = sum (x_i eta_y_i - y_i eta_x_i)."""
    return float(np.vdot(xi.view(complex), eta.view(complex)).imag)


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
    """Koranyi gauge N(p) = (|xi|^4 + 16 z^2)^(1/4).

    Evaluated on the point dilated by 1/lam, lam = max(|xi|, sqrt|z|), so
    neither |xi|^2 nor lam^2 overflows or underflows.
    """
    nxi = math.hypot(*p.xi)
    lam = max(nxi, math.sqrt(abs(p.z)))
    if lam == 0.0:
        return 0.0
    x = nxi / lam
    return lam * math.sqrt(math.hypot(x * x, 4.0 * (p.z / lam) / lam))


# ----------------------------------------------------------------------
# The complex scalars A(r)/r and A'(r) - A(r)/r; A'(r) = e^(i r)
# ----------------------------------------------------------------------

def _at(r):
    """The kernels q1, c2, m3 at the scalar r, as three floats."""
    return tuple(float(k) for k in _kernels(np.float64(r)))

def _A_over_r(r, c2r):
    """A(r)/r = sinc(r/2) e^(i r/2) from c2(r) = sinc(r/2)^2, removable at r = 0;
    sinc(r/2) > 0 for |r| < 2*pi, so it is the root of c2."""
    return math.sqrt(c2r) * cmath.exp(0.5j * r)

def _A_prime_minus_A_over_r(r, c2r, q1r):
    """A'(r) - A(r)/r from the kernels c2(r), q1(r) as
    -r^2 (c2/2 - q1) - i (r (c2/2 - 1) + r^3 q1), which do not cancel near
    r = 0 as e^(i r) - sinc(r/2) e^(i r/2) does."""
    return complex(-r * r * (0.5 * c2r - q1r),
                   -(r * (0.5 * c2r - 1.0) + r ** 3 * q1r))


# ----------------------------------------------------------------------
# Coordinate maps
# ----------------------------------------------------------------------

def from_polar(c):
    """Evaluate Phi(t, varpi, r): polar coordinates to a group point.

    Stable down to r = 0 (where it degenerates to the Euclidean ray
    t*varpi) and exact at |r| = 2*pi, which maps onto the vertical center
    at height sign(r) t^2/(4*pi).  A Polar evaluates its point once and
    returns that one point on every call, its xi read-only.
    """
    return c._point


def _height_distance(k, z, d):
    """sqrt(k z/d) for k, d > 0 and z >= 0, as sqrt(z) sqrt(k/d) only where k z/d overflows."""
    kzd = k * z / d
    return math.sqrt(kzd) if kzd < math.inf else math.sqrt(z) * math.sqrt(k / d)


def _distance(p):
    """|xi|, t and r of p, and the kernels at r if t needed them (else None)."""
    nxi = math.hypot(*p.xi)         # no overflow of |xi|^2
    z = abs(p.z)
    if not (math.isfinite(nxi) and math.isfinite(z)):
        raise ValueError("to_polar: xi and z must be finite")
    a = nxi * (nxi / z) if z else math.inf
    if math.isinf(a):                   # on the plane z = 0, or a overflows
        return nxi, nxi, 0.0, None
    if nxi == 0.0:                      # on the center
        return nxi, _height_distance(4.0 * math.pi, z, 1.0), math.copysign(TWO_PI, p.z), None
    rmag = special.invert_phi(a)
    if rmag > math.pi:
        # sin(r/2) vanishes at 2*pi, so near the center it amplifies the
        # rounding of r; the height z = t^2 r q1(r)/2 gives t without it.
        kernels = _at(rmag)
        return nxi, _height_distance(2.0, z, rmag * kernels[0]), math.copysign(rmag, p.z), kernels
    return nxi, rmag * nxi / (2.0 * math.sin(0.5 * rmag)), math.copysign(rmag, p.z), None


def to_polar(p):
    """Invert Phi: group point to polar coordinates (t, varpi, r).

    On the center (xi = 0) the angle saturates at r = sign(z) 2*pi and
    varpi is reported as the first coordinate direction.  The zero point
    maps to t = 0, and every finite point to a finite t; non-finite xi or
    z raise ValueError.  ``from_polar`` of the result is one read-only point.
    """
    nxi, t, r, kernels = _distance(p)
    if nxi == 0.0:
        varpi = np.eye(1, p.xi.size)[0]     # the first coordinate direction
    elif r == 0.0:
        varpi = p.xi / nxi
    else:
        # xi = t sinc(r/2) e^(i r/2) varpi with sinc(r/2) > 0, so the direction
        # of xi rotated back is varpi: no 1/t, which can underflow.
        varpi = _mul(cmath.exp(-0.5j * r), p.xi / nxi)
    c = Polar(t, varpi, r)
    if kernels is not None:
        vars(c)["kernels"] = kernels        # the kernels are even in r
    return c


def cc_distance(p):
    """Carnot-Caratheodory distance of p from the identity: the t of
    ``to_polar``, bit for bit, from the same code, with no varpi or Polar."""
    return _distance(p)[1]


# ----------------------------------------------------------------------
# Jacobian of the polar map
# ----------------------------------------------------------------------

def _complement(varpi):
    """Real orthonormal basis of the complement of span(varpi, J varpi) in R^(2n).

    Read varpi as a unit vector u in C^n.  The Householder reflector
    H = 1 - 2 v v^*/|v|^2 with v = u + e^(i arg u_1) e_1 maps u to a
    multiple of e_1, so its columns w_k = H e_k, k >= 2, are orthonormal
    and orthogonal to u over C; with J w_k = -i w_k they are the 2n - 2
    real rows returned, ordered w_2, J w_2, w_3, ...
    """
    u = varpi.view(complex)
    n = u.size
    v = u.copy()
    v[0] += u[0] / abs(u[0]) if u[0] else 1.0
    out = np.empty((n - 1, 2, n), dtype=complex)
    w, jw = out[:, 0], out[:, 1]
    np.multiply(v[1:, None].conj(), v, out=w)
    w *= -2.0 / np.vdot(v, v).real
    w[:, 1:] += np.eye(n - 1)
    np.multiply(w, -1j, out=jw)
    return out.reshape(-1, n).view(float)


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
    q1r, c2r, _ = c.kernels
    Aor = _A_over_r(r, c2r)

    cols = np.empty((dim, dim))
    # d/dt column
    cols[:-1, 0] = _mul(Aor, varpi)
    cols[-1, 0] = t * r * q1r
    # sphere columns, along J varpi and the complement of (varpi, J varpi)
    cols[:-1, 1] = _mul(t * Aor, _J(varpi))
    cols[:-1, 2:-1] = _mul(t * Aor, c.complement).T
    cols[-1, 1:-1] = 0.0
    # d/dr column
    cols[:-1, -1] = (t / r) * _mul(_A_prime_minus_A_over_r(r, c2r, q1r), varpi)
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
    if not p.xi.any():
        raise ValueError("grad_delta: undefined on the center xi = 0")
    c = to_polar(p)
    v_xi = _mul(cmath.exp(1j * c.r), c.varpi)
    v_z = 0.25 * c.t * c.r * c.kernels[1]
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
    q1r, c2r, m3r = c.kernels
    point = from_polar(c)
    Aor = _A_over_r(r, c2r)
    Jvarpi = _J(varpi)
    rwr = special._rw(r, q1r, c2r, m3r)
    rvr = special._rv(r, q1r, c2r, m3r)
    vv = special._v(r, q1r, c2r, m3r)
    ww = special._w(r, q1r, c2r, m3r)
    root = 2.0 * abs(math.sin(0.5 * r))      # sqrt(2 - 2 cos r)

    # pushforwards; Xi = (v A J + w (A' - A/r)) varpi, where v A J = -i (r v) A/r
    v1 = TangentVec(base=point, v_xi=_mul(cmath.exp(1j * r), varpi), v_z=0.25 * t * r * c2r)
    xi2 = _mul(-1j * rvr * Aor + ww * _A_prime_minus_A_over_r(r, c2r, q1r), varpi)
    v2 = TangentVec(base=point, v_xi=xi2, v_z=-0.5 * t * rwr * (2.0 * q1r - 0.5 * c2r))
    wdirs = c.complement
    # A W / |A| = e^(i r/2) W, as sin(r/2) has the sign of r on 0 < |r| < 2 pi
    vecs = [v1, v2] + [TangentVec(base=point, v_xi=vj, v_z=0.0)
                       for vj in _mul(cmath.exp(0.5j * r), wdirs)]

    # polar components, rows (t, varpi-block, r)
    forms = np.zeros((2 * n, 2 * n + 2))
    forms[0, 0] = 1.0
    forms[0, -1] = r / t
    forms[1, 1:-1] = (r / t) * vv * Jvarpi
    forms[1, -1] = (r / t) * ww
    forms[2:, 1:-1] = abs(r) / (t * root) * wdirs

    t_field = TangentVec(base=point, v_xi=v1.v_xi - v2.v_xi / ww,
                         v_z=v1.v_z - v2.v_z / ww)
    return FrameAtPoint(point=point, polar=c, vectors=tuple(vecs),
                        polar_forms=forms, t_field=t_field)


_HORIZONTAL_TOL = 1e-10     # largest residual is_horizontal accepts


def is_horizontal(vec):
    """Check membership of a tangent vector in the horizontal distribution.

    The horizontal plane at (xi, z) is spanned by X_i = d/dx_i + (y_i/2) d/dz
    and Y_i = d/dy_i - (x_i/2) d/dz, so the residual is
    |v_z - <xi, J v_xi>/2| evaluated at the base point.

    Returns (residual <= _HORIZONTAL_TOL, residual), the tolerance 1e-10.
    """
    base = vec.base
    resid = abs(vec.v_z - 0.5 * _symp(base.xi, vec.v_xi))
    return resid <= _HORIZONTAL_TOL, resid


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


_FD_STEP = 1e-6     # step of the central differences of geodesic_curve_length


def geodesic_curve_length(varpi, p_z, s):
    """Euclidean-horizontal arc length of the geodesic up to parameter s.

    Integrates |d gamma_xi / d sigma| with central differences of step
    _FD_STEP = 1e-6; for a unit-speed geodesic this reproduces s, which is
    what the consistency checks rely on.
    """
    varpi = np.asarray(varpi, dtype=float)

    def speed(sig):
        sig = np.atleast_1d(sig)
        out = np.empty_like(sig)
        h = _FD_STEP
        for i, ss in enumerate(sig):
            gp = geodesic(varpi, p_z, ss + h)
            gm = geodesic(varpi, p_z, max(ss - h, 0.0))
            out[i] = np.linalg.norm(gp.xi - gm.xi) / (h + min(ss, h))
        return out

    res = integrate(speed, 0.0, s, rtol=1e-9)
    return res.value
