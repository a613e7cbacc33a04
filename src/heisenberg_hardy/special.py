"""Special functions attached to geodesic polar coordinates on the Heisenberg group.

Everything in this module is a function of the vertical angle ``r`` (and the
dimension parameter ``n`` where it matters).  The functions come in two
layers:

* three stable scalar kernels that isolate every trigonometric
  cancellation once and for all, computed together by ``_kernels`` from
  two sines per value,

      q1(r) = (r - sin r) / r^3
      c2(r) = 2 (1 - cos r) / r^2
      m3(r) = (2 - 2 cos r - r sin r) / r^4

  and the exact identities m4 = (r^2 - 2 r sin r - 2 cos r + 2)/r^4 =
  q1 + m3 and k3 = (r - 2 sin r + r cos r)/r^3 = 2 q1 - c2/2.  Measured
  against 80-digit references on [0, 2*pi], c2 holds 5 ulps and the series
  of q1 and m3 1 ulp, but their closed forms still cancel just above
  SERIES_SWITCH: q1 is off by up to 63 ulps (1.05e-14 relative) and m3
  by up to 471 ulps (7.9e-14), at r = 0.253 and 0.254; on [1, 2*pi] they
  hold 2 and 21 ulps.  ROADMAP item 2 is the accuracy work;

* the model's named functions assembled from the kernels without further
  cancellation:

      phi(r)   = 2 c2 / (r q1)            (order-reversing, (0,2*pi] -> [0,inf))
      mu(r)    = m3 c2^(n-1)              (radial density of the polar Jacobian)
      w(r)     = c2 / (2 r m3),  v(r) = q1 / (r m3)
      gamma(r) = sqrt(2) m4^(1/4)         (gauge ratio N/t on the unit sphere)
      eta(r)   = c2 / (4 m4)              (Hardy weight; eta = w^2/(1+w^2))

All public functions accept scalars or arrays and are vectorized in ``r``.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this |r| the closed forms lose digits to cancellation (r - sin r
# and c2 - sin(r)/r vanish like r^3 and r^2), so the kernels switch to
# series.  Eight even terms keep the truncation error under 1e-20 here.
SERIES_SWITCH = 0.25

# Taylor coefficients of (q1, m3) in x = r^2, highest power first, shaped
# for one Horner pass over both series:
#   q1: sum_{j>=0} (-1)^j x^j / (2j+3)!
#   m3: sum_{j>=0} (-1)^j (2j+2) x^j / (2j+4)!
_SERIES_COEF = np.array([[(-1.0) ** j / math.factorial(2 * j + 3),
                          (-1.0) ** j * (2 * j + 2) / math.factorial(2 * j + 4)]
                         for j in reversed(range(8))])[:, :, None]


def _split(r):
    """Coerce to float ndarray, remembering whether the input was scalar."""
    arr = np.asarray(r, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _join(out, scalar):
    return float(out[0]) if scalar else out


def _c2(r):
    """2(1 - cos r)/r^2 = sinc(r/(2*pi))^2 via the half-angle sine; stable everywhere."""
    return np.sinc(r / TWO_PI) ** 2


def _kernels(r):
    """The kernels (q1, c2, m3) at the float array r, from two sines per value.

    All three are even, so the closed forms run on a = |r|, with s = sin a:

        q1 = (a - s)/a^3,   c2 = sinc(r/(2*pi))^2,   m3 = (c2 - s/a)/a^2,

    the last from 2 - 2 cos r - r sin r = r^2 (c2 - sin(r)/r).  Where
    |r| < SERIES_SWITCH one Horner pass over both series overwrites q1 and
    m3 (the closed forms give nan at r = 0 and x = r^2 underflows at tiny
    r, hence the ignored errors).  Each value depends only on its own r,
    so a batch is bit-equal to one-element calls.
    """
    c2 = _c2(r)
    a = np.abs(r)
    with np.errstate(all="ignore"):
        s = np.sin(a)
        q1 = a - s
        q1 /= a ** 3
        s /= a
        m3 = np.subtract(c2, s, out=s)
        m3 /= a * a
        small = a < SERIES_SWITCH
        if small.any():
            x = a[small] ** 2
            series = _SERIES_COEF[0]
            for coef in _SERIES_COEF[1:]:
                series = series * x + coef
            q1[small], m3[small] = series
    return q1, c2, m3


def eval_phi(r):
    """Evaluate phi(r) = 4 (1 - cos r)/(r - sin r), extended oddly to [-2*pi, 0).

    phi is an order-reversing diffeomorphism of (0, 2*pi] onto [0, inf).
    Exactly ``+-2*pi`` maps to signed zero.  Accepts arrays.

    Raises
    ------
    ValueError
        for r = 0, |r| > 2*pi, or non-finite input.
    """
    arr, scalar = _split(r)
    if not np.all(np.isfinite(arr)):
        raise ValueError("phi: r must be finite")
    if np.any(arr == 0.0):
        raise ValueError("phi: r = 0 is a pole (phi ~ 12/r)")
    if np.any(np.abs(arr) > TWO_PI):
        raise ValueError("phi: |r| must not exceed 2*pi")
    q1, c2, _ = _kernels(arr)
    out = 2.0 * c2 / (q1 * arr)
    # cos(2*pi) rounds to just under 1, leaving a harmless ~1e-32 residue;
    # pin the endpoint so that invert_phi(0) round-trips exactly.
    out[np.abs(arr) == TWO_PI] = np.copysign(0.0, arr[np.abs(arr) == TWO_PI])
    return _join(out, scalar)


# Below this a the center asymptote 2*pi - sqrt(pi a) starts Newton nearer
# the root of phi(r) = a than the plane asymptote 12/a (9% and 7% off here).
_PHI_ASYMPTOTE_SWITCH = 8.0


def invert_phi(a):
    """Solve phi(r) = a for r in (0, 2*pi], given a in [0, inf].

    Accepts scalars or arrays.  a = 0 gives 2*pi and a = inf gives 0.
    Elsewhere Newton's method on log phi(r) - log a runs over the whole
    array, started from the asymptotic inverses r = 12/a (phi ~ 12/r at
    r -> 0) and r = 2*pi - sqrt(pi a) (phi ~ (2*pi - r)^2/pi at 2*pi).
    Each iteration makes one ``_kernels`` call for q1, c2 and m3:

        log phi = log(2 c2 / (r q1)),   d log phi / dr = -2 m3 / (r q1 c2),

    and log phi - log a is taken as the log of the ratio phi/a, which is
    near 1, so the rounding of log a itself (1e-13 at a = 1e300) stays out.
    Steps are clipped inside (0, 2*pi).  An element stops when its step is
    at most 4 eps |r| -- a relative test, so r ~ 12/a holds up to the
    largest float -- or is no smaller than its previous step, which happens
    only at the rounding level of log phi.  r is as accurate as the kernels
    allow: a few ulps, and up to ~50 ulps just above the series switch of
    q1 (r ~ 0.26).

    Raises
    ------
    ValueError
        for negative or NaN input.
    """
    arr, scalar = _split(a)
    if np.any(np.isnan(arr)) or np.any(arr < 0.0):
        raise ValueError("invert_phi: a must be in [0, inf]")
    flat = arr.reshape(-1)
    out = np.where(flat == 0.0, TWO_PI, 0.0)
    idx = np.flatnonzero((flat > 0.0) & (flat < np.inf))
    aa = flat[idx]
    r = np.where(aa > _PHI_ASYMPTOTE_SWITCH,
                 12.0 / np.maximum(aa, _PHI_ASYMPTOTE_SWITCH),
                 TWO_PI - np.sqrt(math.pi * np.minimum(aa, _PHI_ASYMPTOTE_SWITCH)))
    last = np.full_like(r, np.inf)
    rtol = 4.0 * np.finfo(float).eps
    # Terminates: every element still iterating has a strictly smaller step.
    while idx.size:
        q1, c2, m3 = _kernels(r)
        rq1 = r * q1
        new = np.clip(r + np.log(2.0 * c2 / rq1 / aa) * (rq1 * c2) / (2.0 * m3),
                      0.5 * r, 0.5 * (r + TWO_PI))
        step = np.abs(new - r)
        out[idx] = new
        keep = (step > rtol * r) & (step < last)
        idx, aa, r, last = idx[keep], aa[keep], new[keep], step[keep]
    return _join(out.reshape(arr.shape), scalar)


def mu(r, n=1):
    """Radial Jacobian density mu(r) = m3(r) c2(r)^(n-1).

    This closed form is the full trigonometric expression of the polar
    volume density with every power of r cancelled exactly; mu(0) = 1/12
    for every n and mu(+-2*pi) = 0.
    """
    arr, scalar = _split(r)
    _, c2, m3 = _kernels(arr)
    return _join(m3 * c2 ** (n - 1), scalar)


def rw(r):
    """r * w(r) = c2/(2 m3); smooth and positive on (-2*pi, 2*pi), value 6 at 0."""
    arr, scalar = _split(r)
    _, c2, m3 = _kernels(arr)
    return _join(c2 / (2.0 * m3), scalar)


def rv(r):
    """r * v(r) = q1/m3; smooth on (-2*pi, 2*pi), value 2 at 0."""
    arr, scalar = _split(r)
    q1, _, m3 = _kernels(arr)
    return _join(q1 / m3, scalar)


def w(r):
    """w(r) = (1 - cos r)/(2 - 2 cos r - r sin r) * r; simple pole at r = 0."""
    arr, scalar = _split(r)
    _, c2, m3 = _kernels(arr)
    with np.errstate(divide="ignore"):
        out = c2 / (2.0 * m3 * arr)
    return _join(out, scalar)


def v(r):
    """v(r) = (r - sin r)/(2 - 2 cos r - r sin r) / r; poles at r = 0 and +-2*pi."""
    arr, scalar = _split(r)
    q1, _, m3 = _kernels(arr)
    with np.errstate(divide="ignore"):
        out = q1 / (m3 * arr)
    return _join(out, scalar)


def gamma(r):
    """Gauge ratio gamma(r) = sqrt(2) m4(r)^(1/4).

    Equals N/t on the unit geodesic sphere; decreases from 1 at r = 0 to
    pi^(-1/2) at |r| = 2*pi.
    """
    arr, scalar = _split(r)
    q1, _, m3 = _kernels(arr)
    return _join(math.sqrt(2.0) * (q1 + m3) ** 0.25, scalar)


def eta(r):
    """Hardy weight eta(r) = c2/(4 m4) = w^2/(1 + w^2) on [-2*pi, 2*pi].

    Even, equal to 1 at r = 0, vanishing at |r| = 2*pi, non-increasing
    in |r|.
    """
    arr, scalar = _split(r)
    q1, c2, m3 = _kernels(arr)
    return _join(c2 / (4.0 * (q1 + m3)), scalar)


@dataclass(frozen=True)
class SpecialValue:
    """Bundle of all weight functions at a common angle r.

    ``phi``, ``v`` and ``w`` carry their poles as infinities (phi, v, w at
    r = 0; v also at |r| = 2*pi); all removable limits are filled in:
    mu(0) = 1/12, gamma(0) = 1, eta(0) = 1.  ``psi_weight`` is the vertical
    weight psi pulled back through polar coordinates, i.e. the angle r
    itself.
    """
    r: object
    phi: object
    mu: object
    v: object
    w: object
    gamma: object
    eta: object
    psi_weight: object


def eval_weights(r, n=1):
    """Evaluate all named weight functions at once; returns a SpecialValue.

    Accepts scalars or arrays and |r| up to 2*pi.  At r = 0 the functions
    with poles (phi, v, w) come back as +inf.
    """
    arr, scalar = _split(r)
    if not np.all(np.isfinite(arr)):
        raise ValueError("eval_weights: r must be finite")
    if np.any(np.abs(arr) > TWO_PI):
        raise ValueError("eval_weights: |r| must not exceed 2*pi")
    if n < 1 or n != int(n):
        raise ValueError("eval_weights: n must be a positive integer")
    q1, c2, m3 = _kernels(arr)
    m4 = q1 + m3
    with np.errstate(divide="ignore"):
        phi_val = 2.0 * c2 / (q1 * arr)
        w_val = c2 / (2.0 * m3 * arr)
        v_val = q1 / (m3 * arr)
    pole = arr == 0.0
    phi_val[pole] = w_val[pole] = v_val[pole] = np.inf
    end = np.abs(arr) == TWO_PI
    phi_val[end] = np.copysign(0.0, arr[end])
    values = dict(
        phi=_join(phi_val, scalar),
        mu=_join(m3 * c2 ** (n - 1), scalar),
        v=_join(v_val, scalar),
        w=_join(w_val, scalar),
        gamma=_join(math.sqrt(2.0) * m4 ** 0.25, scalar),
        eta=_join(c2 / (4.0 * m4), scalar),
    )
    # One copy, not the caller's array; made after the temporaries above
    # are freed, so it does not raise the peak memory.
    angle = _join(arr.copy(), scalar)
    return SpecialValue(r=angle, psi_weight=angle, **values)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the structural identities of the weight functions.

    All maxima are taken over a uniform grid on (0, 2*pi) that excludes
    1e-3-neighbourhoods of the endpoints (parity checks mirror the grid).

    residual_rwmu      max |d/dr (r w mu) + n r mu|   (central differences)
    residual_garofalo  max relative error in (1+w^2)/w^2 = 2 s4/(r^2 (1-cos r))
    residual_parity    max |f(-r) - (+-f(r))| over the even/odd pairs
    gamma_margin       min gamma(r) - pi^(-1/2)  (should be >= 0)
    eta_increase       max increase of eta along increasing |r| (should be <= 0)
    """
    n: int
    grid_size: int
    fd_step: float
    residual_rwmu: float
    residual_garofalo: float
    residual_parity: float
    gamma_margin: float
    eta_increase: float
    passed: bool


def check_identities(n=1, grid_size=10_000, fd_step=1e-5):
    """Verify the differential and algebraic identities of the weights.

    Checks, on a uniform grid of (0, 2*pi) excluding 1e-3 end
    neighbourhoods:

    (a) d/dr [r w(r) mu(r)] = -n r mu(r)        (central differences)
    (b) (1 + w^2)/w^2 = 2 (r^2 - 2 r sin r - 2 cos r + 2)/(r^2 (1 - cos r))
    (c) parity: mu, eta even; phi, v, w odd
    (d) gamma(r) >= pi^(-1/2)
    (e) eta non-increasing in |r|

    Returns an IdentityReport; ``passed`` is True when (a) < 1e-6,
    (b) < 1e-10 relative, (c) < 1e-12, (d) >= -1e-12, (e) <= 1e-12.
    """
    if grid_size < 16:
        raise ValueError("check_identities: grid_size must be at least 16")
    r = np.linspace(1e-3, TWO_PI - 1e-3, grid_size)

    # (a) derivative identity, central differences
    def rwmu(x):
        return rw(x) * mu(x, n)

    d = (rwmu(r + fd_step) - rwmu(r - fd_step)) / (2.0 * fd_step)
    res_a = float(np.max(np.abs(d + n * r * mu(r, n))))

    # (b) Gaveau-Garofalo identity, relative residual.  The right side is
    # 2 (r^2 - 2 r sin r - 2 cos r + 2)/(r^2 (1 - cos r)) = 4 m4/c2; both
    # sides are evaluated through the stable kernels (the naive right-hand
    # numerator alone loses ~12 digits at r = 1e-3): the left side through
    # w = c2/(2 r m3), the right through m4 = q1 + m3, so the identity that
    # ties q1 to c2 and m3 is genuinely exercised.
    w2 = w(r) ** 2
    lhs = (1.0 + w2) / w2
    q1, c2, m3 = _kernels(r)
    rhs = 4.0 * (q1 + m3) / c2
    res_b = float(np.max(np.abs(lhs - rhs) / rhs))

    # (c) parity
    res_c = max(
        float(np.max(np.abs(mu(-r, n) - mu(r, n)))),
        float(np.max(np.abs(eta(-r) - eta(r)))),
        float(np.max(np.abs(eval_phi(-r) + eval_phi(r)))),
        float(np.max(np.abs(v(-r) + v(r)))),
        float(np.max(np.abs(w(-r) + w(r)))),
    )

    # (d) gamma lower bound and (e) eta monotonicity, on [0, 2*pi]
    rfull = np.linspace(0.0, TWO_PI, grid_size)
    margin_d = float(np.min(gamma(rfull)) - 1.0 / math.sqrt(math.pi))
    res_e = float(np.max(np.diff(eta(rfull))))

    passed = (res_a < 1e-6 and res_b < 1e-10 and res_c < 1e-12
              and margin_d >= -1e-12 and res_e <= 1e-12)
    return IdentityReport(n=n, grid_size=grid_size, fd_step=fd_step,
                          residual_rwmu=res_a, residual_garofalo=res_b,
                          residual_parity=res_c, gamma_margin=margin_d,
                          eta_increase=res_e, passed=passed)
