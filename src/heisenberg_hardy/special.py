"""Special functions attached to geodesic polar coordinates on the Heisenberg group.

Everything in this module is a function of the vertical angle ``r`` (and the
dimension parameter ``n`` where it matters).  The functions come in two
layers:

* three stable scalar kernels that isolate every trigonometric
  cancellation once and for all, computed together by ``_kernels`` from
  one tangent of the half angle per value,

      q1(r) = (r - sin r) / r^3
      c2(r) = 2 (1 - cos r) / r^2
      m3(r) = (2 - 2 cos r - r sin r) / r^4

  and the exact identities m4 = (r^2 - 2 r sin r - 2 cos r + 2)/r^4 =
  q1 + m3 and k3 = (r - 2 sin r + r cos r)/r^3 = 2 q1 - c2/2.  Measured
  against 80-digit references on [0, 2*pi] and at 2*pi - 10^-k, the three
  series hold about 1 ulp below SERIES_SWITCH and c2 holds 3 ulps
  (5.7e-16 relative) everywhere; the closed forms of q1 and m3 still
  cancel just above the switch, where q1 is off by up to 25 ulps (5.6e-15
  relative, r = 0.525) and m3 by up to 92 ulps (2.0e-14, r = 0.528); on
  [1, 2*pi] they hold 4 and 16 ulps.
  Floats near 2*pi are 8.9e-16 apart, so angles closer to 2*pi than that
  need kernels in delta = 2*pi - |r|, which do not exist yet;

* the model's named functions assembled from the kernels without further
  cancellation, each written once as a private weight (``_phi``, ``_mu``,
  ...) that every module applies to its own ``_kernels`` call:

      phi(r)   = 2 c2 / (r q1)            (order-reversing, (0,2*pi] -> [0,inf))
      mu(r)    = m3 c2^(n-1)              (radial density of the polar Jacobian)
      w(r)     = c2 / (2 r m3),  v(r) = q1 / (r m3)
      gamma(r) = sqrt(2) m4^(1/4)         (gauge ratio N/t on the unit sphere)
      eta(r)   = c2 / (4 m4)              (Hardy weight; eta = w^2/(1+w^2))

All public functions accept scalars or arrays and are vectorized in ``r``;
the named functions are one call of the driver ``_weights``, which runs the
kernels and the weights on blocks of _BLOCK values, so the temporaries stay
in cache, and a scalar is a block of one.  ``_kernels`` and ``invert_phi``
keep a scalar a numpy scalar instead, bit-equal to the array result: it
skips only the reductions, clips, casts and broadcasts of arrays.  The
domain is r finite with |r| <= 2*pi and n a positive integer; other input
raises ValueError (``hh`` exits 2), checked once: r in ``_kernels``, n in
``_weights``.  At r = +-0 phi, v and w are +-inf, the one-sided limit the
sign of the zero selects, from the formulas themselves, so the named
functions and ``eval_weights`` agree bit for bit there too.
"""

import contextlib
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this |r| the closed forms lose digits to cancellation (a - sin a
# and c2 - sin(a)/a vanish like a^3 and a^2, and amplify the ~2 ulps of a
# sine taken from the half-angle tangent by 6/a^2), so the kernels switch
# to series.  Eight even terms keep the truncation error under 1e-20 here.
SERIES_SWITCH = 0.5

# Taylor coefficients of (q1, c2, m3) in x = r^2, highest power first,
# shaped for one Horner pass over the three series:
#   q1: sum_{j>=0} (-1)^j x^j / (2j+3)!
#   c2: sum_{j>=0} (-1)^j 2 x^j / (2j+2)!
#   m3: sum_{j>=0} (-1)^j (2j+2) x^j / (2j+4)!
_SERIES_COEF = np.array([[(-1.0) ** j / math.factorial(2 * j + 3),
                          (-1.0) ** j * 2 / math.factorial(2 * j + 2),
                          (-1.0) ** j * (2 * j + 2) / math.factorial(2 * j + 4)]
                         for j in reversed(range(8))])[:, :, None]
_SERIES_ROWS = _SERIES_COEF[:, :, 0].T.tolist()     # one list of floats per kernel

# Values per block of the named functions: the temporaries of one block
# (a dozen arrays of 128 KiB) stay in a core's L2 cache.
_BLOCK = 16384


def _kernels(r):
    """The kernels (q1, c2, m3) at the array or numpy scalar r, one tangent per value.

    All three are even, so they are taken at a = |r|.  With h = a/2 and
    t = tan h, sin a = 2t/(1 + t^2) and c2 = sin(h)^2/h^2 = (t/h)^2/(1 + t^2),
    so every closed form is a product or quotient of t, h and a:

        q1 = (a - sin a)/a^3,   c2 = (t/h)^2/(1 + t^2),   m3 = (c2 - sin(a)/a)/a^2,

    the last from 2 - 2 cos r - r sin r = r^2 (c2 - sin(r)/r).  At r = pi,
    t = 1.6e16 still gives c2 = 4/pi^2 and sin a = 1.2e-16.  The tangent
    holds 0.5 ulp, so c2 holds 3 ulps and sin a about 2, which a - sin a
    and c2 - sin(a)/a amplify by about 6/a^2 just above the switch: q1
    holds 25 ulps and m3 92 ulps there, 4 and 16 on [1, 2*pi].  Where
    |r| < SERIES_SWITCH one Horner pass over the three series (about
    1 ulp) overwrites the closed forms (they give nan at r = 0 and x = r^2
    underflows at tiny r, hence the ignored errors); when every |r| is
    below the switch the closed forms are skipped.  Each value depends
    only on its own r, so a batch is bit-equal to one-element calls, and
    so is a numpy scalar: the closed forms in numpy's scalar math (no pole
    at or above the switch), the series in floats.  Raises ValueError unless
    every |r| <= 2*pi (NaN fails): the one check of r, on the max the switch reads.
    """
    a = abs(r)
    top = a.max(initial=0.0) if a.ndim else a
    if not top <= TWO_PI:               # NaN fails too
        raise ValueError(f"r must be finite with |r| <= 2*pi (max |r| = {float(top)!r})")
    if top < SERIES_SWITCH and not a.ndim:      # float arithmetic: silent where x underflows
        x = float(a) * float(a)
        return tuple(np.float64(_series(x, row)) for row in _SERIES_ROWS)
    # a scalar here is at or above the switch, where no closed form meets a pole
    with np.errstate(all="ignore") if a.ndim else contextlib.nullcontext():
        a2 = a * a
        if top < SERIES_SWITCH:
            return tuple(_series(a2.reshape(-1)).reshape((3,) + a.shape))
        h = 0.5 * a
        t = np.tan(h)
        sec2 = t * t
        sec2 += 1.0
        c2 = t / h
        c2 *= c2
        c2 /= sec2
        t /= sec2                       # sin(a)/2
        q1 = h - t                      # (a - sin a)/2
        t /= h                          # sin(a)/a
        m3 = c2 - t
        m3 /= a2
        h *= a2                         # a^3/2
        q1 /= h
        if a.ndim:
            small = (a < SERIES_SWITCH).nonzero()
            if small[0].size:
                for row, series in zip((q1, c2, m3), _series(a2[small])):
                    row[small] = series
    return q1, c2, m3


def _series(x, table=_SERIES_COEF):
    """The series of (q1, c2, m3) at the 1-d x = r^2, shape (3, x.size), by
    Horner; or one of them at the float x, given its row of _SERIES_ROWS."""
    series = table[0] * x
    for coef in table[1:-1]:
        series += coef
        series *= x
    series += table[-1]
    return series


def _dimension(n):
    """n as an int, once it is checked to be a positive integer (NaN and inf fail)."""
    if not (n >= 1 and n % 1 == 0):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return int(n)


def _weights(r, fns, n=1):
    """The weights fns at r: one array shaped like r per fn, or floats for a scalar r.

    Runs ``_kernels`` and each fn(x, q1, c2, m3, n) on blocks of _BLOCK
    values of r flattened, into the rows of one (len(fns), N) output, so the
    temporaries stay in cache; the weights are elementwise, so the result is
    bit-equal to one call over the whole array.  Poles give silent infinities.
    """
    n = _dimension(n)
    arr = np.asarray(r, dtype=float)
    flat = arr.reshape(-1)
    out = np.empty((len(fns), flat.size))
    with np.errstate(divide="ignore"):
        for lo in range(0, flat.size, _BLOCK):
            x = flat[lo:lo + _BLOCK]
            kernels = _kernels(x)
            for fn, row in zip(fns, out[:, lo:lo + _BLOCK]):
                row[...] = fn(x, *kernels, n)
    if arr.ndim == 0:
        return [float(row[0]) for row in out]
    return list(out.reshape((len(fns),) + arr.shape))


# The weights, one definition each, from the kernels (q1, c2, m3) at r and
# m4 = q1 + m3.  ``_weights`` runs them blockwise; geometry and hardy apply
# them to the kernels they already hold (every one but _phi takes floats).
def _mu(r, q1, c2, m3, n=1): return m3 * c2 ** (n - 1)
def _rw(r, q1, c2, m3, n=1): return c2 / (2.0 * m3)
def _rv(r, q1, c2, m3, n=1): return q1 / m3
def _w(r, q1, c2, m3, n=1): return c2 / (2.0 * m3 * r)
def _v(r, q1, c2, m3, n=1): return q1 / (m3 * r)
def _gamma(r, q1, c2, m3, n=1): return math.sqrt(2.0) * (q1 + m3) ** 0.25
def _eta(r, q1, c2, m3, n=1): return c2 / (4.0 * (q1 + m3))


def _phi(r, q1, c2, m3, n=1):
    """phi = 2 c2/(r q1), with +-2*pi mapped to signed zero."""
    out = 2.0 * c2 / (q1 * r)
    # cos(2*pi) rounds to just under 1, leaving a harmless ~1e-32 residue;
    # pin the endpoint so that invert_phi(0) round-trips exactly.
    end = np.abs(r) == TWO_PI
    out[end] = np.copysign(0.0, r[end])
    return out


def eval_phi(r):
    """Evaluate phi(r) = 4 (1 - cos r)/(r - sin r), extended oddly to [-2*pi, 0).

    phi is an order-reversing diffeomorphism of (0, 2*pi] onto [0, inf).
    Exactly ``+-2*pi`` maps to signed zero and ``+-0`` to ``+-inf``, so
    ``invert_phi`` inverts it at both ends.  Accepts arrays.

    Raises
    ------
    ValueError
        for |r| > 2*pi or non-finite input.
    """
    return _weights(r, [_phi])[0]


# Below this a the center asymptote 2*pi - sqrt(pi a) starts Newton nearer
# the root of phi(r) = a than the plane asymptote 12/a (9% and 7% off here).
_PHI_ASYMPTOTE_SWITCH = 8.0


def _asymptotic_start(a):
    """The asymptotic inverses r = 12/a and r = 2*pi - sqrt(pi a) of phi."""
    return np.where(a > _PHI_ASYMPTOTE_SWITCH,
                    12.0 / np.maximum(a, _PHI_ASYMPTOTE_SWITCH),
                    TWO_PI - np.sqrt(math.pi * np.minimum(a, _PHI_ASYMPTOTE_SWITCH)))


def _phi_step(r, a):
    """One Newton step on log phi - log a from r, clipped inside (r/2, (r + 2*pi)/2)."""
    q1, c2, m3 = _kernels(r)
    rq1 = r * q1
    step = r + np.log(2.0 * c2 / rq1 / a) * (rq1 * c2) / (2.0 * m3)
    if step.ndim:
        return np.minimum(np.maximum(step, 0.5 * r), 0.5 * (r + TWO_PI))
    return min(max(step, 0.5 * r), 0.5 * (r + TWO_PI))


# Newton starts for a in [1e-9, e^35 1e-9 ~ 1.6e6): the logit
# G = log(r/(2*pi - r)) of the root against y = log a, one polynomial of
# degree 8 per unit interval of y, interpolated at import at 9 Chebyshev
# nodes per piece from roots that _PHI_TABLE_STEPS Newton steps reach from
# the asymptotes (the error falls 3e-3, 4e-6, 1e-11, 2e-15).  G is linear
# in y at both ends (slopes -1 and -1/2), so r = 2*pi/(1 + e^-G) and
# 2*pi - r are both accurate: the start is within 3.1e-9 of the root in G,
# and one Newton step lands within the rounding of the kernels.
_PHI_TABLE_STEPS = 4
_PHI_TABLE_START = 1e-9
_PHI_TABLE_PIECES = 35
_PHI_TABLE_Y0 = math.log(_PHI_TABLE_START)
_PHI_TABLE_END = math.exp(_PHI_TABLE_Y0 + _PHI_TABLE_PIECES)


def _phi_logit_table():
    """Horner coefficients of G, shape (9, pieces), highest power first."""
    nodes = np.cos((np.arange(9) + 0.5) * math.pi / 9)
    a = np.exp(_PHI_TABLE_Y0 + np.arange(_PHI_TABLE_PIECES)[:, None]
               + 0.5 * (nodes + 1.0)).ravel()
    r = _asymptotic_start(a)
    for _ in range(_PHI_TABLE_STEPS):
        r = _phi_step(r, a)
    logit = np.log(r / (TWO_PI - r)).reshape(_PHI_TABLE_PIECES, 9)
    return np.linalg.solve(nodes[:, None] ** np.arange(8, -1, -1), logit.T)


_PHI_LOGIT = _phi_logit_table()
_PHI_LOGIT_PIECES = _PHI_LOGIT.T.tolist()      # one list of floats per piece


def _newton_start(a):
    """The tabulated logit start inside the table, the asymptotes outside."""
    if a.ndim:
        outside = (a < _PHI_TABLE_START) | (a >= _PHI_TABLE_END)
        y = np.minimum(np.maximum(np.log(a) - _PHI_TABLE_Y0, 0.0), _PHI_TABLE_PIECES)
        piece = np.minimum(y, _PHI_TABLE_PIECES - 1).astype(np.intp)
        coef = _PHI_LOGIT[:, piece]
    elif _PHI_TABLE_START <= a < _PHI_TABLE_END:
        y = min(max(float(np.log(a)) - _PHI_TABLE_Y0, 0.0), _PHI_TABLE_PIECES)
        piece = int(min(y, _PHI_TABLE_PIECES - 1))
        coef = _PHI_LOGIT_PIECES[piece]
    else:
        return _asymptotic_start(a)
    u = 2.0 * (y - piece) - 1.0
    logit = coef[0]
    for c in coef[1:]:
        logit = logit * u + c
    start = TWO_PI / (1.0 + np.exp(-logit))
    if a.ndim and outside.any():
        start = np.where(outside, _asymptotic_start(a), start)
    return start


def invert_phi(a):
    """Solve phi(r) = a for r in (0, 2*pi], given a in [0, inf].

    Accepts scalars or arrays; a scalar runs the arithmetic of an array
    element and skips only the array steps, so it is bit-equal to arrays.
    a = 0 gives 2*pi and a = inf gives 0, for a scalar without any work.
    Elsewhere r is one Newton step on log phi(r) - log a, over the whole
    array in one ``_kernels`` call for q1, c2 and m3:

        log phi = log(2 c2 / (r q1)),   d log phi / dr = -2 m3 / (r q1 c2),

    with log phi - log a taken as the log of the ratio phi/a, which is near
    1, so the rounding of log a itself (1e-13 at a = 1e300) stays out, and
    the step clipped inside (0, 2*pi).  One step suffices because the start
    is already close: for a in [1e-9, 1.6e6] it comes from a table of the
    logit log(r/(2*pi - r)) of the root against log a (piecewise
    polynomials built at import, within 3.1e-9 of the root's logit), beyond
    it from the asymptotic inverses r = 12/a (phi ~ 12/r at r -> 0) and
    r = 2*pi - sqrt(pi a) (phi ~ (2*pi - r)^2/pi at 2*pi), which are within
    1.3e-10 there.  Newton squares that error, to far below the rounding of
    the kernels, so a second step would only move r by the rounding of phi
    at r: a few ulps, and up to 48 ulps (1e-14) on [0.5, 2), where q1 and
    m3 cancel just above the series switch.  r is as accurate as the
    kernels allow: a few ulps, and up to ~27 ulps (6e-15) just above the
    series switch of q1 (r ~ 0.52).

    Raises
    ------
    ValueError
        for negative or NaN input.
    """
    arr = np.asarray(a, dtype=float)
    x = arr[()]                         # a numpy scalar, or a view of the array
    if not (x >= 0.0 if arr.ndim == 0 else (x >= 0.0).all()):   # negative or NaN
        raise ValueError("invert_phi: a must be in [0, inf]")
    if arr.ndim == 0:
        if x == 0.0 or x == math.inf:
            return TWO_PI if x == 0.0 else 0.0
        return float(_phi_step(_newton_start(x), x))
    flat = arr.reshape(-1)
    out = np.where(flat == 0.0, TWO_PI, 0.0)
    idx = np.flatnonzero((flat > 0.0) & (flat < np.inf))
    aa = flat[idx]
    out[idx] = _phi_step(_newton_start(aa), aa)
    return out.reshape(arr.shape)


def mu(r, n=1):
    """Radial Jacobian density mu(r) = m3(r) c2(r)^(n-1).

    This closed form is the full trigonometric expression of the polar
    volume density with every power of r cancelled exactly; mu(0) = 1/12
    for every n and mu(+-2*pi) = 0.
    """
    return _weights(r, [_mu], n)[0]


def rw(r):
    """r * w(r) = c2/(2 m3); smooth and positive on (-2*pi, 2*pi), value 6 at 0."""
    return _weights(r, [_rw])[0]


def rv(r):
    """r * v(r) = q1/m3; smooth on (-2*pi, 2*pi), value 2 at 0."""
    return _weights(r, [_rv])[0]


def w(r):
    """w(r) = (1 - cos r)/(2 - 2 cos r - r sin r) * r; simple pole at r = 0."""
    return _weights(r, [_w])[0]


def v(r):
    """v(r) = (r - sin r)/(2 - 2 cos r - r sin r) / r; poles at r = 0 and +-2*pi."""
    return _weights(r, [_v])[0]


def gamma(r):
    """Gauge ratio gamma(r) = sqrt(2) m4(r)^(1/4).

    Equals N/t on the unit geodesic sphere; decreases from 1 at r = 0 to
    pi^(-1/2) at |r| = 2*pi.
    """
    return _weights(r, [_gamma])[0]


def eta(r):
    """Hardy weight eta(r) = c2/(4 m4) = w^2/(1 + w^2) on [-2*pi, 2*pi].

    Even, equal to 1 at r = 0, vanishing at |r| = 2*pi, non-increasing
    in |r|.
    """
    return _weights(r, [_eta])[0]


@dataclass(frozen=True)
class SpecialValue:
    """Bundle of all weight functions at a common angle r.

    ``phi``, ``v`` and ``w`` carry their poles at r = +-0 as +-inf, bit-equal
    to ``eval_phi``, ``v`` and ``w``; all removable limits are filled in:
    mu(0) = 1/12, gamma(0) = 1, eta(0) = 1.
    """
    r: object
    phi: object
    mu: object
    v: object
    w: object
    gamma: object
    eta: object


def eval_weights(r, n=1):
    """Evaluate all named weight functions at once; returns a SpecialValue.

    Accepts scalars or arrays and |r| up to 2*pi.  Each field is bit-equal
    to its named function, the poles of phi, v and w at r = +-0 included.
    """
    arr = np.asarray(r, dtype=float)
    values = _weights(arr, [_phi, _v, _w, _mu, _gamma, _eta], n)
    names = ("phi", "v", "w", "mu", "gamma", "eta")
    # One copy, not the caller's array.
    angle = arr.copy() if arr.ndim else float(arr)
    return SpecialValue(r=angle, **dict(zip(names, values)))


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


_FD_STEP = 1e-5     # step of the central differences of check_identities

# Each identity of check_identities passes when its residual is at most its
# tolerance; the residual of the gamma bound is -gamma_margin.
_IDENTITY_TOLERANCES = {"rwmu_derivative": 1e-6, "garofalo_identity": 1e-10,
                        "parity": 1e-12, "gamma_lower_bound": 1e-12,
                        "eta_monotone": 1e-12}


def _identity_residuals(rep):
    """The residuals of rep in the order of _IDENTITY_TOLERANCES."""
    return [rep.residual_rwmu, rep.residual_garofalo, rep.residual_parity,
            -rep.gamma_margin, rep.eta_increase]


def check_identities(n=1, grid_size=10_000):
    """Verify the differential and algebraic identities of the weights.

    Checks, on a uniform grid of (0, 2*pi) excluding 1e-3 end
    neighbourhoods, with every weight from two ``_weights`` calls:

    (a) d/dr [r w(r) mu(r)] = -n r mu(r)        (central differences)
    (b) (1 + w^2)/w^2 = 2 (r^2 - 2 r sin r - 2 cos r + 2)/(r^2 (1 - cos r))
    (c) parity: mu, eta even; phi, v, w odd
    (d) gamma(r) >= pi^(-1/2)
    (e) eta non-increasing in |r|

    Returns an IdentityReport; ``passed`` is True when every residual is at
    most its _IDENTITY_TOLERANCES entry:
    (a) 1e-6, (b) 1e-10 relative, (c) 1e-12, (d) 1e-12 on -gamma_margin,
    (e) 1e-12.
    """
    if grid_size < 16:
        raise ValueError("check_identities: grid_size must be at least 16")
    r = np.linspace(1e-3, TWO_PI - 1e-3, grid_size)
    h = _FD_STEP

    # The right side of (b) is 2 (r^2 - 2 r sin r - 2 cos r + 2)/(r^2 (1 - cos r))
    # = 4 m4/c2; both sides are evaluated through the stable kernels (the
    # naive right-hand numerator alone loses ~12 digits at r = 1e-3): the
    # left side through w = c2/(2 r m3), the right through m4 = q1 + m3, so
    # the identity that ties q1 to c2 and m3 is genuinely exercised.
    def garofalo_rhs(x, q1, c2, m3, n):
        return 4.0 * (q1 + m3) / c2

    rws, mus, ws, rhs, phis, vs, etas = _weights(
        np.stack([r + h, r - h, r, -r]), [_rw, _mu, _w, garofalo_rhs, _phi, _v, _eta], n)

    # (a) derivative identity, central differences
    d = (rws[0] * mus[0] - rws[1] * mus[1]) / (2.0 * h)
    res_a = float(np.max(np.abs(d + n * r * mus[2])))

    # (b) Gaveau-Garofalo identity, relative residual
    w2 = ws[2] ** 2
    lhs = (1.0 + w2) / w2
    res_b = float(np.max(np.abs(lhs - rhs[2]) / rhs[2]))

    # (c) parity
    res_c = max(float(np.max(np.abs(mus[3] - mus[2]))),
                float(np.max(np.abs(etas[3] - etas[2]))),
                float(np.max(np.abs(phis[3] + phis[2]))),
                float(np.max(np.abs(vs[3] + vs[2]))),
                float(np.max(np.abs(ws[3] + ws[2]))))

    # (d) gamma lower bound and (e) eta monotonicity, on [0, 2*pi]
    gammas, etas = _weights(np.linspace(0.0, TWO_PI, grid_size), [_gamma, _eta])
    margin_d = float(np.min(gammas) - 1.0 / math.sqrt(math.pi))
    res_e = float(np.max(np.diff(etas)))

    rep = IdentityReport(n=n, grid_size=grid_size, fd_step=h,
                         residual_rwmu=res_a, residual_garofalo=res_b,
                         residual_parity=res_c, gamma_margin=margin_d,
                         eta_increase=res_e, passed=False)
    passed = all(res <= tol for res, tol in
                 zip(_identity_residuals(rep), _IDENTITY_TOLERANCES.values()))
    return replace(rep, passed=passed)
