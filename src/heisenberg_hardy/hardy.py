"""Hardy-type quotients, sharpness sweeps and bound reports on cones of H^n.

The cone over a spherical cap is, in polar coordinates, simply {r > rho}
(equivalently {|xi|^2 < alpha z} with alpha = phi(rho)), so every quotient of
a separable function u(Phi(t, varpi, r)) = g(t) h(r) reduces to products of
1-D integrals in t and r against the polar density t^(2n+1) mu(r).  The
frame derivatives of such a u are

    V_1 u = g' h + (r/t) g h',     Xi u = (r/t) w(r) g h',     V_j u = 0,

and the sphere factor cancels between numerator and denominator.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, special
from .special import TWO_PI
from .numerics import QuadratureError, SLProblem, integrate, sl_min_eig, sphere_area


# ----------------------------------------------------------------------
# Cones and separable test functions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConeSpec:
    """Cone over a spherical cap: {|xi|^2 < alpha z} = {r > rho}, alpha = phi(rho)."""
    n: int
    alpha: float
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "n", special._dimension(self.n))
        if not 0.0 <= self.rho <= TWO_PI:
            raise ValueError("ConeSpec: rho must lie in [0, 2*pi]")
        if not self.alpha >= 0.0:
            raise ValueError("ConeSpec: alpha must be in [0, inf]")
        if not (self.rho == special.invert_phi(self.alpha)
                or self.alpha == special.eval_phi(self.rho)):
            raise ValueError("ConeSpec: alpha and rho describe different cones")

    @classmethod
    def from_alpha(cls, n, alpha):
        return cls(n=n, alpha=float(alpha), rho=special.invert_phi(alpha))

    @classmethod
    def from_rho(cls, n, rho):
        rho = float(rho)
        return cls(n=n, alpha=special.eval_phi(rho), rho=rho)


@dataclass(frozen=True)
class Profile:
    """C^1 profile of one variable: value, derivative, and support interval."""
    fn: object
    dfn: object
    support: tuple


def constant_profile(value=1.0, support=(0.0, math.inf)):
    value = float(value)
    return Profile(fn=lambda x: np.full_like(np.asarray(x, dtype=float), value),
                   dfn=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                   support=tuple(support))


def smoothstep_profile(a, width):
    """Cubic C^1 smoothstep rising 0 -> 1 on (a, a + width)."""
    a = float(a)
    width = float(width)
    if not width > 0.0:
        raise ValueError("smoothstep_profile: width must be positive")

    def fn(x):
        s = np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)

    def dfn(x):
        s = np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0)
        return 6.0 * s * (1.0 - s) / width

    return Profile(fn=fn, dfn=dfn, support=(a, math.inf))


def bump_profile(a, b):
    """C^1 polynomial bump ((x-a)(b-x))^2, normalized to 1 at the midpoint."""
    a = float(a)
    b = float(b)
    if not b > a:
        raise ValueError("bump_profile: requires b > a")
    smax = (0.5 * (b - a)) ** 2

    def fn(x):
        x = np.asarray(x, dtype=float)
        s = (x - a) * (b - x) / smax
        return np.where((x > a) & (x < b), s * s, 0.0)

    def dfn(x):
        x = np.asarray(x, dtype=float)
        s = (x - a) * (b - x) / smax
        ds = (a + b - 2.0 * x) / smax
        return np.where((x > a) & (x < b), 2.0 * s * ds, 0.0)

    return Profile(fn=fn, dfn=dfn, support=(a, b))


def product_profile(p1, p2):
    """Pointwise product of two profiles (support intersects)."""
    lo = max(p1.support[0], p2.support[0])
    hi = min(p1.support[1], p2.support[1])
    return Profile(
        fn=lambda x: p1.fn(x) * p2.fn(x),
        dfn=lambda x: p1.dfn(x) * p2.fn(x) + p1.fn(x) * p2.dfn(x),
        support=(lo, hi),
    )


def power_profile(expo, support=(0.0, TWO_PI)):
    """Monomial profile x -> x^expo (the h of the model radial family)."""
    expo = float(expo)
    return Profile(
        fn=lambda x: np.asarray(x, dtype=float) ** expo,
        dfn=lambda x: expo * np.asarray(x, dtype=float) ** (expo - 1.0),
        support=tuple(support),
    )


@dataclass(frozen=True)
class SeparableFn:
    """Separable test function u(Phi(t, varpi, r)) = g(t) h(r)."""
    g: Profile
    h: Profile


# ----------------------------------------------------------------------
# Separable Hardy quotients
# ----------------------------------------------------------------------

_VARIANTS = ("full", "radial", "perp", "perp_weighted", "garofalo")

_RTOL = 1e-10               # relative quadrature tolerance of the quotients and checks
_KORANYI_RTOL = 1e-12       # and of the gauge bound


def separable_quotient(u, cone, variant="full"):
    """Rayleigh quotient of a separable function on a cone.

    Numerators (measure t^(2n+1) mu(r) dt dr, sphere factor cancelled):

        full           int (V_1 u)^2 + (Xi u)^2
        radial         int (V_1 u)^2
        perp           int (Xi u)^2
        perp_weighted  int (Xi u)^2 / psi     with psi = r
        garofalo       same numerator as full

    Denominators: int u^2 / delta^2, except perp_weighted (int u^2 psi /
    delta^2) and garofalo (int u^2 |grad N|^2 / N^2, i.e. the eta weight).

    Two ``integrate`` calls, each to relative tolerance _RTOL: the three
    t-integrals, and the four r-integrals of the full numerator plus the
    variant's own (so full, radial and perp share their r-integrals bit for
    bit).  ``u.h`` must be supported in {r > rho}.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"separable_quotient: unknown variant {variant!r}")
    n = cone.n
    g = u.g
    h = u.h
    if g.support[0] < 0.0 or not math.isfinite(g.support[1]):
        raise ValueError("separable_quotient: g must have bounded support in [0, inf) "
                         "(denominator exponent 2n-1 not integrable otherwise)")
    if h.support[0] < cone.rho - 1e-9:
        raise ValueError("separable_quotient: u is not admissible for the cone "
                         "(h support must lie in r > rho)")
    t0, t1 = g.support
    r0 = max(cone.rho, h.support[0])
    r1 = min(TWO_PI, h.support[1])
    if not r1 > r0:
        raise ValueError("separable_quotient: h support does not meet the cone")

    def t_parts(t):
        gv, gp = g.fn(t), g.dfn(t)
        return np.stack([gp * gp * t ** (2 * n + 1), gv * gp * t ** (2 * n),
                         gv * gv * t ** (2 * n - 1)])

    def r_parts(r):
        hv, hp = h.fn(r), h.dfn(r)
        kernels = special._kernels(r)
        muv = special._mu(r, *kernels, n)
        rwv = special._rw(r, *kernels)
        parts = [hv * hv * muv, r * hv * hp * muv, (r * hp) ** 2 * muv, (rwv * hp) ** 2 * muv]
        if variant == "perp_weighted":
            parts += [rwv ** 2 / r * hp ** 2 * muv, r * hv * hv * muv]
        elif variant == "garofalo":
            parts.append(hv * hv * special._eta(r, *kernels) * muv)
        return np.stack(parts)

    i_gp2, i_ggp, i_g2 = integrate(t_parts, t0, t1, _RTOL).value
    j_h2, j_rhhp, j_r2hp2, j_perp, *extra = integrate(r_parts, r0, r1, _RTOL).value

    radial_num = i_gp2 * j_h2 + 2.0 * i_ggp * j_rhhp + i_g2 * j_r2hp2
    perp_num = i_g2 * j_perp

    if variant == "perp_weighted":
        num, den = i_g2 * extra[0], i_g2 * extra[1]
    elif variant == "garofalo":
        num, den = radial_num + perp_num, i_g2 * extra[0]
    else:
        num = {"full": radial_num + perp_num,
               "radial": radial_num,
               "perp": perp_num}[variant]
        den = i_g2 * j_h2

    if not den > 0.0:
        raise ValueError("separable_quotient: denominator is not positive")
    return float(num / den)


def radial_sequence_quotient(k):
    """Radial quotient of the (r/t)^n log-cutoff family; equals 3/log(k)^2.

    u(Phi) = (r/t)^n h_k(t) with h_k(t) = clamp(log(t k)/log k, 0, 1) *
    clamp(log(k/t)/log k, 0, 1) reduces (exactly, all r-integrals cancel)
    to the planar Hardy quotient int h_k'^2 t dt / int h_k^2 t^-1 dt.  In
    s = log t (dt/t = ds) that is int ds / log^2 k over int (1 - |s|/log k)^2
    ds on (-log k, log k), which one ``integrate`` call takes on two panels.
    """
    k = float(k)
    if k < 2.0:
        raise ValueError("radial_sequence_quotient: k must be >= 2")
    lnk = math.log(k)

    def parts(s):
        return np.stack([np.full_like(s, 1.0 / (lnk * lnk)), (1.0 - np.abs(s) / lnk) ** 2])

    num, den = integrate(parts, -lnk, lnk).value
    return float(num / den)


def koranyi_upper_bound(n):
    """Upper bound for the Hardy constant from the Koranyi-gauge ansatz.

    Returns n^2 * int_0^2pi gamma^(-2n) eta mu dr / int_0^2pi gamma^(-2n)
    mu dr (the +-r integrands coincide, so only (0, 2*pi) is integrated),
    both integrals in one ``integrate`` call to relative tolerance
    _KORANYI_RTOL.  Strictly below n^2 because eta < 1 away from r = 0.
    """
    n = special._dimension(n)

    def parts(r):
        kernels = special._kernels(r)
        den = special._gamma(r, *kernels) ** (-2 * n) * special._mu(r, *kernels, n)
        return np.stack([den * special._eta(r, *kernels), den])

    top, bot = integrate(parts, 0.0, TWO_PI, _KORANYI_RTOL).value
    return float(n * n * top / bot)


def default_gamma_schedule(count=12):
    """The sweep schedule gamma_k = -1/2 + 2^-k, k = 1..count."""
    if not (count >= 1 and count % 1 == 0):
        raise ValueError(
            f"default_gamma_schedule: count must be a positive integer, got {count!r}")
    return [-0.5 + 2.0 ** (-k) for k in range(1, count + 1)]


def _power_tail(g, span, e, rtol):
    """int_0^span u^(e_k - 1) g(u) du for each e_k > 0, in one ``integrate`` call.

    ``g`` is bounded and takes the distance u to the singular end, of shape
    (len(e), m) with row k on the nodes of e_k, in rows that broadcast
    against it.  Under u = span v^p, p = ceil(3/e), the integral is span^e
    int_0^1 p v^(p e - 1) g(span v^p) dv, C^2 at v = 0 for every e (u = span
    v^(1/e) would leave an unbounded derivative there and double the
    rounds).  u stays a distance, so no rounding of an endpoint minus u
    loses it; u = 0 where v^p underflows, and g must be finite there.
    """
    e = np.asarray(e, dtype=float)[:, None]
    p = np.ceil(3.0 / e)

    def f(v):
        return g(span * v ** p) * p * v ** (p * e - 1.0)

    return span ** e[:, 0] * integrate(f, 0.0, 1.0, rtol).value


def _sweep_tail_integral(n, gammas, b1, rtol):
    """int_b1^2pi (r w mu)^(2 gamma) r mu dr for each gamma, stable down to
    gamma -> -1/2.

    With delta = 2*pi - r the integrand is delta^beta P(delta)^(2 gamma)
    Q(delta) with beta = 2n(2 gamma + 1) - 1 and the bounded factors

        P = r w mu / delta^(2n)      = (c2(delta)/r^2)^n / 2,
        Q = r mu / delta^(2n-1)      = (2 pi c2(delta) - r delta^2 m3(delta))
                                        / r^3 * (c2(delta)/r^2)^(n-1),

    bounded and smooth where the raw (r w mu)^(2 gamma) under- or
    overflows (Q from c2 delta + r sin(delta)/delta and sin(delta)/delta =
    c2 - delta^2 m3, so one ``_kernels`` call at delta gives both factors).
    ``_power_tail`` takes the power delta^beta of all gammas at once.
    """
    gam = np.asarray(gammas, dtype=float)[:, None]

    def g(delta):
        r = TWO_PI - delta
        _, c2d, m3d = special._kernels(delta)
        ratio = c2d / r ** 2
        pf = 0.5 * ratio ** n
        qf = (TWO_PI * c2d - r * delta ** 2 * m3d) / r ** 3 * ratio ** (n - 1)
        return pf ** (2.0 * gam) * qf

    return _power_tail(g, TWO_PI - b1, 2 * n * (2.0 * gam[:, 0] + 1.0), rtol)


_BAND_WIDTH = 0.1   # smoothstep band of sharpness_sweep, as a share of 2*pi - rho


def sharpness_sweep(cone, gammas=None):
    """Weighted perpendicular quotient R(gamma) of the sharpness family.

    For each gamma in (-1/2, 0] evaluates, with chi a C^1 smoothstep on
    (rho, rho + _BAND_WIDTH (2*pi - rho)) and the weight F = (r w mu)^(2 gamma),

        R(gamma) = int r F (chi' w - n gamma chi)^2 mu dr
                   / int chi^2 F r mu dr,

    splitting off the plateau part (chi = 1) where the integrand has the
    local power 2n(2 gamma + 1) - 1 at 2*pi, integrated with the matching
    substitution (``_sweep_tail_integral``).  Two ``integrate`` calls take
    the band integrals and the tails of all gammas, each to relative
    tolerance _RTOL.  R(gamma) >= n^2/4 with equality approached as
    gamma -> -1/2.

    Returns a list of (gamma, R) pairs in input order.
    """
    n = cone.n
    rho = cone.rho
    if not rho < TWO_PI:
        raise ValueError("sharpness_sweep: requires rho < 2*pi")
    if gammas is None:
        gammas = default_gamma_schedule()
    gammas = [float(gam) for gam in gammas]
    for gam in gammas:
        beta = 2 * n * (2.0 * gam + 1.0) - 1.0
        if gam <= -0.5:
            raise ValueError(
                f"sharpness_sweep: gamma = {gam} gives denominator exponent {beta} <= -1 "
                "(not integrable)")
        if gam > 0.0:
            raise ValueError("sharpness_sweep: gamma must lie in (-1/2, 0]")
    width = _BAND_WIDTH * (TWO_PI - rho)
    b1 = rho + width
    chi = smoothstep_profile(rho, width)
    gam = np.array(gammas)[:, None]

    def band(r):
        kernels = special._kernels(r)
        muv = special._mu(r, *kernels, n)
        rwv = special._rw(r, *kernels)
        cv, cp = chi.fn(r), chi.dfn(r)
        f = r * muv * (rwv * muv) ** (2.0 * gam)
        return np.concatenate([f * (cp * (rwv / r) - n * gam * cv) ** 2, cv * cv * f])

    n_band, d_band = integrate(band, rho, b1, _RTOL).value.reshape(2, -1)
    d_tail = _sweep_tail_integral(n, gammas, b1, _RTOL)
    values = (n_band + (n * gam[:, 0]) ** 2 * d_tail) / (d_band + d_tail)
    return [(g, float(v)) for g, v in zip(gammas, values)]


# ----------------------------------------------------------------------
# Bound reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Directional and integral bounds for the cone Hardy constants."""
    n: int
    alpha: float
    rho: float
    lower_dir: float
    upper_dir: float
    santalo: float
    koranyi_upper: float


def cone_bounds(cone):
    """Assemble the bound report n^2 rho^2/4 <= c_perp <= pi^2 n^2 etc.

    ``santalo`` is the lower bound (n/alpha) 16 pi^3/(16 + alpha^2) for the
    full constant; the formula itself gives 0 for the half-space alpha = +inf
    and, once alpha^2 overflows, the underflowed true value 0 for a finite
    alpha.  ``koranyi_upper`` is the gauge-ansatz upper bound.
    """
    if not cone.alpha > 0.0:
        raise ValueError("cone_bounds: requires alpha > 0 (or +inf)")
    n = cone.n
    santalo = (n / cone.alpha) * 16.0 * math.pi ** 3 / (16.0 + cone.alpha * cone.alpha)
    return BoundReport(n=n, alpha=cone.alpha, rho=cone.rho,
                       lower_dir=n * n * cone.rho ** 2 / 4.0,
                       upper_dir=math.pi ** 2 * n * n,
                       santalo=santalo,
                       koranyi_upper=koranyi_upper_bound(n))


# ----------------------------------------------------------------------
# Santalo geometry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SantaloReport:
    """Numerical verification of the geometric steps behind the Santalo bound."""
    n: int
    alpha: float
    samples: int
    argmax_r: float
    max_value: float
    argmax_residual: float
    max_residual: float
    stationarity_residual: float
    chord_margin_min: float
    z_margin_min: float
    ball_membership_failures: int
    passed: bool


def santalo_geometry_check(n=1, alpha=4.0, samples=64, seed=0):
    """Verify the two geometric facts behind the Santalo-type lower bound.

    (i) the height ratio z/t^2 = (r - sin r)/(2 r^2) attains its maximum
    1/(2*pi) at r = pi (located as the root of the stationarity function
    r(1 - cos r) - 2(r - sin r));

    (ii) at sampled points p = (xi_0, z_0) of the cone {|xi|^2 < alpha z},
    the slice of the translated cone at height z = 0 is the disc with
    center -xi_0 - (alpha/4) J xi_0 and radius sqrt(alpha z_0 +
    alpha^2 |xi_0|^2 / 16) (membership is tested through the group law just
    inside and outside), so its diameter is bounded by the cap value
    (sqrt(z_0)/2) sqrt(alpha (16 + alpha^2)), and z_0 <= delta(p)^2/(2*pi).
    """
    if samples < 1:
        raise ValueError("santalo_geometry_check: samples must be at least 1")
    from .numerics import find_root_monotone

    def stationarity(r):
        return float(r * (1.0 - math.cos(r)) - 2.0 * (r - math.sin(r)))

    argmax = find_root_monotone(stationarity, 2.0, 4.0)
    max_value = 0.5 * argmax * geometry._at(argmax)[0]     # z/t^2 = r q1(r)/2
    stat_res = abs(stationarity(argmax))

    rng = np.random.default_rng(seed)
    chord_margin = math.inf
    z_margin = math.inf
    failures = 0
    for _ in range(samples):
        z0 = rng.uniform(0.1, 5.0)
        frac = rng.uniform(0.0, 0.98)
        direction = rng.normal(size=2 * n)
        direction /= np.linalg.norm(direction)
        xi0 = math.sqrt(frac * alpha * z0) * direction
        p = geometry.Point(xi0, z0)

        norm2 = float(xi0 @ xi0)
        radius = math.sqrt(alpha * z0 + alpha ** 2 * norm2 / 16.0)
        cap = 0.5 * math.sqrt(z0) * math.sqrt(alpha * (16.0 + alpha ** 2))
        chord_margin = min(chord_margin, cap - 2.0 * radius)

        delta = geometry.cc_distance(p)
        z_margin = min(z_margin, delta * delta / TWO_PI - z0)

        # membership of the z = 0 slice just inside/outside the predicted disc
        center = -xi0 - 0.25 * alpha * geometry._J(xi0)
        e = rng.normal(size=2 * n)
        e /= np.linalg.norm(e)
        for fac, expect in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            qpt = geometry.Point(center + fac * radius * e, 0.0)
            moved = geometry.group_mul(p, qpt)
            inside = bool(float(moved.xi @ moved.xi) < alpha * moved.z)
            if inside != expect:
                failures += 1

    passed = (abs(argmax - math.pi) < 1e-8
              and abs(max_value - 1.0 / TWO_PI) < 1e-8
              and chord_margin > -1e-12 and z_margin > -1e-12
              and failures == 0)
    return SantaloReport(n=n, alpha=alpha, samples=samples,
                         argmax_r=argmax, max_value=max_value,
                         argmax_residual=abs(argmax - math.pi),
                         max_residual=abs(max_value - 1.0 / TWO_PI),
                         stationarity_residual=stat_res,
                         chord_margin_min=chord_margin, z_margin_min=z_margin,
                         ball_membership_failures=failures, passed=passed)


# ----------------------------------------------------------------------
# Sturm-Liouville reduction of the perpendicular constant
# ----------------------------------------------------------------------

def sl_perp_estimate(cone, grid_n=1024, weighted=True):
    """Minimal eigenvalue of the separable perpendicular quotient on (rho, 2*pi).

    weighted=True : p = r w^2 mu, q = r mu   (the psi-weighted quotient;
                    its infimum over the cone family is n^2/4);
    weighted=False: p = r^2 w^2 mu, q = mu   (upper bound for the
                    unweighted perpendicular constant via the
                    varpi-independent ansatz -- exact reduction since
                    V_j u = 0 for such u).

    Dirichlet at rho, natural condition at 2*pi.
    """
    if grid_n < 64:
        raise ValueError("sl_perp_estimate: grid_n must be at least 64")
    n = cone.n
    rho = cone.rho
    if not weighted and not rho > 0.0:
        raise ValueError("sl_perp_estimate: unweighted case needs rho > 0 "
                         "(Dirichlet node exists)")

    # r^2 w^2 mu and mu: one ``_kernels`` call per grid
    def p(r):
        kernels = special._kernels(r)
        rw2mu = special._rw(r, *kernels) ** 2 * special._mu(r, *kernels, n)
        return rw2mu / r if weighted else rw2mu

    def q(r):
        muv = special._mu(r, *special._kernels(r), n)
        return r * muv if weighted else muv

    return sl_min_eig(SLProblem(p=p, q=q, a=rho, b=TWO_PI, grid_n=int(grid_n)))


# ----------------------------------------------------------------------
# Annulus identity, Garofalo weight, Euclidean appendix
# ----------------------------------------------------------------------

def annulus_identity_check(f, r1, r2, cone_n=1):
    """Residual of the annulus integration identity for a separable f.

    Both sides of

        int (f o Phi)|_{t=R2} mu dvarpi dr - int (f o Phi)|_{t=R1} mu ...
            = int_{R1}^{R2} int int d/dt (f o Phi) mu dt dvarpi dr

    for f o Phi = g(t) h(r); the r-integral runs over the full angle range
    (-2*pi, 2*pi) intersected with the support of h, and the sphere factor
    is the area of S^(2n-1).  Both integrals run to relative tolerance
    _RTOL.  Returns the relative residual (absolute when both sides vanish).
    """
    if not 0.0 < r1 < r2:
        raise ValueError("annulus_identity_check: requires 0 < R1 < R2")
    g = f.g
    h = f.h
    lo = max(-TWO_PI, h.support[0])
    hi = min(TWO_PI, h.support[1])
    ih = integrate(lambda r: h.fn(r) * special.mu(r, cone_n), lo, hi, _RTOL).value
    area = sphere_area(cone_n)

    g1 = float(np.asarray(g.fn(np.array([r1])))[0])
    g2 = float(np.asarray(g.fn(np.array([r2])))[0])
    lhs = (g2 - g1) * ih * area
    rhs = integrate(lambda t: g.dfn(t), r1, r2, _RTOL).value * ih * area
    scale = max(abs(lhs), abs(rhs))
    if scale < 1e-13:
        return abs(lhs - rhs)
    return abs(lhs - rhs) / scale


def garofalo_weight(p):
    """The Hardy weight |grad N|^2 / N^2 at a point off the center.

    Through polar coordinates this is eta(r)/t^2; together with the
    vertical frame combination T it satisfies |T|^2 delta^2 * weight = 1.
    """
    c = geometry.to_polar(p)
    if float(np.linalg.norm(p.xi)) == 0.0:
        raise ValueError("garofalo_weight: undefined on the center")
    return special._eta(c.r, *c.kernels) / (c.t * c.t)


def euclid_quotient(d, a, gam):
    """Weighted Euclidean cone quotient of u = eta(t) cos^gamma(phi).

    On the cone {phi > a} in R^d with the polar field Xi = (1/t) d/dphi and
    weight psi = tan(phi),

        int |<grad u, Xi>|^2 / psi dx / int u^2 psi / t^2 dx = gamma^2,

    which this evaluates by honest quadrature of both angular integrals in
    one ``_power_tail`` call to relative tolerance _RTOL (the radial factor
    int eta(t)^2 t^(d-3) dt is common to both and cancels).  Both are of degree
    2 gamma + d - 3 in cos(phi) = sin(u), u = pi/2 - phi; a negative degree is
    taken out as that power of u, with sin(u)/u = c2 - u^2 m3 for cos(phi), and
    a degree >= 0 stays on sin(u), which keeps the range of cos(a)^(2 gamma).
    The gamma-powers are taken of that factor divided by cos(a), the largest
    cos(phi) on the cone, so that they stay normal floats near phi = a for
    every gamma; cos(a)^(-2 gamma) cancels in the quotient.  Integrals that
    are not finite and positive (the numerator is 0 at gamma = 0) raise
    QuadratureError.
    """
    if not (d >= 3 and d % 1 == 0):     # NaN and inf fail too
        raise ValueError("euclid_quotient: d must be an integer >= 3")
    d = int(d)
    if not 0.0 < a < 0.5 * math.pi:
        raise ValueError("euclid_quotient: a must lie in (0, pi/2)")
    gam = float(gam)
    if not gam > 0.5 * (2 - d):
        raise ValueError(f"euclid_quotient: gamma must exceed (2-d)/2 = {0.5 * (2 - d)}")

    expo = 2.0 * gam + d - 3.0
    cos_a = math.cos(a)

    def parts(u):
        c, s = np.sin(u), np.cos(u)
        if expo < 0.0:
            _, c2, m3 = special._kernels(u)
            c = c2 - u * u * m3     # sin(u)/u
        g = (c / cos_a) ** gam
        return np.concatenate([(gam * g * s / c) ** 2 * (c / s) * c ** (d - 2),
                               g * g * (s / c) * c ** (d - 2)])

    num, den = _power_tail(parts, 0.5 * math.pi - a, [min(expo, 0.0) + 1.0], _RTOL)
    if not (0.0 < den < math.inf and (0.0 < num < math.inf or gam == 0.0)):
        raise QuadratureError(
            f"euclid_quotient: integrals {num:g} and {den:g} are not finite and positive")
    return float(num / den)


def euclid_cone_lower_bound(d, a):
    """The (non-sharp) Euclidean cone Hardy lower bound ((d-2)/2)^2 tan^2 a."""
    if not (d >= 3 and d % 1 == 0):     # NaN and inf fail too
        raise ValueError("euclid_cone_lower_bound: d must be an integer >= 3")
    if not 0.0 < a < 0.5 * math.pi:
        raise ValueError("euclid_cone_lower_bound: a must lie in (0, pi/2)")
    return (0.5 * (d - 2)) ** 2 * math.tan(a) ** 2
