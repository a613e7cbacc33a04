"""Unit tests for the Hardy-inequality quotients, bounds, and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heisenberg_hardy import geometry, hardy, special
from heisenberg_hardy.hardy import (
    ConeSpec,
    Profile,
    SeparableFn,
    annulus_identity_check,
    bump_profile,
    cone_bounds,
    constant_profile,
    default_gamma_schedule,
    euclid_cone_lower_bound,
    euclid_quotient,
    garofalo_weight,
    koranyi_upper_bound,
    power_profile,
    product_profile,
    radial_sequence_quotient,
    santalo_geometry_check,
    separable_quotient,
    sharpness_sweep,
    sl_perp_estimate,
    smoothstep_profile,
)
from heisenberg_hardy.numerics import integrate
from heisenberg_hardy.special import TWO_PI

# Frozen extended-precision reference values (40-digit evaluation of the
# defining integrals, rounded to double).
KORANYI_UPPER = {
    1: 0.79827503822051932494,
    2: 3.5475358258679758383,
    3: 8.2956033320000129184,
}
MU_INTEGRAL_N1 = 0.26288441987075396434  # int_0^{2 pi} mu(r, 1) dr


# ----------------------------------------------------------------------
# Cone specification and profiles
# ----------------------------------------------------------------------

def test_cone_spec_roundtrip():
    cone = ConeSpec.from_alpha(1, 4.0)
    assert abs(special.eval_phi(cone.rho) - 4.0) < 1e-10
    cone2 = ConeSpec.from_rho(1, cone.rho)
    assert abs(cone2.alpha - 4.0) < 1e-9
    half = ConeSpec.from_alpha(2, math.inf)
    assert half.rho == 0.0
    flat = ConeSpec.from_rho(1, 0.0)
    assert math.isinf(flat.alpha)
    with pytest.raises(ValueError):
        ConeSpec.from_alpha(1, -1.0)
    with pytest.raises(ValueError):
        ConeSpec.from_rho(1, TWO_PI + 0.1)


def test_profiles_match_their_derivatives():
    rng = np.random.default_rng(7)
    h = 1e-6
    profiles = [
        smoothstep_profile(1.0, 0.8),
        bump_profile(0.5, 2.5),
        power_profile(2.0, (0.0, math.inf)),
        product_profile(bump_profile(0.5, 2.5), smoothstep_profile(0.6, 1.0)),
    ]
    for prof in profiles:
        lo = prof.support[0] if math.isfinite(prof.support[0]) else 0.0
        hi = prof.support[1] if math.isfinite(prof.support[1]) else 5.0
        for x in rng.uniform(lo + 2 * h, hi - 2 * h, 40):
            fd = (float(prof.fn(x + h)) - float(prof.fn(x - h))) / (2 * h)
            assert abs(float(prof.dfn(x)) - fd) < 5e-6 * max(1.0, abs(fd))


def test_smoothstep_plateaus():
    prof = smoothstep_profile(2.0, 0.5)
    assert float(prof.fn(1.9)) == 0.0
    assert float(prof.fn(2.0)) == 0.0
    assert float(prof.fn(2.5)) == 1.0
    assert float(prof.fn(3.5)) == 1.0
    assert float(prof.dfn(2.25)) > 0.0
    assert float(prof.dfn(1.9)) == 0.0 and float(prof.dfn(2.6)) == 0.0


# ----------------------------------------------------------------------
# Separable quotients
# ----------------------------------------------------------------------

def _test_function(cone):
    g = bump_profile(1.0, 3.0)
    h = smoothstep_profile(cone.rho, 0.5 * (TWO_PI - cone.rho))
    return SeparableFn(g, h)


@pytest.mark.parametrize("n,rho", [(1, math.pi / 2), (2, 1.0)])
def test_quotient_invariants(n, rho):
    cone = ConeSpec.from_rho(n, rho)
    u = _test_function(cone)
    vals = {variant: separable_quotient(u, cone, variant=variant)
            for variant in ("full", "radial", "perp", "perp_weighted", "garofalo")}
    assert vals["full"] >= vals["radial"] - 1e-12
    assert vals["full"] >= vals["perp"] - 1e-12
    # the numerator splits exactly into the radial and perpendicular parts
    assert abs(vals["full"] - (vals["radial"] + vals["perp"])) < 1e-12 * vals["full"]
    assert vals["perp_weighted"] >= n * n / 4.0 - 1e-6
    assert rho ** 2 * vals["perp_weighted"] - 1e-9 <= vals["perp"]
    assert vals["perp"] <= 4.0 * math.pi ** 2 * vals["perp_weighted"] + 1e-9
    assert vals["garofalo"] >= n * n - 1e-6


def test_radial_variant_reduces_to_one_dimensional_integrals():
    cone = ConeSpec.from_rho(1, math.pi / 2)
    u = _test_function(cone)
    got = separable_quotient(u, cone, variant="radial")
    g, h = u.g, u.h_effective()
    n = cone.n

    def q(f, lo, hi):
        return integrate(f, lo, hi, rtol=1e-12).value

    i_gp2 = q(lambda t: g.dfn(t) ** 2 * t ** (2 * n + 1), *g.support)
    i_ggp = q(lambda t: g.fn(t) * g.dfn(t) * t ** (2 * n), *g.support)
    i_g2 = q(lambda t: g.fn(t) ** 2 * t ** (2 * n - 1), *g.support)
    lo, hi = max(h.support[0], cone.rho), min(h.support[1], TWO_PI)
    j_h2 = q(lambda r: h.fn(r) ** 2 * special.mu(r, n), lo, hi)
    j_rhhp = q(lambda r: r * h.fn(r) * h.dfn(r) * special.mu(r, n), lo, hi)
    j_rhp2 = q(lambda r: (r * h.dfn(r)) ** 2 * special.mu(r, n), lo, hi)
    num = i_gp2 * j_h2 + 2.0 * i_ggp * j_rhhp + i_g2 * j_rhp2
    # denominator weight 1/delta^2 = 1/t^2 turns t^(2n+1) into t^(2n-1)
    den = i_g2 * j_h2
    assert abs(got - num / den) < 1e-9 * abs(got)


def test_quotient_admissibility_and_variant_errors():
    cone = ConeSpec.from_rho(2, 1.0)
    g = bump_profile(1.0, 3.0)
    with pytest.raises(ValueError):
        separable_quotient(SeparableFn(g, bump_profile(0.5, 5.0)), cone)
    u = _test_function(cone)
    with pytest.raises(ValueError):
        separable_quotient(u, cone, variant="sideways")


def _quad_reference(u, cone, variant):
    """The quotient from scipy's QUADPACK, one scalar integral at a time."""
    n, g, h = cone.n, u.g, u.h_effective()

    def q(f, lo, hi):
        return quad(lambda x: float(f(np.array([x]))[0]), lo, hi,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    t0, t1 = g.support
    r0, r1 = max(cone.rho, h.support[0]), min(TWO_PI, h.support[1])
    i_gp2 = q(lambda t: g.dfn(t) ** 2 * t ** (2 * n + 1), t0, t1)
    i_ggp = q(lambda t: g.fn(t) * g.dfn(t) * t ** (2 * n), t0, t1)
    i_g2 = q(lambda t: g.fn(t) ** 2 * t ** (2 * n - 1), t0, t1)
    j = {name: q(lambda r, f=f: f(r) * special.mu(r, n), r0, r1) for name, f in (
        ("h2", lambda r: h.fn(r) ** 2),
        ("rhhp", lambda r: r * h.fn(r) * h.dfn(r)),
        ("r2hp2", lambda r: (r * h.dfn(r)) ** 2),
        ("perp", lambda r: (special.rw(r) * h.dfn(r)) ** 2),
        ("pw_num", lambda r: special.rw(r) ** 2 / r * h.dfn(r) ** 2),
        ("pw_den", lambda r: r * h.fn(r) ** 2),
        ("eta", lambda r: h.fn(r) ** 2 * special.eta(r)))}
    radial = i_gp2 * j["h2"] + 2.0 * i_ggp * j["rhhp"] + i_g2 * j["r2hp2"]
    perp = i_g2 * j["perp"]
    return {"full": (radial + perp) / (i_g2 * j["h2"]),
            "radial": radial / (i_g2 * j["h2"]),
            "perp": perp / (i_g2 * j["h2"]),
            "perp_weighted": j["pw_num"] / j["pw_den"],
            "garofalo": (radial + perp) / (i_g2 * j["eta"])}[variant]


@pytest.mark.parametrize("variant", ["full", "radial", "perp", "perp_weighted", "garofalo"])
def test_quotient_matches_quadpack_on_a_narrow_cone(variant):
    # n = 3, alpha = 0.01: the r-integrals are of size 1e-12, which an
    # absolute tolerance resolves only to ~1e-3 relative
    cone = ConeSpec.from_alpha(3, 0.01)
    u = SeparableFn(bump_profile(0.5, 3.0),
                    smoothstep_profile(cone.rho, 0.5 * (TWO_PI - cone.rho)))
    ref = _quad_reference(u, cone, variant)
    assert abs(separable_quotient(u, cone, variant=variant) - ref) < 1e-9 * ref


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), log_s=st.floats(-3.0, 3.0), log_alpha=st.floats(-2.0, 2.0))
def test_quotient_dilation_invariance(n, log_s, log_alpha):
    cone = ConeSpec.from_alpha(n, 10.0 ** log_alpha)
    h = smoothstep_profile(cone.rho, 0.5 * (TWO_PI - cone.rho))
    s = 10.0 ** log_s
    for variant in ("full", "radial", "perp", "perp_weighted", "garofalo"):
        ref = separable_quotient(SeparableFn(bump_profile(0.5, 3.0), h), cone, variant=variant)
        got = separable_quotient(SeparableFn(bump_profile(0.5 * s, 3.0 * s), h), cone,
                                 variant=variant)
        assert abs(got - ref) <= 1e-9 * ref


def test_integrate_calls_per_result(monkeypatch):
    calls = []

    def counted(f, a, b, *args, **kwargs):
        calls.append(1)
        return integrate(f, a, b, *args, **kwargs)

    monkeypatch.setattr(hardy, "integrate", counted)
    cone = ConeSpec.from_alpha(2, 1.0)
    u = _test_function(cone)
    for variant in ("full", "radial", "perp", "perp_weighted", "garofalo"):
        calls.clear()
        separable_quotient(u, cone, variant=variant)
        assert len(calls) <= 2
    for fn, limit in ((lambda: sharpness_sweep(cone), 2), (lambda: koranyi_upper_bound(2), 1),
                      (lambda: radial_sequence_quotient(100.0), 1)):
        calls.clear()
        fn()
        assert len(calls) <= limit


def test_quotient_scale_invariance():
    # The quotient is invariant under u -> c u.
    cone = ConeSpec.from_rho(1, 1.0)
    g = bump_profile(1.0, 3.0)
    h = smoothstep_profile(cone.rho, 1.5)
    u1 = SeparableFn(g, h)
    u2 = SeparableFn(Profile(fn=lambda t: 3.0 * g.fn(t),
                             dfn=lambda t: 3.0 * g.dfn(t),
                             support=g.support), h)
    a = separable_quotient(u1, cone)
    b = separable_quotient(u2, cone)
    assert abs(a - b) < 1e-10 * abs(a)


# ----------------------------------------------------------------------
# Derived constants
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_koranyi_upper_bound_matches_oracle(n):
    val = koranyi_upper_bound(n)
    assert abs(val - KORANYI_UPPER[n]) < 1e-12 * KORANYI_UPPER[n]
    assert val < n * n * (1.0 - 0.01)


def test_mu_integral_oracle():
    got = integrate(lambda r: special.mu(r, 1), 0.0, TWO_PI, rtol=1e-13).value
    assert abs(got - MU_INTEGRAL_N1) < 1e-13


def test_radial_sequence_closed_form():
    for k in (4, 16, 256, 4096):
        got = radial_sequence_quotient(k)
        assert abs(got - 3.0 / math.log(k) ** 2) < 1e-12 * got
    vals = [radial_sequence_quotient(k) for k in (4, 16, 256, 4096)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1
    with pytest.raises(ValueError):
        radial_sequence_quotient(1)


# ----------------------------------------------------------------------
# Sharpness sweep
# ----------------------------------------------------------------------

def test_gamma_schedule():
    sched = default_gamma_schedule()
    assert len(sched) == 12
    assert sched[0] == 0.0
    assert abs(sched[-1] - (-0.5 + 2.0 ** -12)) < 1e-18
    assert all(a > b for a, b in zip(sched, sched[1:]))


def test_sharpness_sweep_monotone_to_quarter():
    cone = ConeSpec.from_rho(1, math.pi / 2)
    sweep = sharpness_sweep(cone)
    values = [v for _, v in sweep]
    assert all(v >= 0.25 * (1.0 - 1e-6) for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))
    # first-order approach: R - 1/4 halves when gamma + 1/2 halves
    gaps = [v - 0.25 for _, v in sweep[-3:]]
    assert 1.9 < gaps[0] / gaps[1] < 2.1
    assert 1.9 < gaps[1] / gaps[2] < 2.1


def test_sharpness_probe_near_endpoint():
    cone = ConeSpec.from_rho(1, math.pi / 2)
    [(gam, val)] = sharpness_sweep(cone, gammas=[-0.5 + 1e-3])
    assert abs(val - 0.25) < 0.05


def test_sharpness_probe_deep_endpoint():
    # gamma within 1e-8 of -1/2: the tail integral is ~1e7, so this exercises
    # the magnitude-scaled tolerance (an absolute 1e-10 would be unreachable).
    for n in (1, 2):
        cone = ConeSpec.from_rho(n, math.pi / 2)
        [(_, val)] = sharpness_sweep(cone, gammas=[-0.5 + 1e-8])
        floor = n * n / 4.0
        assert val >= floor * (1.0 - 1e-9)
        assert val - floor < 1e-4


def test_sweep_tail_factorization_matches_raw():
    # The tail integrand is evaluated through the bounded factors
    #   P = r w mu / (2pi - r)^(2n),  Q = r mu / (2pi - r)^(2n - 1);
    # where the raw products are representable they must agree with the
    # factored forms.  The agreement window is set by the raw side: its
    # trigonometric differences at r near 2*pi cancel to O(delta), leaving
    # a relative error ~eps/delta (exactly what the factorization avoids).
    eps = np.finfo(float).eps
    for n in (1, 2):
        for delta in (1e-6, 1e-3, 0.1, 1.0, 2.0):
            r = special.TWO_PI - delta
            raw_p = r * special.w(r) * special.mu(r, n) / delta ** (2 * n)
            raw_q = r * special.mu(r, n) / delta ** (2 * n - 1)
            c2d = special._c2(np.array([delta]))[0]
            ratio = c2d / r ** 2
            p = 0.5 * ratio ** n
            q = (c2d * delta + r * np.sinc(delta / math.pi)) / r ** 3 * ratio ** (n - 1)
            tol = 1e-13 + 50.0 * eps / delta
            assert abs(p - raw_p) < tol * raw_p
            assert abs(q - raw_q) < tol * raw_q

    # and the assembled tail integral agrees with direct adaptive quadrature
    # of the raw integrand at a gamma where the raw form is well-behaved
    gam = -0.1
    for n in (1, 2):
        b1 = math.pi
        direct = integrate(
            lambda r: (special.rw(r) * special.mu(r, n)) ** (2.0 * gam)
            * r * special.mu(r, n), b1, special.TWO_PI - 1e-12, rtol=1e-12).value
        factored = hardy._sweep_tail_integral(n, [gam], b1, rtol=1e-12)[0]
        assert abs(factored - direct) < 1e-9 * direct


def test_sharpness_sweep_matches_tight_rtol():
    cone = ConeSpec.from_alpha(3, 0.3)
    loose = sharpness_sweep(cone)
    tight = sharpness_sweep(cone, rtol=1e-13)
    for (_, a), (_, b) in zip(loose, tight):
        assert abs(a - b) < 1e-8 * b


def test_sharpness_sweep_n2():
    cone = ConeSpec.from_rho(2, math.pi / 2)
    sweep = sharpness_sweep(cone, gammas=[-0.5 + 2.0 ** -12])
    assert sweep[0][1] >= 1.0 * (1.0 - 1e-6)
    assert sweep[0][1] < 1.01


def test_sharpness_sweep_validation():
    cone = ConeSpec.from_rho(1, math.pi / 2)
    with pytest.raises(ValueError):
        sharpness_sweep(cone, gammas=[0.1])
    with pytest.raises(ValueError):
        sharpness_sweep(cone, gammas=[-0.5])


# ----------------------------------------------------------------------
# Sturm-Liouville estimates
# ----------------------------------------------------------------------

def test_sl_weighted_ladder():
    cone = ConeSpec.from_rho(1, math.pi / 2)
    lams = [sl_perp_estimate(cone, grid_n=m, weighted=True).lambda_min
            for m in (256, 512, 1024)]
    assert all(lam >= 0.25 - 1e-6 for lam in lams)
    assert lams[0] >= lams[1] >= lams[2]


def test_sl_unweighted_bounds():
    for n, rho in ((1, math.pi / 2), (1, math.pi), (2, math.pi)):
        cone = ConeSpec.from_rho(n, rho)
        lam = sl_perp_estimate(cone, grid_n=1024, weighted=False).lambda_min
        assert n * n * rho ** 2 / 4.0 - 1e-6 <= lam <= math.pi ** 2 * n * n + 1e-6


def test_sl_perp_estimate_evaluates_each_kernel_once(monkeypatch):
    calls = []
    kernels = special._kernels

    def counted(r):
        calls.append(r.size)
        return kernels(r)

    cone = ConeSpec.from_rho(2, 1.0)
    monkeypatch.setattr(special, "_kernels", counted)
    for weighted in (True, False):
        calls.clear()
        sl_perp_estimate(cone, grid_n=64, weighted=weighted)
        # once on the flux points (p) and once on the nodes (q)
        assert len(calls) == 2


def test_sl_validation():
    cone = ConeSpec.from_rho(1, 0.0)
    with pytest.raises(ValueError):
        sl_perp_estimate(cone, weighted=False)
    with pytest.raises(ValueError):
        sl_perp_estimate(ConeSpec.from_rho(1, 1.0), grid_n=16)


# ----------------------------------------------------------------------
# Annulus identity, Santalo, Garofalo, Euclid
# ----------------------------------------------------------------------

def _annulus_cases():
    one_t = constant_profile(1.0, (0.0, math.inf))
    t2 = power_profile(2.0, (0.0, math.inf))
    h_const = constant_profile(1.0, (-TWO_PI, TWO_PI))
    h_smooth = Profile(fn=lambda r: 2.0 + np.cos(r), dfn=lambda r: -np.sin(r),
                       support=(-math.inf, math.inf))
    return [
        (SeparableFn(one_t, h_const), 1e-12),
        (SeparableFn(t2, h_const), 1e-8),
        (SeparableFn(t2, h_smooth), 1e-6),
    ]


@pytest.mark.parametrize("n", [1, 2])
def test_annulus_identity(n):
    for f, tol in _annulus_cases():
        resid = annulus_identity_check(f, 1.0, 2.0, cone_n=n)
        assert resid < tol


def test_annulus_explicit_value():
    # For f = t^2 both sides equal (R2^2 - R1^2) int mu dr area(S^(2n-1)).
    t2 = power_profile(2.0, (0.0, math.inf))
    f = SeparableFn(t2, constant_profile(1.0, (-TWO_PI, TWO_PI)))
    resid = annulus_identity_check(f, 1.0, 2.0, cone_n=1)
    assert resid < 1e-12


def test_annulus_validation():
    f = _annulus_cases()[0][0]
    with pytest.raises(ValueError):
        annulus_identity_check(f, 2.0, 1.0)
    with pytest.raises(ValueError):
        annulus_identity_check(f, 0.0, 1.0)


def test_santalo_geometry():
    rep = santalo_geometry_check(n=1, alpha=4.0, samples=64, seed=0)
    assert rep.passed
    assert abs(rep.argmax_r - math.pi) < 1e-8
    assert abs(rep.max_value - 1.0 / (2.0 * math.pi)) < 1e-12
    assert rep.ball_membership_failures == 0
    assert rep.stationarity_residual < 1e-10


def test_cone_bounds_values():
    rep = cone_bounds(ConeSpec.from_alpha(1, 4.0))
    assert abs(rep.santalo - math.pi ** 3 / 8.0) < 1e-12
    assert abs(rep.lower_dir - rep.rho ** 2 / 4.0) < 1e-15
    assert abs(rep.upper_dir - math.pi ** 2) < 1e-15
    assert abs(rep.koranyi_upper - KORANYI_UPPER[1]) < 1e-10
    narrow = cone_bounds(ConeSpec.from_alpha(1, 0.01))
    assert narrow.santalo > 1e3
    half = cone_bounds(ConeSpec.from_alpha(1, math.inf))
    assert half.santalo == 0.0
    with pytest.raises(ValueError):
        cone_bounds(ConeSpec(1, -2.0, 1.0))


def test_garofalo_weight_identity():
    rng = np.random.default_rng(9)
    for _ in range(100):
        t = float(rng.uniform(0.2, 3.0))
        r = float(rng.uniform(-TWO_PI + 1e-2, TWO_PI - 1e-2))
        if abs(r) < 1e-2:
            continue
        varpi = rng.normal(size=2)
        varpi /= np.linalg.norm(varpi)
        p = geometry.from_polar(geometry.Polar(t=t, varpi=varpi, r=r))
        wgt = garofalo_weight(p)
        ww = special.w(r)
        t_norm_sq = (1.0 + ww * ww) / (ww * ww)
        delta = geometry.cc_distance(p)
        assert abs(t_norm_sq * delta ** 2 * wgt - 1.0) < 1e-9
    with pytest.raises(ValueError):
        garofalo_weight(geometry.Point(np.zeros(2), 1.0))


def test_euclid_quotient_smooth_and_singular():
    for d, a, gam in ((3, math.pi / 4, 1.0), (4, math.pi / 3, 0.5), (5, math.pi / 6, 2.0)):
        assert abs(euclid_quotient(d, a, gam) - gam * gam) < 1e-8
    # gamma = 0 is the constant-in-angle profile
    assert abs(euclid_quotient(4, math.pi / 3, 0.0)) < 1e-12
    # negative exponent at the axis: 2 gamma + d - 3 = -0.4 in d = 3
    assert abs(euclid_quotient(3, math.pi / 3, -0.2) - 0.04) < 1e-6
    with pytest.raises(ValueError):
        euclid_quotient(2, 0.5, 1.0)
    with pytest.raises(ValueError):
        euclid_quotient(3, 2.0, 1.0)
    with pytest.raises(ValueError):
        euclid_quotient(3, 0.5, -0.5)


def test_euclid_cone_lower_bound():
    val = euclid_cone_lower_bound(3, math.pi / 4)
    assert abs(val - 0.25) <= 2.0 ** -54  # one ulp: tan(pi/4) rounds below 1
    vals = [euclid_cone_lower_bound(3, a) for a in (0.3, 0.8, 1.2, 1.5, 1.57)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert euclid_cone_lower_bound(3, 1.5707) > 1e6
    assert abs(euclid_cone_lower_bound(4, math.pi / 4) - math.tan(math.pi / 4) ** 2) < 1e-15
    with pytest.raises(ValueError):
        euclid_cone_lower_bound(2, 0.5)
    with pytest.raises(ValueError):
        euclid_cone_lower_bound(3, 0.0)
