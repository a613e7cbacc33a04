"""Unit tests for the stable special-function kernels and derived weights.

The reference values come from a 40-digit mpmath evaluation of the raw
trigonometric expressions; the closed forms at r = pi and the endpoint
conventions at |r| = 2*pi are exact.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heisenberg_hardy import special
from heisenberg_hardy.special import (
    TWO_PI,
    check_identities,
    eta,
    eval_phi,
    eval_weights,
    gamma,
    invert_phi,
    mu,
    rv,
    rw,
    v,
    w,
)

mpmath.mp.dps = 80


def _mp_q1(r):
    return (r - mpmath.sin(r)) / r ** 3


def _mp_c2(r):
    return 2 * (1 - mpmath.cos(r)) / r ** 2


def _mp_m3(r):
    return (2 - 2 * mpmath.cos(r) - r * mpmath.sin(r)) / r ** 4


def _mp_phi(r):
    return float(_mp_c2(r) * 2 / (_mp_q1(r) * r))


# Points straddling the series switch, tiny arguments, and near 2*pi.
SAMPLE_R = [1e-8, 1e-4, 0.01, 0.2, 0.24999, 0.25001, 0.3, 1.0, 2.0,
            math.pi, 4.0, 5.5, TWO_PI - 1e-3, TWO_PI - 1e-8]


def test_kernels_match_extended_precision():
    # q1 and c2 hold ~1 ulp everywhere (c2 goes through the half-angle
    # sine).  m3 gives up about a digit just above the series switch, where
    # 4 sin(r/2)^2 and r sin r still nearly cancel; because 2 - 2cos r is
    # taken as 4 sin(r/2)^2, it keeps full relative accuracy up to its zero
    # at 2*pi.
    for r in SAMPLE_R:
        arr = np.array([r])
        assert abs(float(special._q1(arr)[0]) - float(_mp_q1(r))) <= 1e-14 * float(_mp_q1(r))
        assert abs(float(special._c2(arr)[0]) - float(_mp_c2(r))) <= 1e-14 * float(_mp_c2(r))
        m3_ref = float(_mp_m3(r))
        assert abs(float(special._m3(arr)[0]) - m3_ref) <= 1e-13 * abs(m3_ref)


def test_phi_matches_extended_precision():
    for r in SAMPLE_R:
        ref = _mp_phi(r)
        got = eval_phi(r)
        assert abs(got - ref) <= 1e-13 * abs(ref), (r, got, ref)


def test_phi_closed_form_at_pi():
    assert abs(eval_phi(math.pi) - 8.0 / math.pi) < 1e-14


def test_phi_is_odd_and_decreasing():
    rs = np.linspace(1e-3, TWO_PI - 1e-3, 500)
    vals = np.array([eval_phi(r) for r in rs])
    assert np.all(np.diff(vals) < 0.0)
    for r in rs[::25]:
        assert eval_phi(-r) == -eval_phi(r)


def test_phi_endpoint_conventions():
    assert eval_phi(TWO_PI) == 0.0
    assert eval_phi(-TWO_PI) == 0.0
    assert math.copysign(1.0, eval_phi(-TWO_PI)) == -1.0
    with pytest.raises(ValueError):
        eval_phi(TWO_PI + 1e-9)
    with pytest.raises(ValueError):
        eval_phi(0.0)
    with pytest.raises(ValueError):
        eval_phi(math.nan)


def test_invert_phi_endpoints_and_errors():
    assert invert_phi(0.0) == TWO_PI
    assert invert_phi(math.inf) == 0.0
    for bad in (-1.0, math.nan, [1.0, -1.0], [0.0, math.nan, 2.0], [[1.0], [-0.5]]):
        with pytest.raises(ValueError):
            invert_phi(bad)


def test_invert_phi_roundtrip():
    rng = np.random.default_rng(42)
    for a in np.concatenate([rng.uniform(0.01, 50.0, 40), [1e-6, 1e6, 1e12]]):
        r = invert_phi(float(a))
        assert 0.0 < r <= TWO_PI
        assert abs(eval_phi(r) - a) <= 1e-10 * max(1.0, a)


def _mp_invert_phi(a):
    """Root of phi(r) = a by Newton in extended precision.  Near 2*pi the
    unknown is s = 2*pi - r, with 1 - cos s = 2 sin(s/2)^2, so nothing
    cancels; near 0, r - sin r cancels and the precision grows with -log r."""
    log_a = mpmath.log(a)
    if a < 8.0:
        with mpmath.workdps(40):
            s = mpmath.sqrt(mpmath.pi * a)
            for _ in range(10):
                h, d = 2 * mpmath.sin(s / 2) ** 2, 2 * mpmath.pi - s + mpmath.sin(s)
                s -= (mpmath.log(4 * h / d) - log_a) / (mpmath.cot(s / 2) + h / d)
            return 2 * mpmath.pi - s
    with mpmath.workdps(40 + 2 * int(max(0.0, -math.log10(12.0 / a)))):
        r = mpmath.mpf(12) / a
        for _ in range(10):
            h, d = 1 - mpmath.cos(r), r - mpmath.sin(r)
            r -= (mpmath.log(4 * h / d) - log_a) / (mpmath.cot(r / 2) - h / d)
        return r


_LOG_UNIFORM_A = st.floats(math.log(1e-300), math.log(1e300)).map(math.exp)


@settings(deadline=None, max_examples=60)
@given(a=_LOG_UNIFORM_A)
def test_invert_phi_inverts_phi_over_the_float_range(a):
    r = invert_phi(a)
    # r is the float nearest the root up to the kernels' rounding (the worst,
    # ~40 ulps, just above the series switch of q1) ...
    assert abs(r - float(_mp_invert_phi(a))) <= 2e-14 * r
    # ... so phi(r) = a to 1e-13 wherever phi is well conditioned; near 2*pi
    # the floats are 8.9e-16 apart and phi(r) can miss a by the condition
    # number |d log phi / d log r| = 2 m3 / (q1 c2) times eps.
    x = np.array([r])
    cond = float((2.0 * special._m3(x) / (special._q1(x) * special._c2(x)))[0])
    assert abs(eval_phi(r) - a) <= 1e-13 * max(1.0, cond) * a


@settings(deadline=None)
@given(a=_LOG_UNIFORM_A, b=_LOG_UNIFORM_A)
def test_invert_phi_is_antitone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert invert_phi(hi) <= invert_phi(lo)


@settings(deadline=None)
@given(a=st.lists(st.one_of(_LOG_UNIFORM_A, st.sampled_from([0.0, math.inf, 1e-300, 1e300])),
                  max_size=30))
def test_invert_phi_array_is_bit_equal_to_scalar_calls(a):
    got = invert_phi(np.array(a, dtype=float))
    assert got.shape == (len(a),)
    np.testing.assert_array_equal(_bits(got), _bits([invert_phi(x) for x in a]))


@pytest.mark.parametrize("a", [1e16, 3e16, 1e20, 1e300])
def test_invert_phi_plane_asymptote(a):
    # phi(r) = (12/r)(1 - r^2/30 + ...), so r = 12/a to rounding here; a
    # root finder that stops on an absolute bracket width returns ~1e-16.
    assert abs(a * invert_phi(a) / 12.0 - 1.0) <= 1e-14


def test_mu_closed_forms_and_positivity():
    assert abs(mu(1e-9, 1) - 1.0 / 12.0) < 1e-12
    assert abs(mu(math.pi, 1) - 4.0 / math.pi ** 4) < 1e-15
    # mu(r, n) = m3 * c2^(n-1) at pi: (4/pi^4) * (4/pi^2)^(n-1)
    assert abs(mu(math.pi, 3) - (4.0 / math.pi ** 4) * (4.0 / math.pi ** 2) ** 2) < 1e-17
    rs = np.linspace(-TWO_PI + 1e-6, TWO_PI - 1e-6, 1001)
    assert np.all(mu(rs, 2) > 0.0)
    assert mu(TWO_PI, 1) < 1e-15


def test_w_v_closed_forms_at_pi():
    assert abs(w(math.pi) - math.pi / 2.0) < 1e-14
    assert abs(v(math.pi) - math.pi / 4.0) < 1e-14
    assert abs(rw(math.pi) - math.pi ** 2 / 2.0) < 1e-13
    assert abs(rv(math.pi) - math.pi ** 2 / 4.0) < 1e-13


def test_w_v_limits_at_zero():
    # r*w -> 6 and r*v -> 2 as r -> 0
    for r in (1e-8, 1e-4, 1e-2):
        assert abs(rw(r) - 6.0) < 1e-3 * 6.0
        assert abs(rv(r) - 2.0) < 1e-3 * 2.0
    assert abs(rw(1e-8) - 6.0) < 1e-9
    assert abs(rv(1e-8) - 2.0) < 1e-9


def test_gamma_eta_endpoints():
    assert abs(gamma(1e-12) - 1.0) < 1e-12
    assert abs(gamma(TWO_PI) - 1.0 / math.sqrt(math.pi)) < 1e-14
    assert abs(eta(1e-12) - 1.0) < 1e-12
    assert eta(TWO_PI) < 1e-30
    assert abs(eta(math.pi) - math.pi ** 2 / (4.0 + math.pi ** 2)) < 1e-14


def test_eta_equals_w_form():
    rs = np.linspace(1e-3, TWO_PI - 1e-3, 400)
    ww = w(rs)
    assert np.max(np.abs(eta(rs) - ww ** 2 / (1.0 + ww ** 2))) < 1e-12
    # next to 2*pi eta -> 0, so compare relatively
    edge = np.array([TWO_PI - 1e-6, TWO_PI - 1e-8])
    ww = w(edge)
    assert np.max(np.abs(eta(edge) / (ww ** 2 / (1.0 + ww ** 2)) - 1.0)) < 1e-12


def test_eval_weights_consistency_and_poles():
    rng = np.random.default_rng(3)
    for r in rng.uniform(-TWO_PI + 1e-3, TWO_PI - 1e-3, 50):
        if abs(r) < 1e-3:
            continue
        sv = eval_weights(float(r), n=2)
        assert sv.phi == eval_phi(float(r))
        assert sv.mu == mu(float(r), 2)
        assert sv.w == w(float(r))
        assert sv.eta == eta(float(r))
    at_zero = eval_weights(0.0)
    assert math.isinf(at_zero.v) and math.isinf(at_zero.w)
    assert at_zero.mu == 1.0 / 12.0


_EDGE_R = st.sampled_from([0.0, -0.0, 0.25, -0.25, TWO_PI, -TWO_PI])
_ANY_R = st.one_of(_EDGE_R, st.floats(-TWO_PI, TWO_PI))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(deadline=None)
@given(n=st.sampled_from([1, 2, 3]),
       r=hnp.arrays(np.float64, st.integers(1, 40), elements=_ANY_R))
def test_eval_weights_bit_equal_to_named_functions(n, r):
    nz = r != 0.0
    with np.errstate(divide="ignore", over="ignore"):   # phi, v, w ~ 1/r overflow near 0
        sv = eval_weights(r, n)
        named = {"phi": eval_phi(r[nz]), "v": v(r)[nz], "w": w(r)[nz]}
    for name, ref in named.items():
        np.testing.assert_array_equal(_bits(getattr(sv, name))[nz], _bits(ref))
    for got, ref in ((sv.mu, mu(r, n)), (sv.gamma, gamma(r)), (sv.eta, eta(r))):
        np.testing.assert_array_equal(_bits(got), _bits(ref))
    for pole in (sv.phi, sv.v, sv.w):
        assert np.all(pole[~nz] == np.inf)


def test_eval_weights_computes_each_kernel_once(monkeypatch):
    counts = {}

    def counted(name):
        kernel = getattr(special, name)

        def wrapper(r):
            counts[name] = counts.get(name, 0) + 1
            return kernel(r)
        return wrapper

    for name in ("_q1", "_c2", "_m3"):
        monkeypatch.setattr(special, name, counted(name))
    eval_weights(np.linspace(-TWO_PI, TWO_PI, 101), n=2)
    assert counts == {"_q1": 1, "_c2": 1, "_m3": 1}


def test_eval_weights_does_not_alias_its_input():
    x = np.linspace(-TWO_PI, TWO_PI, 11)
    sv = eval_weights(x)
    x[:] = 1.0
    np.testing.assert_array_equal(sv.r, np.linspace(-TWO_PI, TWO_PI, 11))
    np.testing.assert_array_equal(sv.psi_weight, sv.r)


def test_garofalo_identity_naive_form_agrees_where_conditioned():
    # The identity (1+w^2)/w^2 = 2(r^2 - 2r sin r - 2 cos r + 2)/(r^2(1-cos r))
    # is evaluated through the stable kernels inside check_identities; on
    # [0.5, 5.5] (away from the cancellations at r = 0 and r = 2*pi) the
    # naive right-hand side is well conditioned and the two evaluations
    # must coincide.
    rs = np.linspace(0.5, 5.5, 300)
    naive = 2.0 * (rs ** 2 - 2.0 * rs * np.sin(rs) - 2.0 * np.cos(rs) + 2.0) \
        / (rs ** 2 * (1.0 - np.cos(rs)))
    kernel = 4.0 * special._m4(rs) / special._c2(rs)
    assert np.max(np.abs(naive - kernel) / naive) < 1e-12
    lhs = (1.0 + w(rs) ** 2) / w(rs) ** 2
    assert np.max(np.abs(lhs - naive) / naive) < 1e-11


def test_series_switch_is_seamless():
    # Values just inside and outside the series window agree with mpmath
    # (series side to ~1 ulp, direct side to the few ulps the 1 - cos r
    # subtraction costs), so there is no jump at the switch point.
    for fn, mp_fn in ((special._q1, _mp_q1), (special._c2, _mp_c2),
                      (special._m3, _mp_m3)):
        below = float(fn(np.array([0.2499999]))[0])
        above = float(fn(np.array([0.2500001]))[0])
        ref_b = float(mp_fn(0.2499999))
        ref_a = float(mp_fn(0.2500001))
        assert abs(below - ref_b) < 2e-16 * ref_b
        assert abs(above - ref_a) < 1e-13 * ref_a


def _series_or_closed_unguarded(r, coef, closed):
    small = np.abs(r) < special.SERIES_SWITCH
    out = np.empty_like(r)
    out[small] = special._polyval_even(coef, r[small])
    out[~small] = closed(r[~small])
    return out


_SERIES_R = np.array([0.0, -0.0, 1e-300, -1e-8, 0.1, -0.2499999])
_CLOSED_R = np.array([0.25, -0.2500001, 1.0, -3.0, 5.5, TWO_PI, -TWO_PI])


@pytest.mark.parametrize("r", [_SERIES_R, _CLOSED_R, np.concatenate((_CLOSED_R, _SERIES_R)),
                               _SERIES_R[4:5], _CLOSED_R[2:3]],
                         ids=["series", "closed", "mixed", "series-1", "closed-1"])
def test_skipping_an_empty_branch_is_bit_identical(r, monkeypatch):
    kernels = (special._q1, special._m3, special._k3)
    got = [kernel(r) for kernel in kernels]
    monkeypatch.setattr(special, "_series_or_closed", _series_or_closed_unguarded)
    for kernel, value in zip(kernels, got):
        np.testing.assert_array_equal(_bits(value), _bits(kernel(r)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_identities_passes(n):
    rep = check_identities(n=n, grid_size=4000)
    assert rep.passed
    assert rep.residual_rwmu < 1e-6
    assert rep.residual_garofalo < 1e-10
    assert rep.residual_parity < 1e-12
    assert rep.gamma_margin > -1e-12
    assert rep.eta_increase < 1e-12
