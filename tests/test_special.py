"""Unit tests for the stable special-function kernels and derived weights.

The reference values come from a 40-digit mpmath evaluation of the raw
trigonometric expressions; the closed forms at r = pi and the endpoint
conventions at |r| = 2*pi are exact.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heisenberg_hardy import geometry, special
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
SAMPLE_R = [1e-8, 1e-4, 0.01, 0.2, 0.24999, 0.25001, 0.3, 0.49999, 0.50001, 1.0, 2.0,
            math.pi, 4.0, 5.5, TWO_PI - 1e-3, TWO_PI - 1e-8]


def test_kernels_match_extended_precision():
    # c2 holds a few ulps at these points (it comes from the half-angle
    # tangent).  q1 = (a - sin a)/a^3 and m3 = (c2 - sin(a)/a)/a^2 give up
    # one or two digits just above the series switch, where the ~2 ulps of
    # sin a taken from the tangent still cancel; near 2*pi the two terms of
    # m3 have one sign, so it keeps full relative accuracy up to its zero
    # there.
    for r in SAMPLE_R:
        q1, c2, m3 = (float(k[0]) for k in special._kernels(np.array([r])))
        assert abs(q1 - float(_mp_q1(r))) <= 1e-14 * float(_mp_q1(r))
        assert abs(c2 - float(_mp_c2(r))) <= 1e-14 * float(_mp_c2(r))
        m3_ref = float(_mp_m3(r))
        assert abs(m3 - m3_ref) <= 1e-13 * abs(m3_ref)


def _mp_k3(r):
    return (r - 2 * mpmath.sin(r) + r * mpmath.cos(r)) / r ** 3


def test_kernels_match_extended_precision_on_a_dense_grid():
    # The worst points sit just above the series switch, where a - sin a
    # and c2 - sin(a)/a still cancel the ~2 ulps of a sine taken from the
    # half-angle tangent (q1 5.6e-15 at r = 0.525, m3 2.0e-14 at 0.528),
    # and next to 2*pi, where c2 and m3 vanish and only relative accuracy
    # counts.  The window at 0.25 is where the closed forms of a switch at
    # 0.25 were worst (q1 1.05e-14, m3 8e-14).  k3 = (r - 2 sin r + r cos r)/r^3
    # is taken as 2 q1 - c2/2, an exact identity.
    switch = special.SERIES_SWITCH
    r = np.concatenate([np.linspace(0.0, TWO_PI, 4001)[1:], np.linspace(0.25, 0.27, 2001),
                        np.linspace(switch - 0.01, switch + 0.03, 2001),
                        TWO_PI - 10.0 ** -np.arange(1.0, 13.0)])
    q1, c2, m3 = special._kernels(r)
    ref = np.array([[float(f(x)) for f in (_mp_q1, _mp_c2, _mp_m3, _mp_k3)]
                    for x in map(mpmath.mpf, r)]).T
    assert np.max(np.abs(q1 - ref[0]) / ref[0]) <= 6e-15
    assert np.max(np.abs(c2 - ref[1]) / ref[1]) <= 1e-15
    assert np.max(np.abs(m3 - ref[2]) / np.abs(ref[2])) <= 2.5e-14
    assert np.max(np.abs(2.0 * q1 - 0.5 * c2 - ref[3])) <= 5e-15


_SWITCH_R = [np.nextafter(special.SERIES_SWITCH, 0.0), special.SERIES_SWITCH,
             np.nextafter(special.SERIES_SWITCH, 1.0)]
_EXTREME_R = [0.0, -0.0, 1e-300, -1e-300, 1e-160, -1e-160,
              np.nextafter(0.25, 0.0), 0.25, np.nextafter(0.25, 1.0),
              -np.nextafter(0.25, 0.0), -0.25, -np.nextafter(0.25, 1.0),
              *_SWITCH_R, *(-x for x in _SWITCH_R),
              math.pi, -math.pi, TWO_PI, -TWO_PI]


@pytest.mark.parametrize("mode", ["warn", "raise"])
def test_kernels_are_finite_and_silent_at_extreme_arguments(mode):
    # The 0/0 at r = 0, the division by an underflowed r^2 at tiny r and
    # the underflow of r^2 in the series stay inside _kernels (the series
    # overwrites the closed forms there), even when the caller raises.
    with np.errstate(all=mode), warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels = special._kernels(np.array(_EXTREME_R))
    for k in kernels:
        assert np.all(np.isfinite(k))


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
        eval_phi(math.nan)
    # the pole at r = +-0 is the signed one-sided limit, and invert_phi
    # inverts phi at both ends
    assert eval_phi(0.0) == math.inf and eval_phi(-0.0) == -math.inf
    assert invert_phi(eval_phi(0.0)) == 0.0
    assert eval_phi(invert_phi(0.0)) == 0.0


def test_every_weight_checks_the_domain_of_r():
    # one check in _kernels: a scalar or an array entry outside |r| <= 2*pi,
    # or NaN, raises; exactly +-2*pi is inside
    for fn in (eval_phi, mu, rw, rv, w, v, gamma, eta, eval_weights):
        for bad in (np.nextafter(TWO_PI, 7.0), -7.0, math.nan, math.inf, -math.inf):
            for arg in (bad, np.array([1.0, bad])):
                with pytest.raises(ValueError):
                    fn(arg)
        fn(np.array([TWO_PI, -TWO_PI]))
        fn(-TWO_PI)


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
    # ~27 ulps, just above the series switch of q1) ...
    assert abs(r - float(_mp_invert_phi(a))) <= 1e-14 * r
    # ... so phi(r) = a to 1e-13 wherever phi is well conditioned; near 2*pi
    # the floats are 8.9e-16 apart and phi(r) can miss a by the condition
    # number |d log phi / d log r| = 2 m3 / (q1 c2) times eps.
    q1, c2, m3 = special._kernels(np.array([r]))
    cond = float((2.0 * m3 / (q1 * c2))[0])
    assert abs(eval_phi(r) - a) <= 1e-13 * max(1.0, cond) * a


@settings(deadline=None)
@given(a=_LOG_UNIFORM_A, b=_LOG_UNIFORM_A)
def test_invert_phi_is_antitone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert invert_phi(hi) <= invert_phi(lo)


# The seams of invert_phi's table of Newton starts, 1e-9 e^k, and values
# within 1e-9 relative of them: the start comes from a different piece on
# each side.
_TABLE_SEAMS = [math.exp(special._PHI_TABLE_Y0 + k)
                for k in range(special._PHI_TABLE_PIECES + 1)]
_NEAR_SEAMS = sorted(seam * (1.0 + d) for seam in _TABLE_SEAMS
                     for d in (-1e-9, -1e-10, -1e-11, 0.0, 1e-11, 1e-10, 1e-9))


def test_invert_phi_is_accurate_and_antitone_across_the_table_seams():
    a = np.array(_NEAR_SEAMS)
    r = invert_phi(a)
    # Neighbours are 1e-11 relative apart or more, so their roots differ by
    # far more than the ~1e-14 rounding of a root, or (near 2*pi, where
    # floats are 8.9e-16 apart) round to the same float.
    assert np.all(np.diff(r) <= 0.0)
    for x, rx in zip(a, r):
        assert abs(rx - float(_mp_invert_phi(x))) <= 1e-14 * rx


@settings(deadline=None)
@given(a=st.lists(st.one_of(_LOG_UNIFORM_A,
                            st.sampled_from([0.0, math.inf, 1e-300, 1e300] + _NEAR_SEAMS)),
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


_EDGE_R = st.sampled_from([0.0, -0.0, 0.25, -0.25, special.SERIES_SWITCH,
                           -special.SERIES_SWITCH, TWO_PI, -TWO_PI])
_ANY_R = st.one_of(_EDGE_R, st.floats(-TWO_PI, TWO_PI))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@settings(deadline=None)
@given(n=st.sampled_from([1, 2, 3]),
       r=hnp.arrays(np.float64, st.integers(1, 40), elements=_ANY_R))
def test_eval_weights_bit_equal_to_named_functions(n, r):
    # at every r, the poles at r = +-0 included (+-inf there)
    with np.errstate(divide="ignore", over="ignore"):   # phi, v, w ~ 1/r overflow near 0
        sv = eval_weights(r, n)
        named = {"phi": eval_phi(r), "v": v(r), "w": w(r), "mu": mu(r, n),
                 "gamma": gamma(r), "eta": eta(r)}
    for name, ref in named.items():
        np.testing.assert_array_equal(_bits(getattr(sv, name)), _bits(ref))
    for pole in (sv.phi, sv.v, sv.w):
        np.testing.assert_array_equal(pole[r == 0.0], np.copysign(np.inf, r[r == 0.0]))


def test_eval_weights_computes_each_kernel_once(monkeypatch):
    calls = []
    kernels = special._kernels

    def counted(r):
        calls.append(r.size)
        return kernels(r)

    monkeypatch.setattr(special, "_kernels", counted)
    eval_weights(np.linspace(-TWO_PI, TWO_PI, 101), n=2)
    assert calls == [101]
    calls.clear()
    r = _block_input()
    eval_weights(r, n=2)
    assert sum(calls) == r.size
    assert max(calls) <= special._BLOCK


def _block_input():
    """3 blocks and 7 values of r, with 0, +-pi, +-2*pi and the neighbours
    of the series switch on each side of every block boundary."""
    block = special._BLOCK
    r = np.random.default_rng(5).uniform(-TWO_PI, TWO_PI, 3 * block + 7)
    edges = [0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, *_SWITCH_R, *(-x for x in _SWITCH_R)]
    for boundary in (block, 2 * block, 3 * block):
        r[boundary - 5:boundary + 6] = edges
    return r


def _block_functions(r):
    """The blocked functions of r: every field of eval_weights, mu, gamma, eta."""
    with np.errstate(divide="ignore"):
        sv = eval_weights(r, n=2)
    return [getattr(sv, name) for name in ("phi", "mu", "v", "w", "gamma", "eta")] \
        + [mu(r, 2), gamma(r), eta(r)]


def test_blocked_functions_are_bit_equal_to_one_element_calls():
    r = _block_input()
    batch = _block_functions(r)
    block = special._BLOCK
    near = [i for boundary in (0, block, 2 * block, 3 * block)
            for i in range(max(boundary - 8, 0), min(boundary + 9, r.size))]
    for i in sorted(set(near + list(range(0, r.size, 101)) + [r.size - 1])):
        single = _block_functions(float(r[i]))
        np.testing.assert_array_equal(_bits([b[i] for b in batch]), _bits(single))
    nd = _block_functions(r[1:].reshape(3, 2, -1))      # 3 (_BLOCK + 2) values
    for got, ref in zip(nd, batch):
        assert got.shape == (3, 2, (r.size - 1) // 6)
        np.testing.assert_array_equal(_bits(got.reshape(-1)), _bits(ref[1:]))


def test_invert_phi_makes_one_kernel_call(monkeypatch):
    # One Newton step from the tabulated start or the asymptotes, for a
    # scalar or a whole array; 0 and inf need no step of their own.
    calls = []
    kernels = special._kernels

    def counted(r):
        calls.append(r.size)
        return kernels(r)

    monkeypatch.setattr(special, "_kernels", counted)
    table = np.exp(np.random.default_rng(11).uniform(math.log(1e-9), math.log(1.6e6), 200))
    beyond = np.array([1e-300, 1e-20, 3e-10, 2e6, 1e20, 1e300])
    for x in [1.7, 1e-300, 1e300]:
        calls.clear()
        invert_phi(x)
        assert calls == [1], x
    for a in (table, beyond, np.concatenate(([0.0, math.inf], table, beyond, [0.0]))):
        calls.clear()
        invert_phi(a)
        assert calls == [np.count_nonzero((a > 0.0) & (a < math.inf))]
    for x, made in [(0.0, []), (math.inf, []), (1.7, [1])]:
        calls.clear()
        assert type(invert_phi(x)) is float
        assert calls == made, x
    assert all(type(k) is float for k in geometry._at(np.float64(1.7)))
    assert all(type(k) is float for k in geometry._at(0.0))


def _assert_scalar_kernels(r):
    # A numpy scalar stays one through _kernels: three np.float64, bit-equal
    # to the one-element array call, and silent even when the caller raises.
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels = special._kernels(np.float64(r))
    for k, ref in zip(kernels, special._kernels(np.array([r]))):
        assert type(k) is np.float64
        np.testing.assert_array_equal(_bits([k]), _bits(ref))


@pytest.mark.parametrize("r", _EXTREME_R)
def test_scalar_kernels_are_numpy_scalars_at_extreme_arguments(r):
    _assert_scalar_kernels(r)


@settings(deadline=None)
@given(r=st.floats(-TWO_PI, TWO_PI))
def test_scalar_kernels_are_numpy_scalars_bit_equal_to_arrays(r):
    _assert_scalar_kernels(r)


def test_kernels_on_a_transposed_array_match_its_copy():
    # The series overwrite indexes by position, whatever the memory order.
    nd = np.array([0.0, 0.1, -0.2, 0.7, -3.0, TWO_PI]).reshape(2, 3).T
    for got, ref in zip(special._kernels(nd), special._kernels(nd.copy())):
        np.testing.assert_array_equal(_bits(got), _bits(ref))


@settings(deadline=None)
@given(a=_LOG_UNIFORM_A)
def test_a_second_newton_step_moves_invert_phi_by_rounding_only(a):
    # The start is within 3.1e-9 (table) or 1.3e-10 (asymptotes) of the
    # root, and Newton squares that, so a second step only sees the rounding
    # of phi at r: a few ulps, and up to 48 ulps (1.0e-14 relative) on
    # [0.5, 2), where q1 and m3 cancel just above the series switch.
    r = invert_phi(a)
    again = float(special._phi_step(np.array([r]), np.array([a]))[0])
    if 0.5 <= r < 2.0:
        assert abs(again - r) <= 2e-14 * r
    else:
        assert abs(again - r) <= 8 * math.ulp(r)


def test_invert_phi_table_start_is_close_to_the_root_logit():
    a = np.exp(np.linspace(special._PHI_TABLE_Y0, math.log(special._PHI_TABLE_END), 200_001))
    start = special._newton_start(a[:-1])
    root = invert_phi(a[:-1])
    gap = np.log(start / (TWO_PI - start)) - np.log(root / (TWO_PI - root))
    assert np.max(np.abs(gap)) <= 3.1e-9


def test_eval_weights_does_not_alias_its_input():
    x = np.linspace(-TWO_PI, TWO_PI, 11)
    sv = eval_weights(x)
    x[:] = 1.0
    np.testing.assert_array_equal(sv.r, np.linspace(-TWO_PI, TWO_PI, 11))


def test_garofalo_identity_naive_form_agrees_where_conditioned():
    # The identity (1+w^2)/w^2 = 2(r^2 - 2r sin r - 2 cos r + 2)/(r^2(1-cos r))
    # is evaluated through the stable kernels inside check_identities; on
    # [0.5, 5.5] (away from the cancellations at r = 0 and r = 2*pi) the
    # naive right-hand side is well conditioned and the two evaluations
    # must coincide.
    rs = np.linspace(0.5, 5.5, 300)
    naive = 2.0 * (rs ** 2 - 2.0 * rs * np.sin(rs) - 2.0 * np.cos(rs) + 2.0) \
        / (rs ** 2 * (1.0 - np.cos(rs)))
    q1, c2, m3 = special._kernels(rs)
    kernel = 4.0 * (q1 + m3) / c2
    assert np.max(np.abs(naive - kernel) / naive) < 1e-12
    lhs = (1.0 + w(rs) ** 2) / w(rs) ** 2
    assert np.max(np.abs(lhs - naive) / naive) < 1e-11


def test_series_switch_is_seamless():
    # Values just inside and outside the series window agree with mpmath
    # (series side to ~1 ulp, closed side to the ulps its cancellation
    # costs), so there is no jump at the switch point.
    below, above = special.SERIES_SWITCH - 1e-7, special.SERIES_SWITCH + 1e-7
    for b, a, mp_fn in zip(special._kernels(np.array([below])),
                           special._kernels(np.array([above])), (_mp_q1, _mp_c2, _mp_m3)):
        ref_b = float(mp_fn(mpmath.mpf(below)))
        ref_a = float(mp_fn(mpmath.mpf(above)))
        assert abs(float(b[0]) - ref_b) < 2e-16 * ref_b
        assert abs(float(a[0]) - ref_a) < 1e-13 * ref_a


_SERIES_R = np.array([0.0, -0.0, 1e-300, -1e-8, 0.1, -0.2499999, 0.25, -0.4999999,
                      np.nextafter(special.SERIES_SWITCH, 0.0)])
_CLOSED_R = np.array([special.SERIES_SWITCH, -np.nextafter(special.SERIES_SWITCH, 1.0),
                      -0.5000001, 1.0, -3.0, 5.5, TWO_PI, -TWO_PI])


@pytest.mark.parametrize("r", [_SERIES_R, _CLOSED_R, np.concatenate((_CLOSED_R, _SERIES_R)),
                               np.random.default_rng(0).uniform(-TWO_PI, TWO_PI, 257)],
                         ids=["series", "closed", "mixed", "random-257"])
def test_kernels_batch_is_bit_equal_to_one_element_calls(r):
    batch = special._kernels(r)
    single = [special._kernels(r[i:i + 1]) for i in range(r.size)]
    for k, value in enumerate(batch):
        np.testing.assert_array_equal(_bits(value), _bits([s[k][0] for s in single]))


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2, 1, 3)])
@pytest.mark.parametrize("r", [np.array([0.0, 1e-300, -1e-8, 0.1, -0.2, 0.2499999]),
                               np.array([0.0, 0.1, -0.2499999, 0.25, -3.0, TWO_PI])],
                         ids=["series", "mixed"])
def test_kernels_and_eval_weights_on_nd_arrays_match_flattened(r, shape):
    # A (2, N) array of series values once broadcast the two series rows
    # against its own two rows and returned wrong values without an error.
    nd = r.reshape(shape)
    for got, ref in zip(special._kernels(nd), special._kernels(r)):
        assert got.shape == shape
        np.testing.assert_array_equal(_bits(got.reshape(-1)), _bits(ref))
    with np.errstate(divide="ignore"):
        got, ref = eval_weights(nd, n=2), eval_weights(r, n=2)
    for name in ("phi", "mu", "v", "w", "gamma", "eta"):
        value = getattr(got, name)
        assert value.shape == shape
        np.testing.assert_array_equal(_bits(value.reshape(-1)), _bits(getattr(ref, name)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_identities_takes_at_most_six_grids_of_kernel_values(monkeypatch, n):
    # Every weight it tests comes from two blockwise passes: one at r + h,
    # r - h, r and -r, one on [0, 2*pi].  Named function by named function
    # it took 19 grids of values.
    calls = []
    kernels = special._kernels

    def counted(r):
        calls.append(r.size)
        return kernels(r)

    monkeypatch.setattr(special, "_kernels", counted)
    grid = 4000
    assert check_identities(n=n, grid_size=grid).passed
    assert sum(calls) <= 6 * grid


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_identities_passes(n):
    rep = check_identities(n=n, grid_size=4000)
    assert rep.passed
    assert rep.residual_rwmu < 1e-6
    assert rep.residual_garofalo < 1e-10
    assert rep.residual_parity < 1e-12
    assert rep.gamma_margin > -1e-12
    assert rep.eta_increase < 1e-12
