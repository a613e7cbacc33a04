"""Unit tests for the group operations, polar coordinates, frame, and geodesics."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heisenberg_hardy import geometry, special
from heisenberg_hardy.geometry import (
    Point,
    Polar,
    TangentVec,
    cc_distance,
    dilate,
    frame,
    from_polar,
    geodesic,
    geodesic_curve_length,
    grad_delta,
    group_inverse,
    group_mul,
    is_horizontal,
    jacobian,
    koranyi,
    to_polar,
)

TWO_PI = special.TWO_PI


def _random_point(rng, n=1, scale=2.0):
    return Point(xi=rng.normal(size=2 * n) * scale, z=float(rng.normal()) * scale)


def _random_polar(rng, n=1, t_range=(0.1, 5.0), r_band=1e-3):
    t = float(rng.uniform(*t_range))
    r = float(rng.uniform(-TWO_PI + r_band, TWO_PI - r_band))
    varpi = rng.normal(size=2 * n)
    varpi /= np.linalg.norm(varpi)
    return Polar(t=t, varpi=varpi, r=r)


# ----------------------------------------------------------------------
# Group structure
# ----------------------------------------------------------------------

def test_group_identity_and_inverse():
    rng = np.random.default_rng(0)
    e = Point(np.zeros(4), 0.0)
    for _ in range(20):
        p = _random_point(rng, n=2)
        q = group_mul(p, e)
        assert np.allclose(q.xi, p.xi, atol=0) and q.z == p.z
        pinv = group_inverse(p)
        w = group_mul(p, pinv)
        assert np.max(np.abs(w.xi)) < 1e-15 and abs(w.z) < 1e-14


def test_group_associativity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        p, q, s = (_random_point(rng, n=2) for _ in range(3))
        a = group_mul(group_mul(p, q), s)
        b = group_mul(p, group_mul(q, s))
        assert np.max(np.abs(a.xi - b.xi)) < 1e-13
        assert abs(a.z - b.z) < 1e-13


def test_dilation_is_automorphism():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p, q = _random_point(rng), _random_point(rng)
        lam = float(rng.uniform(0.1, 3.0))
        a = dilate(lam, group_mul(p, q))
        b = group_mul(dilate(lam, p), dilate(lam, q))
        assert np.max(np.abs(a.xi - b.xi)) < 1e-13
        assert abs(a.z - b.z) < 1e-13


def test_koranyi_homogeneity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = _random_point(rng, n=2)
        lam = float(rng.uniform(0.1, 4.0))
        assert abs(koranyi(dilate(lam, p)) - lam * koranyi(p)) < 1e-12 * koranyi(p)
        assert abs(cc_distance(dilate(lam, p)) - lam * cc_distance(p)) < 1e-11 * cc_distance(p)


def test_koranyi_polar_identity():
    # N(Phi(t, varpi, r)) = t * gamma(r)
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = _random_polar(rng, n=2)
        p = from_polar(c)
        assert abs(koranyi(p) - c.t * special.gamma(c.r)) < 1e-12 * c.t * special.gamma(c.r)


# ----------------------------------------------------------------------
# Polar coordinate round trips and conventions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_trip_polar_to_polar(n):
    rng = np.random.default_rng(10 + n)
    worst = 0.0
    for _ in range(300):
        c = _random_polar(rng, n=n)
        back = to_polar(from_polar(c))
        worst = max(worst,
                    abs(back.t - c.t) / c.t,
                    abs(back.r - c.r),
                    float(np.max(np.abs(back.varpi - c.varpi))))
    assert worst < 1e-9


def test_round_trip_near_zero_angle():
    rng = np.random.default_rng(20)
    for r in (1e-15, 1e-12, 1e-9, -1e-9, 1e-6, -1e-4):
        varpi = rng.normal(size=2)
        varpi /= np.linalg.norm(varpi)
        c = Polar(t=1.7, varpi=varpi, r=r)
        back = to_polar(from_polar(c))
        assert abs(back.t - c.t) < 1e-12
        assert abs(back.r - c.r) < 1e-12
        assert np.max(np.abs(back.varpi - varpi)) < 1e-12


def test_zero_angle_is_euclidean_ray():
    varpi = np.array([0.6, 0.8])
    p = from_polar(Polar(t=2.5, varpi=varpi, r=0.0))
    assert np.allclose(p.xi, 2.5 * varpi, atol=1e-15)
    assert p.z == 0.0
    c = to_polar(Point(np.array([3.0, 4.0]), 0.0))
    assert c.r == 0.0 and abs(c.t - 5.0) < 1e-15


def test_center_convention():
    # |r| = 2*pi maps onto the center at height sign(r) t^2/(4 pi), and
    # points of the center invert to t = sqrt(4 pi |z|), r = sign(z) 2 pi.
    varpi = np.array([1.0, 0.0])
    p = from_polar(Polar(t=2.0, varpi=varpi, r=TWO_PI))
    assert np.all(p.xi == 0.0)
    assert abs(p.z - 4.0 / (4.0 * math.pi)) < 1e-15  # t^2/(4 pi) with t = 2
    for z in (0.5, -0.25, 3.0):
        c = to_polar(Point(np.zeros(2), z))
        assert c.r == math.copysign(TWO_PI, z)
        assert abs(c.t - math.sqrt(4.0 * math.pi * abs(z))) < 1e-14
        roundtrip = from_polar(c)
        assert abs(roundtrip.z - z) < 1e-14 * abs(z)
        assert np.all(roundtrip.xi == 0.0)


def test_point_round_trip():
    rng = np.random.default_rng(30)
    for _ in range(200):
        p = _random_point(rng, n=1)
        if np.linalg.norm(p.xi) < 1e-3:
            continue
        q = from_polar(to_polar(p))
        scale = max(1.0, float(np.max(np.abs(p.xi))), abs(p.z))
        assert np.max(np.abs(q.xi - p.xi)) < 1e-11 * scale
        assert abs(q.z - p.z) < 1e-11 * scale


def test_polar_validation():
    with pytest.raises(ValueError):
        Polar(t=-1.0, varpi=np.array([1.0, 0.0]), r=0.0)
    with pytest.raises(ValueError):
        Polar(t=1.0, varpi=np.array([1.0, 0.0]), r=7.0)
    with pytest.raises(ValueError):
        Polar(t=1.0, varpi=np.array([2.0, 0.0]), r=1.0)
    for t, r in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Polar(t=t, varpi=np.array([1.0, 0.0]), r=r)
    for xi, z in (([math.inf, 0.0], 1.0), ([math.nan, 0.0], 1.0), ([1.0, 0.0], math.nan)):
        with pytest.raises(ValueError):
            to_polar(Point(np.array(xi), z))
    with pytest.raises(ValueError):
        Point(xi=np.array([1.0, 0.0, 0.5]), z=0.0)
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            dilate(lam, Point(np.array([1.0, 0.0]), 1.0))


def test_cc_distance_examples():
    # On {z = 0} the distance is Euclidean; on the center it is sqrt(4 pi |z|).
    assert abs(cc_distance(Point(np.array([3.0, 4.0]), 0.0)) - 5.0) < 1e-14
    assert abs(cc_distance(Point(np.zeros(2), 1.0)) - math.sqrt(4.0 * math.pi)) < 1e-14


def _mp_cc_distance(nxi, z, dps=40):
    """r |xi| / (2 sin(r/2)) where phi(r) = |xi|^2/|z| < 8, by Newton in dps
    digits on s = 2*pi - r, with sin(r/2) = sin(s/2) and 1 - cos s = 2 sin(s/2)^2."""
    with mpmath.workdps(dps):
        nxi = mpmath.mpf(nxi)
        log_a = 2 * mpmath.log(nxi) - mpmath.log(abs(z))
        s = mpmath.sqrt(mpmath.pi) * mpmath.exp(log_a / 2)     # phi ~ s^2/pi
        for _ in range(10):
            h, d = 2 * mpmath.sin(s / 2) ** 2, 2 * mpmath.pi - s + mpmath.sin(s)
            s -= (mpmath.log(4 * h / d) - log_a) / (mpmath.cot(s / 2) + h / d)
        return float((2 * mpmath.pi - s) * nxi / (2 * mpmath.sin(s / 2)))


@pytest.mark.parametrize("xi, z", [(1e-8, 1.0), (1e-12, 1.0), (1e-150, 1e150)])
def test_cc_distance_near_center_matches_mpmath(xi, z):
    # r |xi| / (2 sin(r/2)) divides by a sine that vanishes at 2*pi, so it
    # amplifies the rounding of r there (|xi|^2/|z| = 1e-450 even underflows
    # to r = 2*pi); the height form t = sqrt(2 |z| / (|r| q1(r))) does not.
    ref = _mp_cc_distance(xi, z)
    assert abs(cc_distance(Point(np.array([xi, 0.0]), z)) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("xi", [0.0, 1e-10])
def test_distance_is_finite_up_to_the_largest_float(xi):
    # 4 pi |z| and 2 |z|/(r q1(r)) overflow at |z| = 1e308, but the distance
    # is sqrt of them, about 3.5e154.
    p = Point(np.array([xi, 0.0]), 1e308)
    with mpmath.workdps(50):
        ref = _mp_cc_distance(xi, p.z, dps=50) if xi else \
            float(mpmath.sqrt(4 * mpmath.pi * mpmath.mpf(p.z)))
    for t in (to_polar(p).t, cc_distance(p)):
        assert abs(t - ref) <= 1e-15 * ref


_MAGNITUDES = st.sampled_from([0.0, 1.0]) | st.floats(1e-150, 1e150)


@settings(deadline=None, max_examples=300)
@given(x=_MAGNITUDES, y=_MAGNITUDES, z=_MAGNITUDES, negative=st.booleans())
def test_cc_distance_is_the_t_of_to_polar(x, y, z, negative):
    # the center (x = y = 0), the plane (z = 0) and 300 decades in between
    p = Point(np.array([x, -y]), -z if negative else z)
    assert np.float64(cc_distance(p)).view(np.int64) == np.float64(to_polar(p).t).view(np.int64)


def test_a_polar_has_one_read_only_point():
    c = Polar(t=1.3, varpi=_unit(2), r=2.0)
    point = from_polar(c)
    assert from_polar(c) is point
    assert frame(c).point is point
    with pytest.raises(ValueError):
        point.xi[0] = 0.0


@pytest.mark.parametrize("z", [1e-16, 1e-20, -1e-20])
def test_round_trip_near_the_plane(z):
    # r ~ 12 z is far below 1; a root finder that stops on an absolute
    # bracket width returns r ~ 1e-16 and z ~ 3e-17 here.
    p = Point(np.array([1.0, 0.0]), z)
    back = from_polar(to_polar(p))
    assert abs(back.z - z) <= 1e-12 * abs(z)
    assert np.max(np.abs(back.xi - p.xi)) <= 1e-12


@pytest.mark.parametrize("xi, z, lam", [(1e160, 1e300, 1e150), (1e-160, 1e-300, 1e-150)],
                         ids=["xi-squared-overflows", "xi-squared-subnormal"])
def test_chart_is_covariant_at_extreme_scales(xi, z, lam):
    # The dilations by lam of (1e10, 1), near the plane, and (1e-10, 1),
    # near the center.  |xi|^2 = 1e320 overflows and 1e-320 is subnormal,
    # so neither the chart nor the gauge may form it.
    p = Point(np.array([xi, 0.0]), z)
    base = Point(np.array([xi / lam, 0.0]), 1.0)
    for fn in (cc_distance, koranyi):
        ref = lam * fn(base)
        assert abs(fn(p) - ref) <= 1e-13 * ref, fn.__name__
    back = from_polar(to_polar(p))
    assert abs(back.z - z) <= 1e-13 * z
    assert abs(np.linalg.norm(grad_delta(p).v_xi) - 1.0) <= 1e-14


# ----------------------------------------------------------------------
# The complex form against the real 2x2 blocks
# ----------------------------------------------------------------------

def _blockwise(m2, x):
    """Apply the real 2x2 matrix m2 to every pair (x_i, y_i) of x."""
    return (x.reshape(-1, 2) @ m2.T).reshape(-1)


def _A_matrix(r):
    return np.array([[math.sin(r), math.cos(r) - 1.0], [1.0 - math.cos(r), math.sin(r)]])


@st.composite
def _polars(draw):
    """Polar triples with n = 1..3, t in [0.05, 20], 0.5 <= |r| <= 2*pi - 0.5."""
    n = draw(st.integers(1, 3))
    varpi = draw(hnp.arrays(np.float64, 2 * n, elements=st.floats(-1.0, 1.0)))
    nrm = float(np.linalg.norm(varpi))
    assume(nrm > 1e-3)
    r = draw(st.floats(0.5, TWO_PI - 0.5)) * draw(st.sampled_from([1.0, -1.0]))
    return Polar(t=draw(st.floats(0.05, 20.0)), varpi=varpi / nrm, r=r)


@settings(deadline=None, max_examples=200)
@given(c=_polars())
def test_from_polar_matches_the_real_block_form(c):
    # xi = (t/r) A(r) varpi with A(r) = [[sin r, cos r - 1], [1 - cos r, sin r]]
    ref = (c.t / c.r) * _blockwise(_A_matrix(c.r), c.varpi)
    assert np.max(np.abs(from_polar(c).xi - ref)) <= 1e-14 * c.t


@settings(deadline=None, max_examples=200)
@given(c=_polars())
def test_to_polar_matches_the_real_block_form(c):
    # varpi is B xi normalized, B = [[r cot(r/2)/2, r/2], [-r/2, r cot(r/2)/2]]
    p = from_polar(c)
    back = to_polar(p)
    half_cot = 0.5 * back.r / math.tan(0.5 * back.r)
    ref = _blockwise(np.array([[half_cot, 0.5 * back.r], [-0.5 * back.r, half_cot]]), p.xi)
    assert np.max(np.abs(back.varpi - ref / np.linalg.norm(ref))) <= 1e-14


_PAIRS = st.integers(1, 4).flatmap(lambda n: st.tuples(*(
    hnp.arrays(np.float64, 2 * n, elements=st.floats(-1e150, 1e150)) for _ in range(2))))


@settings(deadline=None)
@given(pair=_PAIRS)
def test_J_squares_to_minus_one_and_the_symplectic_form_is_antisymmetric(pair):
    a, b = pair
    assert np.array_equal(geometry._J(geometry._J(a)), -a)
    scale = float(np.abs(a) @ np.abs(b[np.arange(a.size) ^ 1]))     # sum |x_i b_y_i| + |y_i b_x_i|
    assert abs(geometry._symp(a, b) + geometry._symp(b, a)) <= 4e-16 * scale


def test_strided_input_goes_through_the_chart():
    # Pairs are read as complex numbers through a view, which needs a
    # contiguous last axis; the types must store contiguous copies.
    p = Point(np.arange(8.0)[::2], 1.0)
    c = Polar(t=1.3, varpi=np.array([0.6, 9.0, 0.0, 9.0, 0.0, 9.0, 0.8, 9.0])[::2], r=2.0)
    pc = Point(np.arange(0.0, 8.0, 2.0), 1.0)
    cc = Polar(t=1.3, varpi=np.array([0.6, 0.0, 0.0, 0.8]), r=2.0)
    assert np.array_equal(to_polar(p).varpi, to_polar(pc).varpi)
    assert np.array_equal(from_polar(c).xi, from_polar(cc).xi)
    assert np.array_equal(jacobian(c).matrix, jacobian(cc).matrix)
    for got, ref in zip(frame(c).vectors, frame(cc).vectors):
        assert np.array_equal(got.v_xi, ref.v_xi) and got.v_z == ref.v_z
    assert group_mul(p, p).z == group_mul(pc, pc).z
    vec = TangentVec(base=p, v_xi=np.arange(16.0)[::4], v_z=0.5)
    assert is_horizontal(vec) == is_horizontal(TangentVec(base=pc, v_xi=np.arange(0.0, 16.0, 4.0), v_z=0.5))


# ----------------------------------------------------------------------
# Jacobian
# ----------------------------------------------------------------------

def _fd_jacobian_det(c, h=1e-5):
    """Finite-difference determinant of D Phi at c, great circles on the sphere."""
    n = c.n
    dim = 2 * n + 1
    cols = np.empty((dim, dim))

    def embed(t, varpi, r):
        p = from_polar(Polar(t=t, varpi=varpi, r=r))
        return np.concatenate([p.xi, [p.z]])

    cols[:, 0] = (embed(c.t + h, c.varpi, c.r) - embed(c.t - h, c.varpi, c.r)) / (2 * h)
    # orthonormal tangent directions at varpi by QR of a random-free basis
    base = np.eye(2 * n)
    q, _ = np.linalg.qr(np.column_stack([c.varpi] + [base[:, i] for i in range(2 * n - 1)]))
    tangents = [q[:, i + 1] for i in range(2 * n - 1)]
    for i, u in enumerate(tangents):
        plus = c.varpi * math.cos(h) + u * math.sin(h)
        minus = c.varpi * math.cos(h) - u * math.sin(h)
        cols[:, 1 + i] = (embed(c.t, plus, c.r) - embed(c.t, minus, c.r)) / (2 * h)
    cols[:, dim - 1] = (embed(c.t, c.varpi, c.r + h) - embed(c.t, c.varpi, c.r - h)) / (2 * h)
    return abs(np.linalg.det(cols))


@pytest.mark.parametrize("n", [1, 2])
def test_jacobian_det_formula_and_fd(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(25):
        c = _random_polar(rng, n=n, t_range=(0.3, 3.0), r_band=1e-2)
        jac = jacobian(c)
        formula = c.t ** (2 * n + 1) * special.mu(c.r, n)
        assert abs(jac.det - formula) < 1e-10 * formula
        assert jac.det > 0.0
        assert abs(_fd_jacobian_det(c) - formula) < 1e-6 * formula


def test_jacobian_validation():
    varpi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        jacobian(Polar(t=0.0, varpi=varpi, r=1.0))
    with pytest.raises(ValueError):
        jacobian(Polar(t=1.0, varpi=varpi, r=0.0))
    with pytest.raises(ValueError):
        jacobian(Polar(t=1.0, varpi=varpi, r=TWO_PI))


# ----------------------------------------------------------------------
# Frame
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_properties(n):
    rng = np.random.default_rng(50 + n)
    for _ in range(25):
        c = _random_polar(rng, n=n, t_range=(0.2, 4.0), r_band=1e-3)
        fr = frame(c)
        vecs = fr.vectors
        assert len(vecs) == 2 * n
        gram = np.array([[np.dot(a.v_xi, b.v_xi) for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(2 * n))) < 1e-9
        for vec in vecs:
            ok, resid = is_horizontal(vec)
            assert ok and resid < 1e-9
        # T = V1 - V2/w and |T|^2 = (1 + w^2)/w^2
        ww = special.w(c.r)
        T = fr.t_field
        assert np.max(np.abs(T.v_xi - (vecs[0].v_xi - vecs[1].v_xi / ww))) < 1e-12
        tsq = np.dot(T.v_xi, T.v_xi)
        assert abs(tsq - (1.0 + ww * ww) / (ww * ww)) < 1e-9 * tsq


def _unit(n):
    varpi = np.zeros(2 * n)
    varpi[0] = 1.0
    return varpi


@pytest.mark.parametrize("c", [
    Polar(t=1.0, varpi=_unit(2), r=1e-6),
    Polar(t=1.0, varpi=_unit(2), r=1e-8),
    Polar(t=1.0, varpi=_unit(2), r=-1e-8),
    Polar(t=1.0, varpi=_unit(2), r=TWO_PI - 1e-9),
    to_polar(Point(np.full(4, 0.5 * math.sqrt(1e-9)), 1.0)),
], ids=["r=1e-6", "r=1e-8", "r=-1e-8", "2pi-r=1e-9", "near-center"])
def test_frame_orthonormal_at_chart_edges(c):
    # 1 - cos r and sqrt(2 - 2 cos r) cancel to 0 for |r| <~ 1e-8, and
    # A'(r) - A(r)/r cancels near r = 0; the frame must use the stable forms.
    fr = frame(c)
    mat = np.stack([vec.v_xi for vec in fr.vectors])
    assert np.all(np.isfinite(fr.polar_forms))
    assert np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0]))) < 1e-9
    for vec in fr.vectors:
        _, resid = is_horizontal(vec)
        assert resid < 1e-9
    det = jacobian(c).det
    ref = c.t ** (2 * c.n + 1) * special.mu(c.r, c.n)
    assert abs(det - ref) < 1e-9 * ref


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_completes_an_orthonormal_basis(n):
    rng = np.random.default_rng(70 + n)
    e1 = _unit(n)
    cases = [rng.normal(size=2 * n) for _ in range(5)] + [e1, -e1, np.roll(e1, 1)]   # i e1
    if n > 1:
        cases.append(np.concatenate(([0.0, 0.0], rng.normal(size=2 * n - 2))))
    for varpi in cases:
        varpi = varpi / np.linalg.norm(varpi)
        comp = geometry._complement(varpi)
        assert comp.shape == (2 * n - 2, 2 * n)
        basis = np.vstack((varpi, geometry._J(varpi), comp))
        assert np.max(np.abs(basis @ basis.T - np.eye(2 * n))) <= 1e-15
        c = Polar(t=1.3, varpi=varpi, r=2.0)
        det = jacobian(c).det
        ref = c.t ** (2 * n + 1) * special.mu(c.r, n)
        assert abs(det - ref) < 1e-10 * ref


def test_each_polar_evaluates_its_kernels_once(monkeypatch):
    calls = {"kernels": 0, "complement": 0}
    kernels, complement = geometry._kernels, geometry._complement

    def uncounted(r):
        return tuple(float(k[0]) for k in kernels(np.array([r])))

    def counted_kernels(r):
        calls["kernels"] += 1
        return kernels(r)

    def counted_complement(varpi):
        calls["complement"] += 1
        return complement(varpi)

    monkeypatch.setattr(geometry, "_kernels", counted_kernels)
    monkeypatch.setattr(geometry, "_complement", counted_complement)
    c = Polar(t=1.3, varpi=_unit(2), r=2.0)
    for fn in (from_polar, frame, jacobian):
        fn(c)
    assert calls == {"kernels": 1, "complement": 1}
    # replace makes a new triple, with kernels of its own
    assert dataclasses.replace(c, r=-1.0).kernels == uncounted(-1.0)
    assert calls["kernels"] == 2
    # inside r = pi, grad_delta reads the kernels of the triple it builds
    p = from_polar(Polar(t=0.8, varpi=_unit(2), r=-2.5))
    calls["kernels"] = 0
    grad_delta(p)
    assert calls["kernels"] == 1
    # past r = pi, to_polar evaluates the kernels for t and hands them on
    p = from_polar(Polar(t=0.8, varpi=_unit(2), r=-5.0))
    calls["kernels"] = 0
    c = to_polar(p)
    assert calls["kernels"] == 1
    for fn in (from_polar, frame, jacobian):
        fn(c)
    assert calls["kernels"] == 1
    assert c.kernels == uncounted(c.r)
    grad_delta(p)
    assert calls["kernels"] == 2


def test_frame_polar_forms_push_forward():
    # Applying the polar components of each frame vector to the coordinate
    # pushforwards must reproduce the ambient vector: a_t Phi_* d/dt +
    # Phi_*(sphere part) + a_r Phi_* d/dr, with the sphere part mapped by
    # xi = (t/r) A u.
    rng = np.random.default_rng(60)
    for n in (1, 2):
        for _ in range(10):
            c = _random_polar(rng, n=n, t_range=(0.3, 3.0), r_band=1e-2)
            fr = frame(c)
            h = 1e-6

            def embed(t, varpi, r):
                p = from_polar(Polar(t=t, varpi=np.asarray(varpi) / np.linalg.norm(varpi), r=r))
                return np.concatenate([p.xi, [p.z]])

            for vec, row in zip(fr.vectors, fr.polar_forms):
                a_t, u, a_r = row[0], row[1:-1], row[-1]
                # great-circle step for the sphere block, linear in t and r
                nu = np.linalg.norm(u)
                if nu > 1e-14:
                    direction = u / nu
                    plus = embed(c.t + h * a_t,
                                 c.varpi * math.cos(h * nu) + direction * math.sin(h * nu),
                                 c.r + h * a_r)
                    minus = embed(c.t - h * a_t,
                                  c.varpi * math.cos(h * nu) - direction * math.sin(h * nu),
                                  c.r - h * a_r)
                else:
                    plus = embed(c.t + h * a_t, c.varpi, c.r + h * a_r)
                    minus = embed(c.t - h * a_t, c.varpi, c.r - h * a_r)
                fd = (plus - minus) / (2 * h)
                ambient = np.concatenate([vec.v_xi, [vec.v_z]])
                assert np.max(np.abs(fd - ambient)) < 1e-6


def test_grad_delta_eikonal():
    rng = np.random.default_rng(70)
    for _ in range(30):
        p = _random_point(rng, n=2)
        if np.linalg.norm(p.xi) < 1e-2:
            continue
        g = grad_delta(p)
        assert abs(np.dot(g.v_xi, g.v_xi) - 1.0) < 1e-12
        ok, resid = is_horizontal(g)
        assert ok and resid < 1e-10
    with pytest.raises(ValueError):
        grad_delta(Point(np.zeros(2), 1.0))


def test_is_horizontal_rejects_vertical():
    p = Point(np.array([1.0, 0.0]), 0.0)
    vert = TangentVec(base=p, v_xi=np.zeros(2), v_z=1.0)
    ok, resid = is_horizontal(vert)
    assert not ok and abs(resid - 1.0) < 1e-15


def test_frame_validation():
    varpi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        frame(Polar(t=1.0, varpi=varpi, r=0.0))
    with pytest.raises(ValueError):
        frame(Polar(t=0.0, varpi=varpi, r=1.0))
    with pytest.raises(ValueError):
        frame(Polar(t=1.0, varpi=varpi, r=TWO_PI))


# ----------------------------------------------------------------------
# Geodesics
# ----------------------------------------------------------------------

def test_geodesic_distance_and_straight_line():
    rng = np.random.default_rng(80)
    for _ in range(40):
        varpi = rng.normal(size=2)
        varpi /= np.linalg.norm(varpi)
        pz = float(rng.uniform(-2.0, 2.0))
        s = float(rng.uniform(0.05, (TWO_PI - 1e-3) / max(abs(pz), 1e-9)))
        s = min(s, 5.0)
        p = geodesic(varpi, pz, s)
        assert abs(cc_distance(p) - s) < 1e-9 * max(1.0, s)
    # pz = 0 is the Euclidean ray
    p = geodesic(np.array([0.0, 1.0]), 0.0, 2.0)
    assert np.allclose(p.xi, [0.0, 2.0], atol=1e-15) and p.z == 0.0


def test_geodesic_curve_length():
    rng = np.random.default_rng(81)
    for _ in range(5):
        varpi = rng.normal(size=2)
        varpi /= np.linalg.norm(varpi)
        pz = float(rng.uniform(-1.5, 1.5))
        s = float(rng.uniform(0.5, 3.0))
        if s * abs(pz) >= TWO_PI - 1e-3:
            s = (TWO_PI - 1e-2) / abs(pz)
        length = geodesic_curve_length(varpi, pz, s)
        assert abs(length - s) < 1e-6 * max(1.0, s)


def test_geodesic_range_validation():
    varpi = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        geodesic(varpi, 2.0, 4.0)  # s * |pz| = 8 > 2*pi
    with pytest.raises(ValueError):
        geodesic(np.array([2.0, 0.0]), 0.5, 1.0)  # varpi not unit
