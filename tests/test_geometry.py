"""Unit tests for the group operations, polar coordinates, frame, and geodesics."""

import math

import mpmath
import numpy as np
import pytest

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
    koranyi_polar,
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
        assert abs(koranyi(p) - koranyi_polar(c)) < 1e-12 * koranyi_polar(c)
        assert abs(koranyi_polar(c) - c.t * special.gamma(c.r)) < 1e-14 * c.t


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
    with pytest.raises(ValueError):
        Point(xi=np.array([1.0, 0.0, 0.5]), z=0.0)


def test_cc_distance_examples():
    # On {z = 0} the distance is Euclidean; on the center it is sqrt(4 pi |z|).
    assert abs(cc_distance(Point(np.array([3.0, 4.0]), 0.0)) - 5.0) < 1e-14
    assert abs(cc_distance(Point(np.zeros(2), 1.0)) - math.sqrt(4.0 * math.pi)) < 1e-14


def _mp_cc_distance(nxi, z):
    """r |xi| / (2 sin(r/2)) where phi(r) = |xi|^2/|z| < 8, by Newton in 40
    digits on s = 2*pi - r, with sin(r/2) = sin(s/2) and 1 - cos s = 2 sin(s/2)^2."""
    with mpmath.workdps(40):
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


@pytest.mark.parametrize("z", [1e-16, 1e-20, -1e-20])
def test_round_trip_near_the_plane(z):
    # r ~ 12 z is far below 1; a root finder that stops on an absolute
    # bracket width returns r ~ 1e-16 and z ~ 3e-17 here.
    p = Point(np.array([1.0, 0.0]), z)
    back = from_polar(to_polar(p))
    assert abs(back.z - z) <= 1e-12 * abs(z)
    assert np.max(np.abs(back.xi - p.xi)) <= 1e-12


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


def test_frame_and_jacobian_evaluate_each_kernel_once(monkeypatch):
    calls = []
    kernels = geometry._kernels

    def counted(r):
        calls.append(r.size)
        return kernels(r)

    monkeypatch.setattr(geometry, "_kernels", counted)
    c = Polar(t=1.3, varpi=_unit(2), r=2.0)
    for fn in (frame, jacobian, from_polar):
        calls.clear()
        fn(c)
        assert calls == [1], fn.__name__


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
