"""Stability and identities of the radial special functions.

The whole library rests on a few trigonometric kernels -- q1 = (r - sin r)/r^3,
c2 = 2(1 - cos r)/r^2, m3 = (2 - 2 cos r - r sin r)/r^4 -- whose naive forms
lose every digit near r = 0.  This script shows the kernel evaluations agree
with closed forms where those exist, stay smooth across the series/direct
switch, and satisfy the integral and pointwise identities that the Hardy
machinery consumes (grid reports, the Garofalo weight relation, and the
annulus integration identity).
"""

import math

import numpy as np

from heisenberg_hardy import (
    Point,
    SeparableFn,
    annulus_identity_check,
    bump_profile,
    check_identities,
    eta,
    eval_weights,
    garofalo_weight,
    mu,
    rv,
    rw,
    to_polar,
    w,
)

TWO_PI = 2.0 * math.pi

print("=== closed forms at distinguished angles ===")
rows = [
    ("w(pi)      = pi/2", w(math.pi), math.pi / 2.0),
    ("rv(pi)     = pi^2/4", rv(math.pi), math.pi ** 2 / 4.0),
    ("rw(pi)     = pi^2/2", rw(math.pi), math.pi ** 2 / 2.0),
    ("eta(pi)    = pi^2/(4 + pi^2)", eta(math.pi), math.pi ** 2 / (4.0 + math.pi ** 2)),
    ("mu(pi, 1)  = 4/pi^4", mu(math.pi, 1), 4.0 / math.pi ** 4),
    ("eta(0+)    = 1", eta(1e-12), 1.0),
    ("eta(2 pi)  = 0", eta(TWO_PI), 0.0),
    ("mu(0+, 1)  = 1/12", mu(1e-300, 1), 1.0 / 12.0),
]
for label, got, want in rows:
    print(f"  {label:<30} value {got:.16f}   |error| {abs(got - want):.2e}")

print()
print("=== smoothness across the series/direct switch at r = 0.25 ===")
eps = 1e-9
below, above = 0.25 - eps, 0.25 + eps
for name, fn in (("w", w), ("rw", rw), ("rv", rv), ("eta", eta),
                 ("mu", lambda r: mu(r, 1))):
    jump = abs(fn(above) - fn(below)) / abs(fn(below))
    print(f"  {name:<4} relative jump across the seam: {jump:.2e}  "
          f"(smooth function: expect ~1e-9 slope * step)")

print()
print("=== limits toward the chart boundaries ===")
print(f"  r w(r) -> 6 as r -> 0:        rw(1e-12) = {rw(1e-12):.15f}")
print(f"  r v(r) -> 2 as r -> 0:        rv(1e-12) = {rv(1e-12):.15f}")
print(f"  w stays positive up to 2 pi:  w(2 pi - 1e-8) = {w(TWO_PI - 1e-8):.6e}")
print(f"  mu vanishes at 2 pi like (2 pi - r)^(2n-1):")
for d in (1e-2, 1e-4, 1e-6):
    print(f"    mu(2 pi - {d:.0e}, 1) / (2 pi - r)^1 = {mu(TWO_PI - d, 1) / d:.12f}")

print()
print("=== grid identity reports (the library's own self-check) ===")
for n in (1, 2, 3):
    rep = check_identities(n=n, grid_size=4096)
    print(f"  n = {n}:  r w mu' vs derivative identity {rep.residual_rwmu:.2e},  "
          f"pointwise weight identity {rep.residual_garofalo:.2e},")
    print(f"          parity {rep.residual_parity:.2e},  gauge ratio margin "
          f"{rep.gamma_margin:+.2e},  eta monotone defect {rep.eta_increase:.2e}")

print()
print("=== the weight identity |T|^2 delta^2 |grad N|^2/N^2 = 1, pointwise ===")
rng = np.random.default_rng(11)
worst = 0.0
for _ in range(200):
    xi = rng.normal(size=4)
    p = Point(xi, float(rng.normal()))
    c = to_polar(p)
    wt = garofalo_weight(p)
    ww = w(c.r)
    t_sq = (1.0 + ww * ww) / (ww * ww)      # |T|^2 along the frame
    worst = max(worst, abs(t_sq * c.t * c.t * wt - 1.0))
print(f"  worst residual over 200 random points of H^2: {worst:.2e}")

print()
print("=== annulus integration identity ===")
f = SeparableFn(g=bump_profile(0.5, 4.0), h=bump_profile(1.0, 5.0))
for r1, r2 in ((1.0, 2.0), (0.7, 3.5)):
    res = annulus_identity_check(f, r1, r2, cone_n=1)
    print(f"  shells R1 = {r1}, R2 = {r2}: relative residual {res:.2e}")

print()
print("=== eval_weights gives all radial factors in one call ===")
vals = eval_weights(np.array([0.0, math.pi, 5.0]), n=1)
print(f"  r          = {vals.r}")
print(f"  phi        = {vals.phi}      (pole at 0 kept as inf)")
print(f"  w          = {vals.w}")
print(f"  mu         = {vals.mu}")
print(f"  eta        = {vals.eta}")
