"""Geodesic polar coordinates, horizontal frames and Hardy-inequality
numerics on the Heisenberg group H^n.

The package is organized in four layers plus a CLI:

* :mod:`heisenberg_hardy.special`  -- the weight functions phi, mu, v, w,
  gamma, eta of the vertical angle r, on stable kernels;
* :mod:`heisenberg_hardy.numerics` -- adaptive Gauss-Kronrod quadrature,
  monotone root finding, Sturm-Liouville minimal eigenvalues, exact sphere
  integration of polynomials;
* :mod:`heisenberg_hardy.geometry` -- the polar map both ways, Carnot
  distance, Koranyi gauge, polar Jacobian, adapted horizontal frames,
  geodesics;
* :mod:`heisenberg_hardy.hardy`    -- separable Hardy quotients on cones,
  sharpness sweeps, Sturm-Liouville reductions, bound reports;
* :mod:`heisenberg_hardy.cli`      -- the ``hh`` command.
"""

from .special import (
    TWO_PI,
    IdentityReport,
    SpecialValue,
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
from .numerics import (
    EigResult,
    QuadResult,
    QuadratureError,
    SLProblem,
    SpherePoly,
    find_root_monotone,
    integrate,
    sl_min_eig,
    sphere_area,
    sphere_integral,
)
from .geometry import (
    FrameAtPoint,
    Jacobian,
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
from .hardy import (
    BoundReport,
    ConeSpec,
    Profile,
    SantaloReport,
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

__version__ = "0.1.0"
