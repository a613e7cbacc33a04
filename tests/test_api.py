"""The public surface: the names the package exports and the optional
parameters of each, read with inspect.signature.  A change here is a
contract change, to be listed in README and CHANGES.md.  Also: no module
imports a name it does not use."""

import ast
import inspect
import types
from pathlib import Path

import heisenberg_hardy

EXPORTED = {
    "BoundReport", "ConeSpec", "EigResult", "FrameAtPoint", "IdentityReport", "Jacobian",
    "Point", "Polar", "Profile", "QuadResult", "QuadratureError", "SLProblem",
    "SantaloReport", "SeparableFn", "SpecialValue", "SpherePoly", "TWO_PI", "TangentVec",
    "annulus_identity_check", "bump_profile", "cc_distance", "check_identities",
    "cone_bounds", "constant_profile", "default_gamma_schedule", "dilate", "eta",
    "euclid_cone_lower_bound", "euclid_quotient", "eval_phi", "eval_weights",
    "find_root_monotone", "frame", "from_polar", "gamma", "garofalo_weight", "geodesic",
    "geodesic_curve_length", "grad_delta", "group_inverse", "group_mul", "integrate",
    "invert_phi", "is_horizontal", "jacobian", "koranyi", "koranyi_upper_bound", "mu",
    "power_profile", "product_profile", "radial_sequence_quotient", "rv", "rw",
    "santalo_geometry_check", "separable_quotient", "sharpness_sweep", "sl_min_eig",
    "sl_perp_estimate", "smoothstep_profile", "sphere_area", "sphere_integral", "to_polar",
    "v", "w",
}

OPTIONAL = {
    "SLProblem": ("grid_n",),
    "SpherePoly": ("terms",),
    "annulus_identity_check": ("cone_n",),
    "check_identities": ("n", "grid_size"),
    "constant_profile": ("value", "support"),
    "default_gamma_schedule": ("count",),
    "eval_weights": ("n",),
    "integrate": ("rtol",),
    "mu": ("n",),
    "power_profile": ("support",),
    "santalo_geometry_check": ("n", "alpha", "samples", "seed"),
    "separable_quotient": ("variant",),
    "sharpness_sweep": ("gammas",),
    "sl_perp_estimate": ("grid_n", "weighted"),
}


def _exported():
    return {name: obj for name, obj in vars(heisenberg_hardy).items()
            if not name.startswith("_") and not isinstance(obj, types.ModuleType)}


def test_exported_names():
    assert set(_exported()) == EXPORTED
    assert len(EXPORTED) == 64


def test_optional_parameters():
    optional = {}
    for name, obj in _exported().items():
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):     # a constant, or a builtin signature
            continue
        found = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if found:
            optional[name] = found
    assert optional == OPTIONAL
    assert sum(map(len, OPTIONAL.values())) == 20


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; every other module uses what it imports
    unused = {}
    for path in sorted(Path(heisenberg_hardy.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_no_module_imports_scipy_linalg():
    # numerics._lapack loads the one LAPACK extension sl_min_eig uses; the
    # scipy.linalg package __init__ would add some 230 ms and 23 MB to `hh sl`
    found = []
    for path in sorted(Path(heisenberg_hardy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy.linalg" or name.startswith("scipy.linalg.")]
    assert found == []
