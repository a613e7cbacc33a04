"""In-memory span tracer that wraps the library's public functions from outside.

Each wrapped function is replaced at the module attribute its callers look it
up through (``hardy.integrate``, ``special.find_root_monotone``,
``special.mu``, ``geometry.to_polar`` ...), so no library code changes.  A
call records one span ``(id, parent, name, layer, start_ns, end_ns, attrs)``;
work is counted from arguments, return values and by wrapping the callables
passed in (the integrand ``f`` of ``integrate``, the ``f`` of the root
finder).  Spans stay in memory until :meth:`Tracer.dump`.

The library is single-threaded and synchronous, so spans nest strictly and no
layer ever waits on another; there is no wait metric.
"""

import json
import time
import tracemalloc

import numpy as np

# (layer, module attribute path, public names).  The module is the one the
# callers resolve the name through at call time.
TARGETS = (
    ("special", "special", ("eval_phi", "mu", "rw", "rv", "v", "w", "gamma", "eta",
                            "eval_weights", "invert_phi", "check_identities")),
    ("numerics", "special", ("find_root_monotone",)),
    ("numerics", "numerics", ("find_root_monotone", "integrate", "sl_min_eig")),
    ("numerics", "geometry", ("integrate",)),
    ("numerics", "hardy", ("integrate", "sl_min_eig")),
    ("geometry", "geometry", ("to_polar", "from_polar", "cc_distance", "frame",
                              "jacobian", "geodesic", "grad_delta")),
    ("hardy", "hardy", ("separable_quotient", "sharpness_sweep", "koranyi_upper_bound",
                        "sl_perp_estimate", "radial_sequence_quotient", "cone_bounds")),
    ("cli", "cli", ("main",)),
)

def _size(x):
    return int(np.size(x))


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []          # [id, parent, name, layer, t0, t1, attrs]
        self._stack = []
        self._saved = []
        self.paused = False          # while set, wrapped calls record nothing
        self._largest_special = None   # (values, fn, args, kwargs)

    # -- patching ---------------------------------------------------------

    def install(self, modules):
        """Wrap every target found in ``modules`` (a dict name -> module)."""
        for layer, modname, names in TARGETS:
            mod = modules.get(modname)
            if mod is None:
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(layer, name, fn))

    def uninstall(self):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        qual = f"{layer}.{name}"

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            attrs = {}
            args, kwargs = tracer._instrument(name, args, kwargs, attrs)
            parent = tracer._stack[-1] if tracer._stack else None
            sid = len(tracer.spans)
            span = [sid, parent, qual, layer, 0, 0, attrs]
            tracer.spans.append(span)
            tracer._stack.append(sid)
            ok = False
            span[4] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                span[5] = time.perf_counter_ns()
                tracer._stack.pop()
                attrs["ok"] = ok
                if layer == "special" and (parent is None or tracer.spans[parent][3] != "special"):
                    attrs["values"] = tracer._special_values(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _instrument(self, name, args, kwargs, attrs):
        """Wrap the callables passed into a solver so their evaluations count."""
        if name == "integrate":
            attrs["evals"] = 0
            f = args[0]

            def counted(x, _f=f):
                attrs["evals"] += _size(x)
                return _f(x)
            args = (counted,) + tuple(args[1:])
        elif name == "find_root_monotone":
            attrs["fevals"] = 0
            f = args[0]

            def counted(x, _f=f):
                attrs["fevals"] += 1
                return _f(x)
            args = (counted,) + tuple(args[1:])
        elif name == "sl_min_eig":
            attrs["grid"] = int(args[0].grid_n)
        return args, kwargs

    def _special_values(self, name, fn, args, kwargs):
        if name == "check_identities":
            values = int(kwargs.get("grid_size", args[1] if len(args) > 1 else 10_000))
        else:
            values = _size(args[0]) if args else 1
        if self._largest_special is None or values > self._largest_special[0]:
            self._largest_special = (values, fn, args, kwargs)
        return values

    def peak_alloc_bytes(self):
        """tracemalloc peak of one replay of the largest top-level special call."""
        if self._largest_special is None:
            return 0
        _, fn, args, kwargs = self._largest_special
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # -- output ---------------------------------------------------------------

    def extend(self, spans):
        """Append spans recorded elsewhere (a child process), renumbering ids."""
        base = len(self.spans)
        for sid, parent, name, layer, t0, t1, attrs in spans:
            self.spans.append([sid + base, None if parent is None else parent + base,
                               name, layer, t0, t1, attrs])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_times(spans):
    """Self time of every span: its duration minus the durations of its
    direct children (spans nest strictly, see the module docstring)."""
    out = {s[0]: s[5] - s[4] for s in spans}
    for _, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            out[parent] -= t1 - t0
    return out


def _ancestor_names(spans, by_id, sid):
    names = set()
    parent = by_id[sid][1]
    while parent is not None:
        names.add(by_id[parent][2])
        parent = by_id[parent][1]
    return names


def layer_metrics(spans):
    """Per-layer metrics from a span list.  Times are in the unit named by the
    metric's suffix; counts are exact for a fixed list of operations."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}
    m = {}

    def inclusive(name):
        sel = [s for s in spans if s[2] == name]
        return len(sel), sum(s[5] - s[4] for s in sel), sel

    def layer_self_ms(layer):
        return sum(selfs[s[0]] for s in spans if s[3] == layer) / 1e6

    # special
    top = [s for s in spans if s[3] == "special" and "values" in s[6]]
    values = sum(s[6]["values"] for s in top)
    sp_self = layer_self_ms("special")
    m["special.calls"] = len(top)
    m["special.values"] = values
    m["special.values_per_call"] = values / len(top) if top else 0.0
    m["special.self_ms"] = sp_self
    m["special.ns_per_value"] = sp_self * 1e6 / values if values else 0.0
    for name in ("eval_weights", "mu"):
        _, ns, sel = inclusive(f"special.{name}")
        vals = sum(s[6].get("values", 0) for s in sel)
        m[f"special.{name}.ns_per_value"] = ns / vals if vals else 0.0

    # root finding, reached through invert_phi
    calls, ns, sel = inclusive("special.invert_phi")
    roots = [s for s in spans if s[2] == "numerics.find_root_monotone"]
    inv_fevals = sum(s[6]["fevals"] for s in roots
                     if "special.invert_phi" in _ancestor_names(spans, by_id, s[0]))
    m["special.invert_phi.us_per_call"] = ns / 1e3 / calls if calls else 0.0
    m["special.invert_phi.fevals_per_call"] = inv_fevals / calls if calls else 0.0
    m["numerics.find_root_monotone.calls"] = len(roots)
    m["numerics.find_root_monotone.fevals"] = sum(s[6]["fevals"] for s in roots)
    m["numerics.find_root_monotone.self_ms"] = sum(selfs[s[0]] for s in roots) / 1e6

    # geometry
    for name in ("to_polar", "from_polar", "cc_distance", "frame", "jacobian"):
        calls, ns, _ = inclusive(f"geometry.{name}")
        m[f"geometry.{name}.us_per_call"] = ns / 1e3 / calls if calls else 0.0
    m["geometry.self_ms"] = layer_self_ms("geometry")

    # quadrature
    quads = [s for s in spans if s[2] == "numerics.integrate"]
    evals = sum(s[6]["evals"] for s in quads)
    useful = sum(s[6]["evals"] for s in quads if s[6]["ok"])
    m["numerics.integrate.calls"] = len(quads)
    m["numerics.integrate.evals"] = evals
    m["numerics.integrate.evals_per_call"] = evals / len(quads) if quads else 0.0
    m["numerics.integrate.failures"] = sum(1 for s in quads if not s[6]["ok"])
    m["numerics.integrate.useful_eval_ratio"] = useful / evals if evals else 0.0
    m["numerics.integrate.self_ms"] = sum(selfs[s[0]] for s in quads) / 1e6

    # Sturm-Liouville
    sls = [s for s in spans if s[2] == "numerics.sl_min_eig"]
    grid = sum(s[6]["grid"] for s in sls)
    sl_ns = sum(s[5] - s[4] for s in sls)
    m["numerics.sl_min_eig.calls"] = len(sls)
    m["numerics.sl_min_eig.grid_points"] = grid
    m["numerics.sl_min_eig.ms_per_kgrid"] = sl_ns / 1e6 / (grid / 1e3) if grid else 0.0
    m["numerics.sl_min_eig.self_ms"] = sum(selfs[s[0]] for s in sls) / 1e6

    # hardy
    for name in ("separable_quotient", "sharpness_sweep", "koranyi_upper_bound",
                 "sl_perp_estimate"):
        calls, ns, _ = inclusive(f"hardy.{name}")
        m[f"hardy.{name}.ms_per_call"] = ns / 1e6 / calls if calls else 0.0
    n_sep = sum(1 for s in spans if s[2] == "hardy.separable_quotient")
    sep_evals = sum(s[6]["evals"] for s in quads
                    if "hardy.separable_quotient" in _ancestor_names(spans, by_id, s[0]))
    m["hardy.evals_per_quotient"] = sep_evals / n_sep if n_sep else 0.0
    m["hardy.self_ms"] = layer_self_ms("hardy")
    return m
