"""Self-tests of the benchmark: generators, checkers, tracer arithmetic.

    python3 bench/selftest.py        (from the repository root)
"""

import itertools
import os
import sys
import types
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def _inputs(op):
    """A comparable fingerprint of an operation's generated inputs."""
    ctx = op.ctx
    if "argv" in ctx:
        return tuple(ctx["argv"])
    if "points" in ctx:
        return tuple((tuple(q.ctx["p"].xi.tolist()), q.ctx["p"].z, q.ctx["lam"])
                     for q in ctx["points"])
    if "group" in ctx:
        g = ctx["group"]
        return (op.kind, g["n"], g["cone"].alpha, g["s"], g["k"])
    return (op.kind, ctx["n"], float(ctx["r"].sum()), float(ctx["r"][100]))


def _streams(seed):
    rng = lambda: np.random.default_rng(seed)  # noqa: E731
    return {"cli-mix": W.cli_stream(rng(), ".", {}),
            "chart-points": W.chart_stream(rng()),
            "hardy-quotients": W.hardy_stream(rng()),
            "kernel-bulk": W.kernel_stream(rng())}


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            count = 6 if name == "kernel-bulk" else 40
            a = [_inputs(op) for op in itertools.islice(_streams(7)[name], count)]
            b = [_inputs(op) for op in itertools.islice(_streams(7)[name], count)]
            c = [_inputs(op) for op in itertools.islice(_streams(8)[name], count)]
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_kernel_array_layout(self):
        r = W.kernel_array(np.random.default_rng(0))
        self.assertEqual(r.size, W.KERNEL_SIZE)
        half = r.size // 2
        np.testing.assert_array_equal(r[half:], -r[:half])
        self.assertEqual(tuple(r[:4]), W.KERNEL_SPECIAL)
        self.assertLessEqual(float(np.max(np.abs(r))), W.TWO_PI)


class Checkers(unittest.TestCase):
    """Each checker accepts the real output and rejects a perturbed one."""

    def test_chart(self):
        geometry = W._lib()["geometry"]
        op = W.chart_op(geometry.Point([0.3, -0.4, 0.2, 0.1], 0.7), 3.0, "body")
        out = op.run()
        self.assertIsNone(W.check_chart(op, out))
        c, back, d_lam, fr, jac = out
        moved = geometry.Point(back.xi, back.z * (1 + 1e-6))
        self.assertEqual(W.check_chart(op, (c, moved, d_lam, fr, jac)), "round_trip")
        self.assertEqual(W.check_chart(op, (c, back, d_lam * (1 + 1e-6), fr, jac)),
                         "dilation_covariance")
        v0 = fr.vectors[0]
        bent = geometry.TangentVec(base=v0.base, v_xi=v0.v_xi * (1 + 1e-6), v_z=v0.v_z)
        bad_frame = types.SimpleNamespace(vectors=(bent,) + fr.vectors[1:])
        self.assertEqual(W.check_chart(op, (c, back, d_lam, bad_frame, jac)), "frame_gram")
        bad_jac = types.SimpleNamespace(det=jac.det * (1 + 1e-6))
        self.assertEqual(W.check_chart(op, (c, back, d_lam, fr, bad_jac)), "jacobian_det")
        block = W.chart_block([op, op])
        self.assertIsNone(W.check_chart_block(block, [out, out]))
        self.assertTrue(W.check_chart_block(block, [out, (c, moved, d_lam, fr, jac)])
                        .startswith("round_trip at body point"))

    def test_hardy(self):
        ops = W.hardy_group(1, 4.0, 2.0, 64.0)
        outs = [op.run() for op in ops]
        for op, out in zip(ops, outs):
            self.assertIsNone(W.check_hardy(op, out), op.kind)
        by_kind = dict(zip((op.kind for op in ops), zip(ops, outs)))
        op, out = by_kind["separable.perp"]
        self.assertEqual(W.check_hardy(op, out * (1 + 1e-6)), "full_split")
        op, out = by_kind["separable.garofalo"]
        self.assertEqual(W.check_hardy(op, out * (1 + 1e-6)), "dilation_invariance")
        op, out = by_kind["sharpness"]
        self.assertEqual(W.check_hardy(op, out[:-1] + [(out[-1][0], 0.2499)]),
                         "sharpness_above_quarter")
        op, _ = by_kind["koranyi"]
        self.assertEqual(W.check_hardy(op, 1.0), "koranyi_below_n2")
        op, out = by_kind["radial"]
        self.assertEqual(W.check_hardy(op, out * (1 + 1e-6)), "radial_closed_form")
        op, _ = by_kind["sl.256"]
        self.assertEqual(W.check_hardy(op, types.SimpleNamespace(lambda_min=0.2499)),
                         "sl_above_quarter")

    def test_kernel(self):
        r = W.kernel_array(np.random.default_rng(3), size=4000)
        ops = W.kernel_ops(r, 2)
        outs = {op.kind: (op, op.run()) for op in ops}
        for op, out in outs.values():
            self.assertIsNone(W.check_kernel(op, out), op.kind)
        op, sv = outs["eval_weights"]
        phi = sv.phi.copy()
        phi[2] *= 1 + 1e-9
        self.assertEqual(W.check_kernel(op, W._lib()["special"].SpecialValue(
            **dict(vars(sv), phi=phi))), "phi_pi")
        eta = sv.eta.copy()
        eta[10] *= 1 + 1e-9
        eta[r.size // 2 + 10] = eta[10]
        self.assertEqual(W.check_kernel(op, W._lib()["special"].SpecialValue(
            **dict(vars(sv), eta=eta))), "eta_identity")
        op, mu = outs["mu"]
        odd = mu.copy()
        odd[r.size // 2 + 50] *= 1 + 1e-9
        self.assertEqual(W.check_kernel(op, odd), "parity_mu")
        op, _ = outs["check_identities"]
        self.assertEqual(W.check_kernel(op, types.SimpleNamespace(passed=False)),
                         "identities_passed")

    def test_cli(self):
        op = W.Op("eval", None, {"argv": ["eval"]})
        good = (b'{"command": "eval", "inputs": {}, "outputs": {"value": 1.0}, '
                b'"tolerances": {}, "residuals": {}}')
        self.assertIsNone(W.check_cli(op, (0, good, b"", 0)))
        self.assertEqual(W.check_cli(op, (3, good, b"", 0)), "exit_code_3")
        self.assertEqual(W.check_cli(op, (0, good[:-1], b"", 0)), "json_parse")
        self.assertEqual(W.check_cli(op, (0, good.replace(b'"residuals": {}', b'"extra": 1'),
                                          b"", 0)), "schema")
        failing = good.replace(b'{"value": 1.0}', b'{"all_passed": false}')
        self.assertEqual(W.check_cli(op, (0, failing, b"", 0)), "all_passed")


class Tracing(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        spans = [
            [0, None, "root", "hardy", 0, 100, {}],
            [1, 0, "a", "numerics", 10, 30, {}],
            [2, 1, "c", "special", 12, 20, {}],
            [3, 1, "d", "special", 22, 25, {}],
            [4, 0, "b", "special", 40, 90, {}],
            [5, None, "other", "special", 200, 210, {}],
        ]
        self.assertEqual(tracer.self_times(spans),
                         {0: 100 - 20 - 50, 1: 20 - 8 - 3, 2: 8, 3: 3, 4: 50, 5: 10})

    def test_wrapping_counts_work(self):
        def integrate(f, a, b):
            f(np.linspace(a, b, 15))
            f(np.linspace(a, b, 15))
            return 1.0

        def mu(r, n=1):
            return np.zeros_like(np.asarray(r, dtype=float))

        hardy_mod = types.SimpleNamespace(integrate=integrate)
        special_mod = types.SimpleNamespace(mu=mu)
        tr = tracer.Tracer()
        tr.install({"hardy": hardy_mod, "special": special_mod})
        try:
            hardy_mod.integrate(lambda x: special_mod.mu(x), 0.0, 1.0)
        finally:
            tr.uninstall()
        self.assertIs(hardy_mod.integrate, integrate)
        names = [s[2] for s in tr.spans]
        self.assertEqual(names, ["numerics.integrate", "special.mu", "special.mu"])
        m = tracer.layer_metrics(tr.spans)
        self.assertEqual(m["numerics.integrate.evals"], 30)
        self.assertEqual(m["special.values"], 30)
        self.assertEqual(m["special.calls"], 2)
        self.assertEqual(m["numerics.integrate.useful_eval_ratio"], 1.0)

    def test_tail_and_importtime(self):
        value, pct, count = run.tail(list(range(20, 0, -1)))
        self.assertEqual((value, pct, count), (10, 50.0, 20))
        with self.assertRaises(ValueError):
            run.tail(list(range(10)))
        text = (b"import time: self [us] | cumulative | imported package\n"
                b"import time:       500 |        900 |     scipy._lib\n"
                b"import time:       100 |       1200 |   scipy.linalg\n"
                b"import time:       200 |        400 |   heisenberg_hardy.special\n"
                b"import time:       300 |       9000 | heisenberg_hardy\n"
                b"import time:       100 |       1000 | heisenberg_hardy.cli\n"
                b"import time:        50 |         50 | runpy\n")
        self.assertEqual(run.parse_importtime(text), (10.0, 0.6))


if __name__ == "__main__":
    unittest.main()
