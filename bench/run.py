"""Benchmark of the heisenberg-hardy library and its `hh` command.

Run from the repository root:

    python3 bench/run.py --workload hardy-quotients --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one client, one process, no worker threads,
BLAS/OpenMP pools capped at one thread in every process it launches.  With
``--trace 0`` whole passes of the stream run untraced until ``--seconds``
seconds of operation time have passed, and the end-to-end metrics of
BENCHMARK.json are reported; with ``--trace 1`` a fixed prefix of the same
seeded stream runs untraced (twice: the first pass warms up) and then under
the span tracer, and the per-layer metrics are reported.  Every output is
checked, outside the timed region.  The last line of standard output is one
JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

# BLAS and OpenMP size their pools when numpy loads, so the caps are set
# before the first numpy import; children inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-mix", "chart-points", "hardy-quotients", "kernel-bulk")
SETUP_RUNS = 7          # fresh interpreters per run; setup_s is their median
IMPORT_RUNS = 3         # -X importtime interpreters per traced run
IMPORTTIME_CLI = [sys.executable, "-X", "importtime", "-m", "heisenberg_hardy.cli"]
MIN_OPS = 11            # op_tail_ms needs ten samples beyond it
# A kernel-bulk pass is five calls, of which eval_weights takes ~6x any
# other; with at least 11 passes its calls hold the whole tail, so
# op_tail_ms is an eval_weights latency however many passes fit.
MIN_PASSES = {"kernel-bulk": 11}

OUT_DIR = ".bench_out"


def tail(latencies_ns):
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value_ns, percentile, samples).  With sorted samples x_0..x_{N-1},
    that is x_{N-11}, the ceil((N-10)/N * 100)-th percentile."""
    xs = sorted(latencies_ns)
    k = len(xs) - 11
    if k < 0:
        raise ValueError("op_tail_ms needs at least 11 samples")
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def fingerprint():
    import scipy
    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.machine(), "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            def read(name):
                with open(os.path.join(base, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            info["caches"][f"L{read('level')} {read('type')}"] = read("size")
    except OSError:
        pass
    return info


def parse_importtime(stderr):
    """(package import ms, scipy import ms) from `python -X importtime` output.

    The package figure sums the cumulative time of every top-level import of
    `heisenberg_hardy` or one of its modules (the package pulls in numpy and
    scipy; under `-m heisenberg_hardy.cli` the package is imported first and
    the cli runs as __main__).  The scipy figure sums the self time of every
    scipy module, wherever it was imported."""
    package = scipy_us = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue
        name = parts[2].strip()
        top_level = not parts[2].startswith("  ")
        if top_level and (name == "heisenberg_hardy" or name.startswith("heisenberg_hardy.")):
            package += cum_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return package / 1e3, scipy_us / 1e3


def time_child(argv, env):
    """Wall seconds and stderr of one child run to completion."""
    t0 = time.perf_counter()
    code, _, err, _ = workloads.run_child(argv, OUT_DIR, env)
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{argv[:3]} exited {code}: {err.decode(errors='replace')[-400:]}")
    return wall, err


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def measure(name, seed, seconds, env):
    check = workloads.CHECKS[name]
    setup = []

    def set_up():
        setup.append(time_child([sys.executable, "-c", workloads.SETUP_CODE[name]], env)[0])

    # The set-up interpreters are spread over the timed phase (between
    # operations, off the clock), so setup_s sees the same host as the
    # other metrics rather than the speed of one second.
    set_up()
    ops = workloads.stream(name, np.random.default_rng(seed), OUT_DIR, env)
    latencies, failures, child_rss = [], [], 0
    # In-process workloads run their first pass untimed, so lazy imports and
    # first-touch allocations are done; setup_s measures that cost in fresh
    # interpreters.  The timed phase ends on a pass boundary, so every run
    # times whole passes and the mix of operations does not depend on speed.
    first_timed = 0 if name == "cli-mix" else 1
    min_passes = MIN_PASSES.get(name, 1)
    pass_index, attempted = -1, 0
    busy, budget = 0, int(seconds * 1e9)
    for op in ops:
        if op.starts_pass:
            pass_index += 1
            if (pass_index - first_timed >= min_passes and busy >= budget
                    and len(latencies) >= MIN_OPS):
                break
        dt, out, failure = workloads.run_op(op, check)
        attempted += 1
        if failure:
            failures.append((workloads.describe(op), failure))
        if pass_index < first_timed:
            continue
        busy += dt
        latencies.append(dt)
        if name == "cli-mix" and out is not None:
            child_rss = max(child_rss, out[3])
        while len(setup) < 1 + (SETUP_RUNS - 1) * min(busy, budget) / budget:
            set_up()
    while len(setup) < SETUP_RUNS:
        set_up()
    rss = child_rss if name == "cli-mix" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    value, pct, samples = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / (busy / 1e9),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": value / 1e6,
        "peak_rss_mb": rss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "ops_per_s": f"{len(latencies)} ops ({pass_index - first_timed} passes) in "
                     f"{busy / 1e9:.3f} s of operation time",
        "op_tail_ms": f"p{pct:.2f} of {samples} samples, 10 beyond it",
        "peak_rss_mb": "max over `hh` child processes" if name == "cli-mix" else "this process",
    }
    extra = [("error_rate", len(failures) / attempted, "ratio",
              f"{len(failures)} failed of {attempted} attempted "
              f"({attempted - len(latencies)} in the untimed first pass)")]
    return metrics, notes, extra, attempted, failures


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------

def trace(name, seed, env):
    check = workloads.CHECKS[name]
    start = [time_child([sys.executable, "-c", "pass"], env)[0] for _ in range(SETUP_RUNS)]
    interp_start_ms = statistics.median(start) * 1e3

    spans_path = os.path.join(OUT_DIR, "child-spans.json")
    count = workloads.TRACE_OPS[name]

    def prefix_ops(prefix=None):
        ops = workloads.stream(name, np.random.default_rng(seed), OUT_DIR, env, prefix=prefix)
        return [next(ops) for _ in range(count)]

    def unchecked(op):
        return workloads.run_op(op, lambda op, out: None)

    # The first pass warms caches and lazy imports; the second is the baseline.
    plain = prefix_ops()
    for _ in range(2):
        baseline = [unchecked(op) for op in plain]
    untraced_ns = sum(dt for dt, _, _ in baseline)

    imports, scipys, compute, bytes_out = [], [], [], 0
    if name == "cli-mix":
        # Import figures come from the same invocations, untraced, under
        # -X importtime; compute is the rest of the baseline invocation.
        for op, (dt, out, _) in zip(prefix_ops(IMPORTTIME_CLI), baseline):
            package_ms, scipy_ms = parse_importtime(unchecked(op)[1][2])
            imports.append(package_ms)
            scipys.append(scipy_ms)
            compute.append(dt / 1e6 - interp_start_ms - package_ms)
            bytes_out += len(out[1])
    else:
        for _ in range(IMPORT_RUNS):
            _, err = time_child([sys.executable, "-X", "importtime", "-c",
                                 workloads.SETUP_CODE[name]], env)
            package_ms, scipy_ms = parse_importtime(err)
            imports.append(package_ms)
            scipys.append(scipy_ms)

    # The traced pass: the library is wrapped in this process, and for
    # cli-mix in each `hh` child, which sends its spans back.
    child = [sys.executable, os.path.join("bench", "cli_child.py"), spans_path]
    tr = tracing.Tracer()
    failures, traced_ns, peak_alloc = [], 0, 0
    tr.install(workloads._lib())
    try:
        for op in prefix_ops(child if name == "cli-mix" else None):
            tr.paused = False
            dt, out, failure = unchecked(op)
            traced_ns += dt
            tr.paused = True          # checks call the library too; not traced
            failure = failure or check(op, out)
            if failure:
                failures.append((workloads.describe(op), failure))
            if name == "cli-mix" and out is not None:
                with open(spans_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                tr.extend(report["spans"])
                peak_alloc = max(peak_alloc, report["peak_alloc"])
    finally:
        tr.uninstall()
    if name != "cli-mix":
        peak_alloc = tr.peak_alloc_bytes()

    metrics = tracing.layer_metrics(tr.spans)
    metrics["special.peak_alloc_mb"] = peak_alloc / 1e6
    metrics["cli.interp_start_ms"] = interp_start_ms
    metrics["cli.import_ms"] = statistics.median(imports)
    metrics["cli.import_scipy_ms"] = statistics.median(scipys)
    metrics["cli.compute_ms"] = statistics.mean(compute) if compute else 0.0
    metrics["cli.bytes_out"] = bytes_out
    metrics["trace.untraced_ms"] = untraced_ns / 1e6
    metrics["trace.traced_ms"] = traced_ns / 1e6
    metrics["trace.overhead_ms"] = (traced_ns - untraced_ns) / 1e6
    metrics["trace.spans"] = len(tr.spans)

    defects = known_defects(name, env)
    metrics["defects.failing"] = sum(1 for *_, got in defects if got)
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json"))
    return metrics, defects, count, failures


def known_defects(name, env):
    """Run the register of known-defect inputs; returns (label, expected, got)."""
    if name == "chart-points":
        cases = workloads.chart_defects()
    elif name == "hardy-quotients":
        cases = workloads.hardy_defects()
    elif name == "cli-mix":
        cases = workloads.cli_defects(OUT_DIR, env)
    else:
        cases = workloads.kernel_defects()
    check = workloads.CHECKS[name]
    return [(label, expected, workloads.run_op(op, check)[2]) for label, op, expected in cases]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "heisenberg_hardy", "__init__.py")):
        print("bench: run from the repository root (src/heisenberg_hardy not found)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    sys.path.insert(0, os.path.abspath("src"))
    env = workloads.child_env()
    os.makedirs(OUT_DIR, exist_ok=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    if args.trace == 0:
        metrics, notes, extra, attempted, failures = measure(
            args.workload, args.seed, args.seconds, env)
        declared = spec["end_to_end"]
    else:
        metrics, defects, attempted, failures = trace(args.workload, args.seed, env)
        notes, extra = {}, []
        declared = spec["per_layer"]
        for label, expected, got in defects:
            status = f"fails {got}" if got else "now passes"
            print(f"known defect  {label}: {status} (registered: {expected})")
        print("layers are single-threaded and synchronous: no layer waits on another, "
              "so there is no wait metric")

    out = {}
    for entry in declared:
        key, unit = entry["name"], entry["unit"]
        out[key] = {"value": metrics[key], "unit": unit}
        print(f"{key:44s} {metrics[key]:>16.6f} {unit:6s} {notes.get(key, '')}")
    for key, value, unit, note in extra:
        print(f"{key:44s} {value:>16.6f} {unit:6s} {note}")
    for label, failure in failures:
        print(f"FAILED {failure}: {label}")

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": out}
    report = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, fingerprint=machine)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
