"""Steadiness check of the benchmark: run sets of seeds and compare them.

    python3 bench/steady.py --seeds 10 --sets 2 [--workloads cli-mix,kernel-bulk]

For every workload, each set runs ``bench/run.py --trace 0`` once per seed
(set j uses seeds j*N+1 .. j*N+N), and reports for every end-to-end metric
the median and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
passes when its spread is within its bound in BENCHMARK.json and no set's
median is worse than the first set's by more than the bound.  Then
``--trace 1`` runs on TRACE_SEEDS in every set, and every work count (unit
``count`` or ``bytes``, and the tracemalloc peak) must be identical between
sets.  Exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT_UNITS = ("count", "bytes")
EXACT_NAMES = ("special.peak_alloc_mb",)
TRACE_SEEDS = (1, 2)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    ok = True

    values = {}          # (workload, set, metric) -> [values]
    for k in range(args.sets):
        for i in range(args.seeds):
            seed = k * args.seeds + i + 1
            for w in workloads:
                result = run(w, seed, args.seconds, 0)
                ok &= result["correct"]
                print(f"set {k} seed {seed:3d} {w:16s} correct={result['correct']} " + " ".join(
                    f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
                for name, m in result["metrics"].items():
                    values.setdefault((w, k, name), []).append(m["value"])
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for k in range(args.sets):
                share, median = spread(values[(w, k, name)])
                worse = 0.0
                if first is None:
                    first = median
                else:
                    worse = (median - first) / first if metric["better"] == "lower" \
                        else (first - median) / first
                good = share <= bound and worse <= bound
                ok &= good
                print(f"{w:16s} set {k} {name:12s} median {median:12.5g} {metric['unit']:4s} "
                      f"spread {share:7.2%} (bound {bound:.0%}, a third {bound / 3:.1%}) "
                      f"worse-than-set-0 {worse:+7.2%}  {'ok' if good else 'FAIL'}")

    for w in workloads:
        for seed in TRACE_SEEDS:
            counts = []
            for _ in range(args.sets):
                metrics = run(w, seed, args.seconds, 1)["metrics"]
                counts.append({n: m["value"] for n, m in metrics.items()
                               if m["unit"] in EXACT_UNITS or n in EXACT_NAMES})
            same = all(c == counts[0] for c in counts)
            ok &= same
            diff = sorted(n for n in counts[0] if any(c[n] != counts[0][n] for c in counts))
            print(f"{w:16s} trace seed {seed}: {len(counts[0])} exact counts "
                  f"{'identical' if same else 'DIFFER: ' + ', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
