#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and prints, for each
end-to-end metric, the median, the quartiles and the spread relative to the
metric's bound in BENCHMARK.json.

Run from the root of the repository:

    python3 ysbench/steady.py                     # 10 seeds x every workload
    python3 ysbench/steady.py --runs 5 --workload serve_stream
    python3 ysbench/steady.py --sets 2            # two sets: do the medians agree?

Run i of every set uses seed `--seed-base + i`, so sets differ only by when
they ran. The spread of a metric is (Q3 - Q1) / median over a set's runs,
with the quartiles of Python's `statistics.quantiles(values, n=4)`;
"steady" means below a third of the bound, "within" below the bound. With
two sets, each later set's median must lie within the bound of the first's,
in either direction.

Gates, each failing the report:
  * every run exits 0 and reports no failed request (error_ratio 0);
  * a run prints exactly the metric names BENCHMARK.json lists;
  * determinism: the first seed is run again untraced and traced, and both
    must print the same deterministic counts as its first run;
  * every spread, setup_s's too, is within its bound, and set medians agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    det = next((l for l in lines if l.startswith("determinism:")), None)
    return json.loads(lines[-1]), det


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    e2e = bench["end_to_end"]
    layer_names = {m["name"] for m in bench["per_layer"]}
    failures = []

    for w in workloads:
        sets = []
        dets = []
        for k in range(a.sets):
            values = {m["name"]: [] for m in e2e}
            for i in range(a.runs):
                seed = a.seed_base + i
                result, det = run(bench["command"], w, seed, seconds, 0)
                if set(result["metrics"]) != set(values):
                    failures.append(f"{w}: printed {sorted(result['metrics'])}")
                if result["failed"]:
                    failures.append(f"{w} seed {seed}: {result['failed']} failed requests")
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                if k == 0 and i == 0:
                    dets.append(det)
                print(f"{w} set {k} seed {seed}: " + " ".join(
                    f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
            sets.append(values)

        seed = a.seed_base
        for trace in (0, 1):
            result, det = run(bench["command"], w, seed, seconds, trace)
            dets.append(det)
            if trace and set(result["metrics"]) != layer_names:
                failures.append(f"{w}: traced run printed {sorted(result['metrics'])}")
        if len(set(dets)) != 1:
            failures.append(f"{w}: deterministic counts differ across runs of seed {seed}:\n  "
                            + "\n  ".join(dets))

        print(f"\n{w}: {a.runs} runs x {a.sets} set(s), {seconds}s each")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for m in e2e:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, values in enumerate(sets):
                v = values[name]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                verdict = ("steady" if spread < bound / 3 else
                           "within" if spread <= bound else "TOO NOISY")
                if spread > bound:
                    failures.append(f"{w} {name}: spread {spread:.3f} > bound {bound}")
                print(f"  {name:<16} {k:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                      f" {spread:>8.3f} {bound:>6} {spread / bound:>12.2f}  {verdict}")
            for k in range(1, len(medians)):
                shift = medians[k] / medians[0] - 1
                if abs(shift) > bound:
                    failures.append(f"{w} {name}: set {k} median moved {shift:+.3f}, bound {bound}")
        print(f"  determinism: {'same' if len(set(dets)) == 1 else 'DIFFERENT'} over "
              f"{len(dets)} runs of seed {seed} (trace 0, 0, 1)\n", flush=True)

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
