"""Steadiness check: two sets of benchmark runs compared under BENCHMARK.json's bounds.

    python3 bench/steadiness.py [--smoke]

Each of the two sets runs every workload of BENCHMARK.json once per seed,
ten seeds per set (fresh seeds per set), for ``run_seconds`` with tracing
off.  For every end-to-end metric, a set's spread is the distance between
the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median.  The
check fails when a run is incorrect or lacks a metric, when a spread other
than that of ``setup_s`` exceeds the metric's bound, or when the second
set's median differs from the first's, in either direction, by more than
the bound.  ``setup_s`` is bounded by that set-to-set difference only, as
the benchmark contract bounds it.  Spreads above a third of the bound are
flagged as above target.  ``--smoke`` runs each workload once per set on
reduced inputs and does not apply the bounds, which such short runs cannot
meet; it checks that every run is correct and complete.  Results are
written to ``bench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS = 2
SEEDS = 10  # per set


def run_once(workload, seed, seconds, smoke, trace=0):
    """The parsed last line of one benchmark run."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(sets, spec, apply_bounds=True):
    """Rows per (workload, metric) and the list of problems found.

    ``sets`` is a list of {workload: [result, ...]}; ``spec`` is the
    ``end_to_end`` list of BENCHMARK.json.
    """
    rows, problems = [], []
    for workload in sets[0]:
        for runs in (s[workload] for s in sets):
            for result in runs:
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload}: incorrect run ({result['failed']} failed)")
                missing = {m["name"] for m in spec} - set(result["metrics"])
                if missing:
                    problems.append(f"{workload}: missing metrics {sorted(missing)}")
        for m in spec:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in s[workload]
                        if name in r["metrics"]] for s in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            drifts = [(x - medians[0]) / medians[0] for x in medians[1:]]
            status = "ok"
            if max(spreads) > bound / 3:
                status = "above target"
            if apply_bounds:
                if name != "setup_s" and max(spreads) > bound:
                    status = "FAIL"
                    problems.append(f"{workload}/{name}: spread {max(spreads):.3f} > {bound}")
                if drifts and max(map(abs, drifts)) > bound:
                    status = "FAIL"
                    problems.append(
                        f"{workload}/{name}: medians differ by {max(drifts, key=abs):+.3f}")
            rows.append({"workload": workload, "metric": name, "bound": bound,
                         "medians": medians, "spreads": spreads, "drifts": drifts,
                         "values": per_set, "status": status})
    return rows, problems


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one seed per set, reduced inputs, bounds not applied")
    smoke = parser.parse_args(argv).smoke
    seeds, seconds = (1, 0.5) if smoke else (SEEDS, bench["run_seconds"])

    sets, elapsed = [], []
    for k in range(SETS):
        runs = {w["name"]: [] for w in bench["workloads"]}
        for seed in range(1 + k * seeds, 1 + (k + 1) * seeds):
            for w in runs:
                t0 = perf_counter()
                runs[w].append(run_once(w, seed, seconds, smoke))
                elapsed.append(perf_counter() - t0)
                values = runs[w][-1]["metrics"].items()
                print(f"set {k} seed {seed} {w}: "
                      + " ".join(f"{n}={v['value']:.4g}" for n, v in values), flush=True)
        sets.append(runs)
    rows, problems = compare(sets, bench["end_to_end"], apply_bounds=not smoke)
    for r in rows:
        print(f"{r['workload']:10s} {r['metric']:12s} bound {r['bound']:.2f} medians "
              + " ".join(f"{x:.4g}" for x in r["medians"])
              + " spreads " + " ".join(f"{x:.3f}" for x in r["spreads"])
              + " drifts " + " ".join(f"{x:+.3f}" for x in r["drifts"]) + f" {r['status']}")
    schedule = 4 + 22 * len(bench["workloads"])
    print(f"mean run {statistics.mean(elapsed):.1f} s, longest {max(elapsed):.1f} s; "
          f"{schedule} runs take about {schedule * statistics.mean(elapsed):.0f} s")
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump({"smoke": smoke, "rows": rows, "problems": problems,
                   "run_seconds": elapsed}, fh, indent=1)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
