"""Benchmark for dessins: seeded workloads, reference checks and metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a dessins checkout; the program is imported from its
``src``.  The benchmark repeats passes for about ``--seconds`` seconds,
each over fresh relabelings of the workload's graphs drawn from the seed,
checks every output against references computed here (see
``reference.py``), and
prints a context line and then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` passes alternate
between untraced and traced, and the metrics are the per-layer ones from
the traced passes (see ``spans.py``), whose spans are written to
``bench/out/``.  ``--smoke`` runs reduced inputs for the benchmark's tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from math import factorial
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import inputs
import reference
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MODULES = ("bgraph", "classify", "dessin", "permgroup", "io", "graphgenus")
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import dessins; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def load_layers():
    """The dessins modules of this checkout, looked up as modules (not re-exports)."""
    if not os.path.isfile(os.path.join(SRC, "dessins", "__init__.py")):
        raise SystemExit(f"bench: no dessins package under {SRC}")
    sys.path.insert(0, SRC)
    layers = {m: importlib.import_module(f"dessins.{m}") for m in MODULES}
    for mod in layers.values():
        if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"bench: imported {mod.__file__}, not the checkout's src")
    return SimpleNamespace(**layers)


# -- one input, as a user runs it -----------------------------------------------

def run_classify(with_monodromy):
    def run(layers, inp, threads):
        graph = layers.bgraph.parse_bipartite(inp.text)
        return layers.classify.classify(graph, threads=threads, with_monodromy=with_monodromy)
    return run


def run_records(layers, inp, threads):
    graph = layers.bgraph.parse_bipartite(inp.text)
    report = layers.classify.classify(graph, threads=threads, with_monodromy=False)
    doc = layers.io.build_document(report)
    text = layers.io.serialize_document(doc, "json")
    return report, doc, text, layers.io.parse_report(text)


def run_genus(layers, inp, threads):
    plain = layers.bgraph.parse_plain(inp.text)
    return layers.graphgenus.genus_range(plain), layers.graphgenus.genus_histogram(plain)


# -- outputs reduced for checking (untimed) -------------------------------------

def summarize_records(out):
    """The report's tables, a compact view of the document, and the emitted
    text, which ``check_records`` reads back once ``out`` is freed."""
    report, doc, text, parsed = out
    summary = reference.summarize_report(report)
    summary["document"] = reference.document_view(doc.data, parsed.data)
    summary["text"] = text
    return summary


def summarize_genus(out):
    result, histogram = out
    return {"mu": result.mu, "nu": result.nu,
            "witness_min": reference.table_of(result.witness_min),
            "witness_max": reference.table_of(result.witness_max),
            "tau": reference.table_of(result.tau), "histogram": dict(histogram)}


def check_monodromy(inp, summary):
    return reference.check_classification(inp, summary, with_monodromy=True)


def check_census(inp, summary):
    return reference.check_classification(inp, summary, with_monodromy=False)


def check_records(inp, summary):
    # neither is kept with the stored summaries, which would raise the peak RSS
    text, view = summary.pop("text"), summary.pop("document")
    try:
        reference.check_document(view, text, summary)
    except reference.CheckFailed as exc:
        raise reference.CheckFailed(f"{inp.name}: {exc}") from None
    return check_census(inp, summary)


def monodromy_reference(inp, summary, rng):
    reference.check_monodromy_sample(inp.name, summary["records"], rng, 1)
    return reference.census_reference(inp, summary)


def census_reference(inp, summary, rng):
    return reference.census_reference(inp, summary)


def no_reference(inp, summary, rng):
    return None


# -- workloads -------------------------------------------------------------------

MONODROMY = ["a4_clean.bg", "k33.bg", "c33.bg", "d33.bg", "k33_clean.bg", "k5_clean.bg"]


def monodromy_inputs(rng, smoke):
    return [inputs.fixture(f, rng) for f in (MONODROMY[:2] if smoke else MONODROMY)]


def census_inputs(rng, smoke):
    if smoke:
        return [inputs.bundle(4, rng), inputs.fixture("k33.bg", rng)]
    return [inputs.bundle(6, rng), inputs.fixture("double_prism.bg", rng)]


def records_inputs(rng, smoke):
    return [inputs.fixture("a4_clean.bg" if smoke else "frucht_clean.bg", rng)]


def genus_inputs(rng, smoke):
    if smoke:
        return [inputs.fixture("k33.g", rng), inputs.fixture("c5.g", rng)]
    return [inputs.complete_bipartite_plain(3, 5, rng),
            inputs.fixture("k5.g", rng), inputs.fixture("frucht.g", rng)]


@dataclass(frozen=True)
class Workload:
    """``inputs(rng, smoke)`` gives one pass's inputs; ``run`` is timed.

    ``check(inp, summary)`` judges one output and returns its totals;
    ``reference(inp, summary, rng)`` computes, once per source graph,
    the totals every relabeling of that source must have (None: no such
    comparison).
    """

    inputs: Callable
    run: Callable
    summarize: Callable
    check: Callable
    reference: Callable
    threads: int = 1


WORKLOADS = {
    "monodromy": Workload(monodromy_inputs, run_classify(True), reference.summarize_report,
                          check_monodromy, monodromy_reference),
    "census": Workload(census_inputs, run_classify(False), reference.summarize_report,
                       check_census, census_reference),
    "census_2t": Workload(census_inputs, run_classify(False), reference.summarize_report,
                          check_census, census_reference, threads=2),
    "records": Workload(records_inputs, run_records, summarize_records, check_records,
                        census_reference),
    "genus": Workload(genus_inputs, run_genus, summarize_genus, reference.check_genus,
                      no_reference),
}


# -- measurement -----------------------------------------------------------------

PROBE_EVERY_S = 1.0


def setup_probe():
    """Seconds from spawning a fresh interpreter until ``import dessins`` returned."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, SRC], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
    if line != b"ready\n" or proc.returncode != 0:
        raise SystemExit("bench: set-up probe failed to import dessins")
    return t1 - t0


class Verdicts:
    """Every input of every pass, judged; a failure counts once per input run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.firsts = {}   # source -> (input, summary) of its first relabeling
        self.totals = {}   # source -> [(pass, totals)]

    def judge(self, n, inp, summary):
        self.attempted += 1
        try:
            totals = self.workload.check(inp, summary)
        except reference.CheckFailed as exc:
            self.failures.append(f"pass {n}: {exc}")
            return
        except Exception as exc:  # a malformed output breaks its check
            self.failures.append(f"pass {n}: {inp.name}: check raised {type(exc).__name__}: {exc}")
            return
        self.firsts.setdefault(inp.name, (inp, summary))
        self.totals.setdefault(inp.name, []).append((n, totals))

    def raised(self, n, inp, exc):
        self.attempted += 1
        self.failures.append(f"pass {n}: {inp.name}: raised {type(exc).__name__}: {exc}")

    def compare_to_references(self, rng):
        for name, (inp, summary) in self.firsts.items():
            try:
                expected = self.workload.reference(inp, summary, rng)
            except reference.CheckFailed as exc:
                self.failures.extend(str(exc) for _ in self.totals[name])
                continue
            if expected is None:
                continue
            for n, totals in self.totals[name]:
                if totals != expected:
                    self.failures.append(f"pass {n}: {name}: totals {totals} != {expected}")


def measure(layers, workload, args, verdicts):
    """Passes until the next would overrun ``--seconds``; traced runs alternate.

    Each pass runs fresh relabelings (seeded by the run's seed and the pass
    number), so a run's median spans many labelings.  Only ``workload.run``
    is timed; summarizing and checking happen between the timed calls.
    Untraced runs also take a set-up probe at the start and then, between
    inputs, one per ``PROBE_EVERY_S`` elapsed (at most three at a time), so
    that the set-up samples, like the passes, span several phases of the
    host's speed.  Returns the pass
    walls keyed by traced-or-not, the set-up samples and the tracer.
    """
    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    setup = []
    if not args.trace:
        setup_probe()  # warm-up, not sampled
        setup.append(setup_probe())
    last_probe = start = perf_counter()
    n = 0
    while True:
        items = workload.inputs(random.Random(f"{args.seed}:{n}"), args.smoke)
        traced = bool(args.trace) and n % 2 == 1
        if traced:
            tracer.install(layers)
        wall = 0.0
        try:
            for inp in items:
                if tracer:
                    tracer.input_id = f"{inp.name}#{n}"
                t0 = perf_counter()
                try:
                    out = workload.run(layers, inp, workload.threads)
                except Exception as exc:  # counted as a failed input
                    wall += perf_counter() - t0
                    verdicts.raised(n, inp, exc)
                    continue
                wall += perf_counter() - t0
                summary = workload.summarize(out)
                del out  # checks that allocate much run after the outputs are freed
                verdicts.judge(n, inp, summary)
                due = 0 if args.trace else int((perf_counter() - last_probe) / PROBE_EVERY_S)
                if due:
                    setup.extend(setup_probe() for _ in range(min(due, 3)))
                    last_probe = perf_counter()
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        n += 1
        typical = statistics.median(walls[False] + walls[True])
        if perf_counter() - start + typical > args.seconds and (not args.trace or n >= 2):
            return walls, setup, tracer


def peak_rss_mb():
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def context(layers, args, walls, setup):
    lines = 0
    pkg = os.path.join(SRC, "dessins")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    bundle7 = layers.bgraph.parse_bipartite(inputs.bundle(7, random.Random(0)).text)
    n7 = bundle7.candidate_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "inputs": [inp.name for inp in WORKLOADS[args.workload].inputs(random.Random(0), args.smoke)],
        "threads": WORKLOADS[args.workload].threads,
        "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
        "setup_samples_s": setup,
        "src_dessins_lines": lines, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        # computed, not run: the candidate budget admits this census
        "bundle7_candidates": n7, "bundle7_conjugations_naive": n7 * factorial(7),
        "bundle7_within_budget": n7 <= layers.classify.DEFAULT_BUDGET,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs")
    args = parser.parse_args(argv)

    layers = load_layers()
    workload = WORKLOADS[args.workload]
    verdicts = Verdicts(workload)
    walls, setup, tracer = measure(layers, workload, args, verdicts)
    rss = peak_rss_mb()
    verdicts.compare_to_references(random.Random(f"sample:{args.seed}"))
    attempted, failures = verdicts.attempted, verdicts.failures

    if args.trace:
        traced_walls = walls[True]
        metrics = spans.layer_metrics(tracer.spans, len(traced_walls), sum(traced_walls))
        metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls[False]), "s")
        metrics["fail_ratio"] = (len(failures) / attempted, "ratio")
        out_dir = os.path.join(BENCH, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    info = context(layers, args, walls, setup)
    info["failures"] = failures[:20]
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
