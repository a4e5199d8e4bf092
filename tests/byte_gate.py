"""Byte gate: sha256 digests of stdout for a fixed matrix of runs.

The matrix covers ``dessins classify`` on the six small ``.bg`` fixtures in
every ``--emit`` format, with and without ``--wilson 1,1``;
``genus-range --histogram`` on every ``.g`` fixture, K6 with a budget that
admits its 24^6 rotation systems; ``autgroup`` on every ``.bg`` fixture,
the 6-edge bundle's pinning the swap and cycle of a parallel class;
``classify --emit json`` on the 6-leaf star, whose
5 listed stabilizer elements pin their order by table on a dense group
(``autgroup star6.bg`` pins its 719 generators), and on the 6-edge
bundle, whose 14400 pairs under |G| = 720 pin the census on a dense group
with one rank group per side, and on the double prism, whose 1042 monodromy
orders pin the Schreier-Sims builds and the giant certificate; ``analyze`` on the
first three records of each small fixture, on one pair that is not a
rotation system of its graph, and on three spellings of k33's first record
that only the character walk of ``parse_cycles`` reads (spaced, a label past
e, a leading zero); the library JSON of ``frucht_clean`` and
``double_prism`` without monodromy; and the library CSV and table of
``frucht_clean`` without monodromy, so every ``--emit`` format is pinned on
a graph with many records.
Each entry pins the exit code and the sha256 of the output text encoded as
UTF-8.

    PYTHONPATH=src python tests/byte_gate.py [--threads N]   # compare
    PYTHONPATH=src python tests/byte_gate.py --write         # regenerate

Regenerate only when a change of output bytes is intended.
"""

import argparse
import functools
import hashlib
import io
import json
import os
import sys

from dessins import classify, format_cycles, parse_bipartite, serialize_report
from dessins.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
DIGESTS = os.path.join(os.path.dirname(__file__), "byte_digests.json")

SMALL_BG = ("a4_clean", "c33", "d33", "k33", "k33_clean", "k5_clean")
ALL_BG = SMALL_BG + ("bundle6", "double_prism", "frucht_clean", "k44", "star6")
PLAIN = ("c3", "c5", "frucht", "k33", "k5")
LIBRARY_JSON = ("frucht_clean", "double_prism")
LIBRARY_TEXT = (("frucht_clean", "csv"), ("frucht_clean", "table"))
# k33's first record in text that format_cycles would not write
_K33_TEXTS = (
    ("spaced pair", " (1, 2,3) ( 4,5,6)(7 ,8,9) ", "(1,4,7)\t(2,5,8) (3,6,9)"),
    ("label past e", "(1,2,10)(4,5,6)(7,8,9)", "(1,4,7)(2,5,8)(3,6,9)"),
    ("leading-zero label", "(01,2,3)(4,5,6)(7,8,9)", "(1,4,7)(2,5,8)(3,6,9)"),
)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue()


def _classify(name, threads):
    with open(os.path.join(FIXTURES, name + ".bg"), encoding="utf-8") as fh:
        graph = parse_bipartite(fh.read())
    return classify(graph, threads=threads, with_monodromy=False)


def _library(name, threads, fmt="json"):
    return 0, serialize_report(_classify(name, threads), fmt)


@functools.lru_cache(maxsize=None)
def _first_pairs(name):
    """The (sigma, tau) text of the first three records of a fixture."""
    return [
        (format_cycles(rec.representative.sigma), format_cycles(rec.representative.tau))
        for rec in _classify(name, 1).records[:3]
    ]


def _analyze(name, i):
    sigma, tau = _first_pairs(name)[i]
    path = os.path.join(FIXTURES, name + ".bg")
    return _cli(["analyze", path, "--sigma", sigma, "--tau", tau])


def cases(threads=1):
    """``(name, run)`` pairs; ``run()`` returns the exit code and stdout text."""
    for name in SMALL_BG:
        path = os.path.join(FIXTURES, name + ".bg")
        for emit in ("json", "csv", "table"):
            for wilson in ((), ("--wilson", "1,1")):
                argv = ["classify", path, "--emit", emit, "--threads", str(threads), *wilson]
                label = f"classify {name}.bg --emit {emit}" + (" --wilson 1,1" if wilson else "")
                yield label, lambda argv=argv: _cli(argv)
    argv = ["classify", os.path.join(FIXTURES, "star6.bg"), "--emit", "json",
            "--threads", str(threads)]
    yield "classify star6.bg --emit json", lambda argv=argv: _cli(argv)
    argv = ["classify", os.path.join(FIXTURES, "bundle6.bg"), "--emit", "json",
            "--threads", str(threads)]
    yield "classify bundle6.bg --emit json", lambda argv=argv: _cli(argv)
    argv = ["classify", os.path.join(FIXTURES, "double_prism.bg"), "--emit", "json",
            "--threads", str(threads)]
    yield "classify double_prism.bg --emit json", lambda argv=argv: _cli(argv)
    for name in PLAIN:
        argv = ["genus-range", os.path.join(FIXTURES, name + ".g"), "--histogram"]
        yield f"genus-range {name}.g --histogram", lambda argv=argv: _cli(argv)
    argv = ["genus-range", os.path.join(FIXTURES, "k6.g"), "--histogram",
            "--budget", str(24**6)]
    yield f"genus-range k6.g --histogram --budget {24**6}", lambda argv=argv: _cli(argv)
    for name in ALL_BG:
        argv = ["autgroup", os.path.join(FIXTURES, name + ".bg")]
        yield f"autgroup {name}.bg", lambda argv=argv: _cli(argv)
    for name in SMALL_BG:
        for i in range(3):
            yield f"analyze {name}.bg record {i}", lambda name=name, i=i: _analyze(name, i)
    # the identity pair puts no rotation at a vertex of degree 3
    argv = ["analyze", os.path.join(FIXTURES, "k33.bg"), "--sigma", "()", "--tau", "()"]
    yield "analyze k33.bg refused pair", lambda argv=argv: _cli(argv)
    # text that is not plain goes through the character walk
    for label, sigma, tau in _K33_TEXTS:
        argv = ["analyze", os.path.join(FIXTURES, "k33.bg"), "--sigma", sigma, "--tau", tau]
        yield f"analyze k33.bg {label}", lambda argv=argv: _cli(argv)
    for name in LIBRARY_JSON:
        yield f"library json {name}.bg", lambda name=name: _library(name, threads)
    for name, fmt in LIBRARY_TEXT:
        yield f"library {fmt} {name}.bg", lambda name=name, fmt=fmt: _library(name, threads, fmt)


def digest(run):
    code, text = run()
    return {"exit": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def compute(threads=1):
    return {name: digest(run) for name, run in cases(threads)}


def load():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="regenerate the digest file")
    args = parser.parse_args(argv)
    digests = compute(args.threads)
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
        return 0
    pinned = load()
    bad = sorted(name for name in pinned if digests.get(name) != pinned[name])
    bad += sorted(set(digests) - set(pinned))
    for name in bad:
        print(f"MISMATCH {name}: {digests.get(name)} != {pinned.get(name)}")
    print(f"{len(digests) - len(bad)} of {len(digests)} digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main())
