"""Byte gate: sha256 digests of stdout for a fixed matrix of runs.

The matrix covers ``dessins classify`` on the six small ``.bg`` fixtures in
every ``--emit`` format, with and without ``--wilson 1,1``;
``genus-range --histogram`` on every ``.g`` fixture but K6; and the library
JSON of ``frucht_clean`` and ``double_prism`` without monodromy.  Each entry
pins the exit code and the sha256 of the output text encoded as UTF-8.

    PYTHONPATH=src python tests/byte_gate.py [--threads N]   # compare
    PYTHONPATH=src python tests/byte_gate.py --write         # regenerate

Regenerate only when a change of output bytes is intended.
"""

import argparse
import hashlib
import io
import json
import os
import sys

from dessins import classify, parse_bipartite, serialize_report
from dessins.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
DIGESTS = os.path.join(os.path.dirname(__file__), "byte_digests.json")

SMALL_BG = ("a4_clean", "c33", "d33", "k33", "k33_clean", "k5_clean")
PLAIN = ("c3", "c5", "frucht", "k33", "k5")
LIBRARY_JSON = ("frucht_clean", "double_prism")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue()


def _library_json(name, threads):
    with open(os.path.join(FIXTURES, name + ".bg"), encoding="utf-8") as fh:
        graph = parse_bipartite(fh.read())
    report = classify(graph, threads=threads, with_monodromy=False)
    return 0, serialize_report(report, "json")


def cases(threads=1):
    """``(name, run)`` pairs; ``run()`` returns the exit code and stdout text."""
    for name in SMALL_BG:
        path = os.path.join(FIXTURES, name + ".bg")
        for emit in ("json", "csv", "table"):
            for wilson in ((), ("--wilson", "1,1")):
                argv = ["classify", path, "--emit", emit, "--threads", str(threads), *wilson]
                label = f"classify {name}.bg --emit {emit}" + (" --wilson 1,1" if wilson else "")
                yield label, lambda argv=argv: _cli(argv)
    for name in PLAIN:
        argv = ["genus-range", os.path.join(FIXTURES, name + ".g"), "--histogram"]
        yield f"genus-range {name}.g --histogram", lambda argv=argv: _cli(argv)
    for name in LIBRARY_JSON:
        yield f"library json {name}.bg", lambda name=name: _library_json(name, threads)


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
