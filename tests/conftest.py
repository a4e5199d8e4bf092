import os
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import dessins
from dessins import canonical_form, classify, parse_bipartite, parse_cycles, parse_plain
from dessins.rotation import RotationPair

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def record_for(report, sigma_str, tau_str, group=None):
    """The classification record whose orbit contains the given pair."""
    graph = report.graph
    pair = RotationPair(
        parse_cycles(sigma_str, graph.e), parse_cycles(tau_str, graph.e), graph
    )
    grp = group if group is not None else report.theta
    canon = canonical_form(pair, grp)
    for rec in report.records:
        if (rec.representative.sigma, rec.representative.tau) == (
            canon.sigma,
            canon.tau,
        ):
            return rec
    raise AssertionError("pair not found in any orbit")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), "r", encoding="utf-8") as fh:
        return fh.read()


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_bipartite(name):
    return parse_bipartite(fixture_text(name))


def load_plain(name):
    return parse_plain(fixture_text(name))


def star_text(leaves):
    """A star: one black centre joined to ``leaves`` white leaves."""
    lines = ["black c", "white " + " ".join(f"w{i}" for i in range(leaves))]
    lines += [f"edge c w{i}" for i in range(leaves)]
    return "\n".join(lines) + "\n"


def complete_bipartite_text(m, n):
    """K_{m,n}, edges labeled row by row."""
    lines = ["black " + " ".join(f"b{i}" for i in range(m)),
             "white " + " ".join(f"w{j}" for j in range(n))]
    lines += [f"edge b{i} w{j}" for i in range(m) for j in range(n)]
    return "\n".join(lines) + "\n"


def run_capped(code):
    """Run ``code`` in a child interpreter with its address space capped at 3 GB.

    Under the cap a runaway allocation ends the child with MemoryError
    instead of exhausting the host.  Returns the child's exit code and its
    stdout and stderr as text.
    """
    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(dessins.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9)),
    )
    return proc.returncode, proc.stdout, proc.stderr


class TimedReport:
    def __init__(self, report, seconds):
        self.report = report
        self.seconds = seconds
        self.records = report.records

    def __getattr__(self, name):
        return getattr(self.report, name)


def _timed_classify(name, **kw):
    graph = load_bipartite(name)
    t0 = time.monotonic()
    report = classify(graph, **kw)
    return TimedReport(report, time.monotonic() - t0)


# the report fixture of each fixtures/*.bg but bundle6, k44 and star6;
# Frucht without monodromy leaves its monodromy orders None
EVERY_BG_REPORT = [
    "a4_report", "c33_report", "d33_report", "dp_report",
    "frucht_light_report", "k33_report", "k33_clean_report", "k5_report",
]


@pytest.fixture(scope="session")
def a4_report():
    return _timed_classify("a4_clean.bg")


@pytest.fixture(scope="session")
def k33_clean_report():
    return _timed_classify("k33_clean.bg")


@pytest.fixture(scope="session")
def k33_report():
    return _timed_classify("k33.bg")


@pytest.fixture(scope="session")
def d33_report():
    return _timed_classify("d33.bg")


@pytest.fixture(scope="session")
def c33_report():
    return _timed_classify("c33.bg")


@pytest.fixture(scope="session")
def k5_report():
    return _timed_classify("k5_clean.bg", threads=2)


@pytest.fixture(scope="session")
def frucht_light_report():
    return _timed_classify("frucht_clean.bg", threads=2, with_monodromy=False)


@pytest.fixture(scope="session")
def dp_report():
    return _timed_classify("double_prism.bg", threads=4)


@pytest.fixture(scope="session")
def dp_drawing_report(dp_report):
    """The census up to the drawing's order-8 symmetry subgroup only."""
    from dessins import group_from_generators
    import corpus

    sub = group_from_generators(
        [
            parse_cycles(corpus.DOUBLE_PRISM["drawing_rotation"], 24),
            parse_cycles(corpus.DOUBLE_PRISM["drawing_flip"], 24),
        ]
    )
    graph = dp_report.graph
    t0 = time.monotonic()
    report = classify(graph, threads=4, group=sub, with_monodromy=False)
    return TimedReport(report, time.monotonic() - t0)
