"""Brute-force oracle for the exact genus search of ``dessins.graphgenus``.

``brute_force`` walks every rotation system of the subdivided graph in the
pinned stream order and counts the faces of each from scratch, so it shares
nothing with the search but the subdivision and the stream.  Both
functions return the same summary: the range, both witnesses (the first
system in stream order with the most and with the fewest faces) and tau as
0-based byte tables, and the histogram.
"""

from collections import Counter

from dessins import cleanify, genus_histogram, genus_range
from dessins.rotation import _Radix


def _cycle_count(table):
    seen = bytearray(len(table))
    count = 0
    for i in range(len(table)):
        if not seen[i]:
            count += 1
            while not seen[i]:
                seen[i] = 1
                i = table[i]
    return count


def brute_force(plain):
    clean = cleanify(plain)
    n = clean.e
    pad = bytes(range(n, 256))
    e, alpha = len(plain.edges), len(plain.vertices)
    hist = Counter()
    first = {}
    tau_table = None
    radix = _Radix(clean)
    for index in range(radix.total):
        sigma, tau = radix.unrank(index)
        tau_table = tau
        gamma = _cycle_count(tau.translate(sigma + pad))
        defect = e - alpha - gamma
        assert defect % 2 == 0, f"odd Euler defect {defect}"
        hist[1 + defect // 2] += 1
        first.setdefault(gamma, sigma)
    return {
        "mu": min(hist),
        "nu": max(hist),
        "gamma_max": max(first),
        "gamma_min": min(first),
        "witness_min": first[max(first)],
        "witness_max": first[min(first)],
        "tau": tau_table,
        "histogram": dict(sorted(hist.items())),
    }


def search(plain):
    result = genus_range(plain)
    n = result.clean.e
    return {
        "mu": result.mu,
        "nu": result.nu,
        "gamma_max": result.gamma_max,
        "gamma_min": result.gamma_min,
        "witness_min": result.witness_min._table[:n],
        "witness_max": result.witness_max._table[:n],
        "tau": result.tau._table[:n],
        "histogram": genus_histogram(plain),
    }
