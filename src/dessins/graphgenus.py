"""Exact minimum and maximum 2-cell embedding genus of a plain multigraph.

Subdividing every edge with a white midpoint leaves a single tau (pairing
the two half-edges of each original edge), so embeddings correspond
one-to-one with choices of sigma.  With e original edges, alpha vertices
and gamma faces, Euler's formula for the subdivided dessin (2e edges,
alpha + e vertices) collapses to g = 1 + (e - alpha - gamma) / 2, which is
the form implemented here; the minimum genus pairs with the maximum face
count and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bgraph import cleanify
from .perm import Permutation
from .rotation import _Radix, _pair_stream

DEFAULT_GENUS_BUDGET = 10**7


class GenusBudgetError(RuntimeError):
    def __init__(self, count, budget):
        super().__init__(
            f"{count} rotation systems exceed budget {budget}; "
            "exact search refused"
        )
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class GenusRange:
    mu: int
    nu: int
    gamma_max: int
    gamma_min: int
    witness_min: Permutation
    witness_max: Permutation
    clean: object
    tau: Permutation


def _cycle_count(table):
    n = len(table)
    seen = bytearray(n)
    count = 0
    for i in range(n):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = table[j]
    return count


def _scan(plain, budget):
    clean = cleanify(plain)
    total = clean.candidate_count()
    if total > budget:
        raise GenusBudgetError(total, budget)
    e = len(plain.edges)
    alpha = len(plain.vertices)
    n = clean.e
    hist = {}
    best = {}
    tau_bytes = None
    pad = bytes(range(n, 256))
    for sigma, tau in _pair_stream(_Radix(clean), 0, total, raw=True):
        if tau_bytes is None:
            tau_bytes = tau
        gamma = _cycle_count(tau.translate(sigma + pad))
        defect = e - alpha - gamma
        if defect % 2:
            raise AssertionError(f"odd Euler defect {defect}")
        genus = 1 + defect // 2
        hist[genus] = hist.get(genus, 0) + 1
        if gamma not in best:
            best[gamma] = sigma
    return clean, tau_bytes, hist, best


def genus_range(plain, budget=DEFAULT_GENUS_BUDGET):
    """Minimum and maximum embedding genus with witness rotation systems."""
    clean, tau_bytes, hist, best = _scan(plain, budget)
    n = clean.e
    gamma_max = max(best)
    gamma_min = min(best)
    return GenusRange(
        mu=min(hist),
        nu=max(hist),
        gamma_max=gamma_max,
        gamma_min=gamma_min,
        witness_min=Permutation._from_table(best[gamma_max], n),
        witness_max=Permutation._from_table(best[gamma_min], n),
        clean=clean,
        tau=Permutation._from_table(tau_bytes, n),
    )


def genus_histogram(plain, budget=DEFAULT_GENUS_BUDGET):
    """Count of rotation systems per genus (not up to isomorphism)."""
    _, _, hist, _ = _scan(plain, budget)
    return dict(sorted(hist.items()))
