"""Streaming enumeration of all rotation-system pairs (sigma, tau) of a graph.

The stream order is pinned: one mixed-radix counter over per-vertex rotation
indices, black vertices varying fastest, each vertex's rotations in
lexicographic order with the smallest incident label held first.  A pair's
index in that order is its rank; ``_Radix.rank`` computes it from the
pair's tables, and ``_pair_stream(radix, i, i + 1)`` unranks it.  Any
partition of the index range into slices (``chunk_bounds``) replays the
exact same pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .perm import Permutation


@dataclass(frozen=True)
class LocalRotation:
    """Cyclic order of the labels at one vertex, starting at the least label."""

    vertex: object
    cycle: tuple


@dataclass(frozen=True)
class RotationPair:
    """One candidate dessin: sigma collects black rotations, tau white ones."""

    sigma: Permutation
    tau: Permutation
    graph: object


def _cycles_at(labels):
    """All cyclic orders of ``labels`` with the least label first, lex order."""
    labels = sorted(labels)
    if len(labels) == 1:
        return [tuple(labels)]
    return [(labels[0],) + rest for rest in itertools.permutations(labels[1:])]


def local_rotations(graph, vertex):
    """The (deg-1)! local rotations at a vertex, in the pinned order."""
    labels = graph.incident_labels(vertex)
    if not labels:
        raise ValueError(f"unknown vertex {vertex!r}")
    return [LocalRotation(vertex, cyc) for cyc in _cycles_at(labels)]


class _Radix:
    """Per-vertex rotation tables and the mixed-radix pair indexing."""

    def __init__(self, graph):
        self.graph = graph
        self.black_opts = [_cycles_at(graph.black_labels[v]) for v in graph.blacks]
        self.white_opts = [_cycles_at(graph.white_labels[v]) for v in graph.whites]
        self.opts = self.black_opts + self.white_opts
        self.total = 1
        places = []
        for o in self.opts:
            places.append(_place(o, self.total) if len(o) > 1 else None)
            self.total *= len(o)
        nblack = len(self.black_opts)
        # vertices with a single rotation add 0 to every rank
        self._black_places = [p for p in places[:nblack] if p]
        self._white_places = [p for p in places[nblack:] if p]

    def rank(self, s, t):
        """The stream index of the pair of 0-based tables (s, t).

        Raises KeyError when the labels at some vertex do not form one of
        its rotations, that is, when (s, t) is not in the family.
        """
        index = 0
        for get, d in self._black_places:
            index += d[get(s)]
        for get, d in self._white_places:
            index += d[get(t)]
        return index

    def digits(self, index):
        out = []
        for o in self.opts:
            out.append(index % len(o))
            index //= len(o)
        return out


def _place(opts, radix):
    """One vertex's term of the rank: (getter, images -> digit * radix).

    The getter reads the 0-based images of the vertex's labels, which name
    its rotation; the vertex has at least three labels, so it is a tuple.
    """
    labels = sorted(opts[0])
    table = {}
    for digit, cycle in enumerate(opts):
        succ = {a: b for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        table[tuple(succ[l] - 1 for l in labels)] = digit * radix
    return itemgetter(*(l - 1 for l in labels)), table


def _apply_cycle(table, cycle):
    for i, label in enumerate(cycle):
        table[label - 1] = cycle[(i + 1) % len(cycle)] - 1


def _pair_stream(radix, start, stop, raw=False):
    if not (0 <= start <= stop <= radix.total):
        raise ValueError(f"range [{start}, {stop}) outside [0, {radix.total})")
    if start == stop:
        return
    graph = radix.graph
    e = graph.e
    nblack = len(radix.black_opts)
    digits = radix.digits(start)

    sigma = bytearray(range(e))
    tau = bytearray(range(e))
    for d, opts in zip(digits[:nblack], radix.black_opts):
        _apply_cycle(sigma, opts[d])
    for d, opts in zip(digits[nblack:], radix.white_opts):
        _apply_cycle(tau, opts[d])

    index = start
    while True:
        if raw:
            yield bytes(sigma), bytes(tau)
        else:
            yield RotationPair(
                Permutation._from_table(bytes(sigma), e),
                Permutation._from_table(bytes(tau), e),
                graph,
            )
        index += 1
        if index == stop:
            return
        # odometer step, black digits least significant
        for pos, opts in enumerate(radix.opts):
            digits[pos] += 1
            table = sigma if pos < nblack else tau
            if digits[pos] < len(opts):
                _apply_cycle(table, opts[digits[pos]])
                break
            digits[pos] = 0
            _apply_cycle(table, opts[0])


def enumerate_pairs(graph):
    """All candidate_count(graph) rotation pairs, in the pinned order."""
    return _pair_stream(_Radix(graph), 0, graph.candidate_count())


def chunk_bounds(total, chunk_index, chunk_count):
    """(start, stop) of the chunk_index-th of chunk_count slices of range(total)."""
    return chunk_index * total // chunk_count, (chunk_index + 1) * total // chunk_count


def membership_failure(graph, sigma, tau):
    """None if (sigma, tau) lies in the rotation family; else the offending vertex.

    Membership means: the labels at each black vertex form one sigma-cycle
    (so a degree-1 vertex's label is a fixed point), and likewise for tau at
    white vertices.
    """
    if sigma.degree != graph.e or tau.degree != graph.e:
        return "degree"
    for v in graph.blacks:
        if not _is_single_cycle(sigma, graph.black_labels[v]):
            return v
    for v in graph.whites:
        if not _is_single_cycle(tau, graph.white_labels[v]):
            return v
    return None


def _is_single_cycle(p, labels):
    lset = set(labels)
    start = labels[0]
    seen = set()
    x = start
    for _ in range(len(labels)):
        if x not in lset or x in seen:
            return False
        seen.add(x)
        x = p(x)
    return x == start and seen == lset
