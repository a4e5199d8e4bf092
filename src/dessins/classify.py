"""Partition the rotation pairs of a graph into conjugation orbits.

Two pairs define isomorphic dessins exactly when some edge-acting graph
automorphism conjugates one to the other, so the isomorphism classes are
the orbits of the edge-action group.  Each pair is canonicalized to the
lexicographically least conjugate; counting pairs per canonical key yields
orbit lengths, and the stabilizer of a representative is the dessin's
orientation-preserving automorphism group.

The map phase is a deterministic map-reduce over contiguous chunks of the
pinned enumeration order; output never depends on the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from .bgraph import BipartiteGraph, EdgeActionGroup, automorphism_group
from .dessin import invariants, dualizable_oracle, wilson
from .perm import Permutation, _IDENT256
from .permgroup import PermGroup, DEFAULT_ELEMENTS_CAP
from .rotation import RotationPair, _pair_stream, chunk_bounds

DEFAULT_BUDGET = 10**7

MIRROR_REFLEXIVE = "reflexive"
MIRROR_CHIRAL = "chiral"


class BudgetExceededError(RuntimeError):
    def __init__(self, count, budget):
        super().__init__(
            f"candidate count {count} exceeds budget {budget}"
        )
        self.count = count
        self.budget = budget


class InternalInvariantError(AssertionError):
    """A structural guarantee failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class DessinRecord:
    orbit_id: int
    representative: RotationPair
    orbit_length: int
    aut_order: int
    aut_generators: tuple
    invariants: object
    mirror_status: str
    mirror_partner: int | None


@dataclass(frozen=True)
class ClassificationReport:
    graph: BipartiteGraph
    group: EdgeActionGroup | None
    theta: PermGroup
    group_order: int
    candidate_count: int
    records: tuple
    genus_histogram: dict
    dualizable_histogram: dict


# -- the action -------------------------------------------------------------

def act(phi_edge, pair):
    """Conjugate both rotations by an edge-acting automorphism."""
    return RotationPair(
        pair.sigma.conjugate(phi_edge),
        pair.tau.conjugate(phi_edge),
        pair.graph,
    )


def _theta_elements(group, cap):
    theta = group.theta if isinstance(group, EdgeActionGroup) else group
    elems = []
    for p in theta.elements(cap=cap):
        elems.append((p._table, p.inverse()._table))
    return theta, elems


def _canonical_key(sigma_t, tau_t, elems, e):
    pad = _IDENT256[e:]
    st = sigma_t[:e] + pad
    tt = tau_t[:e] + pad
    return min(
        (gi[:e].translate(st).translate(g), gi[:e].translate(tt).translate(g))
        for g, gi in elems
    )


def canonical_form(pair, group, cap=DEFAULT_ELEMENTS_CAP):
    """The lexicographically least conjugate pair; constant on each orbit."""
    _, elems = _theta_elements(group, cap)
    e = pair.sigma.degree
    best_s = best_t = None
    pad = _IDENT256[e:]
    st = pair.sigma._table[:e] + pad
    tt = pair.tau._table[:e] + pad
    for g, gi in elems:
        cs = gi[:e].translate(st).translate(g)
        ct = gi[:e].translate(tt).translate(g)
        if best_s is None or (cs, ct) < (best_s, best_t):
            best_s, best_t = cs, ct
    return RotationPair(
        Permutation._from_table(best_s, e),
        Permutation._from_table(best_t, e),
        pair.graph,
    )


def stabilizer(pair, group, cap=DEFAULT_ELEMENTS_CAP):
    """Elements of the edge-action group fixing the pair, as a group."""
    theta, elems = _theta_elements(group, cap)
    e = pair.sigma.degree
    pad = _IDENT256[e:]
    st = pair.sigma._table[:e] + pad
    tt = pair.tau._table[:e] + pad
    fixing = []
    for g, gi in elems:
        if (
            gi[:e].translate(st).translate(g) == st[:e]
            and gi[:e].translate(tt).translate(g) == tt[:e]
        ):
            fixing.append(Permutation._from_table(g, e))
    return PermGroup([g for g in fixing if not g.is_identity()], degree=e)


# -- census map-reduce --------------------------------------------------------

def _census_worker(args):
    graph_parts, elems, start, stop, tau_fixed = args
    graph = BipartiteGraph(*graph_parts)
    e = graph.e
    pad = _IDENT256[e:]
    conjs = [(gi[:e], g) for g, gi in elems]
    counts = {}
    if tau_fixed:
        for s, _ in _pair_stream(graph, start, stop, raw=True):
            st = s + pad
            key = min(grow.translate(st).translate(g) for grow, g in conjs)
            counts[key] = counts.get(key, 0) + 1
    else:
        for s, t in _pair_stream(graph, start, stop, raw=True):
            st = s + pad
            tt = t + pad
            key = min(
                (grow.translate(st).translate(g), grow.translate(tt).translate(g))
                for grow, g in conjs
            )
            counts[key] = counts.get(key, 0) + 1
    return counts


def _orbit_census(graph, elems, threads, tau_fixed, first_tau):
    """Canonical key -> orbit length, merged over workers deterministically."""
    total = graph.candidate_count()
    graph_parts = (graph.blacks, graph.whites, graph.edges)
    jobs = [
        (graph_parts, elems, start, stop, tau_fixed)
        for start, stop in chunk_bounds(total, max(1, min(threads, total)))
        if start < stop
    ]
    # chunking follows ``threads``; the workers are bounded by the cores and
    # the chunk count, so a large ``threads`` forks no more than can run
    processes = min(threads, os.cpu_count() or 1, len(jobs))
    if processes <= 1:
        results = [_census_worker(job) for job in jobs]
    else:
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            results = pool.map(_census_worker, jobs)
    merged = {}
    for part in results:
        for key, n in part.items():
            merged[key] = merged.get(key, 0) + n
    if sum(merged.values()) != total:
        raise InternalInvariantError("census lost or duplicated pairs")
    if tau_fixed:
        return {(key, first_tau): n for key, n in merged.items()}
    return merged


def classify(
    graph,
    *,
    threads=1,
    budget=DEFAULT_BUDGET,
    elements_cap=DEFAULT_ELEMENTS_CAP,
    duality_oracle=False,
    group=None,
    with_monodromy=True,
):
    """One DessinRecord per isomorphism class of dessins over ``graph``.

    ``group`` overrides the edge-action group (a PermGroup on labels); the
    default is the full color-preserving automorphism group.  Budget refuses
    oversized enumerations up front.  ``with_monodromy=False`` leaves the
    monodromy fields of every record None and skips the Schreier-Sims
    builds of the monodromy groups that are not certified giants.
    """
    total = graph.candidate_count()
    if total > budget:
        raise BudgetExceededError(total, budget)
    if group is None:
        group = automorphism_group(graph)
    theta, elems = _theta_elements(group, elements_cap)
    e = graph.e
    group_order = len(elems)

    # white degrees <= 2 leave a single tau, necessarily group-invariant
    first = next(_pair_stream(graph, 0, 1, raw=True))
    tau_fixed = all(len(labels) <= 2 for labels in graph.white_labels.values())
    if tau_fixed:
        pad = _IDENT256[e:]
        tt = first[1] + pad
        for g, gi in elems:
            if gi[:e].translate(tt).translate(g) != first[1]:
                raise InternalInvariantError("unique tau moved by the group")

    census = _orbit_census(graph, elems, threads, tau_fixed, first[1])

    records = []
    key_to_orbit = {key: i for i, key in enumerate(sorted(census))}
    pad = _IDENT256[e:]
    mirror_keys = []
    for key in sorted(census):
        skey, tkey = key
        orbit_id = key_to_orbit[key]
        orbit_length = census[key]
        sigma = Permutation._from_table(skey, e)
        tau = Permutation._from_table(tkey, e)
        pair = RotationPair(sigma, tau, graph)
        st, tt = skey + pad, tkey + pad
        fixing = [
            Permutation._from_table(g, e)
            for g, gi in elems
            if gi[:e].translate(st).translate(g) == skey
            and gi[:e].translate(tt).translate(g) == tkey
        ]
        aut_order = len(fixing)
        if orbit_length * aut_order != group_order:
            raise InternalInvariantError(
                f"orbit-stabilizer mismatch at orbit {orbit_id}: "
                f"{orbit_length} * {aut_order} != {group_order}"
            )
        inv = invariants(pair, with_monodromy=with_monodromy)
        if duality_oracle:
            oracle = dualizable_oracle(pair, cap=elements_cap)
            if oracle != inv.dualizable:
                raise InternalInvariantError(
                    f"duality oracle disagrees at orbit {orbit_id}"
                )
        mirror_keys.append(
            _canonical_key(sigma.inverse()._table, tau.inverse()._table, elems, e)
        )
        records.append(
            DessinRecord(
                orbit_id=orbit_id,
                representative=pair,
                orbit_length=orbit_length,
                aut_order=aut_order,
                aut_generators=tuple(g for g in fixing if not g.is_identity()),
                invariants=inv,
                mirror_status=MIRROR_REFLEXIVE,
                mirror_partner=None,
            )
        )

    finished = []
    for rec, mkey in zip(records, mirror_keys):
        partner = key_to_orbit.get(mkey)
        if partner is None:
            raise InternalInvariantError(
                f"mirror of orbit {rec.orbit_id} left the family"
            )
        if partner == rec.orbit_id:
            finished.append(rec)
        else:
            finished.append(
                DessinRecord(
                    orbit_id=rec.orbit_id,
                    representative=rec.representative,
                    orbit_length=rec.orbit_length,
                    aut_order=rec.aut_order,
                    aut_generators=rec.aut_generators,
                    invariants=rec.invariants,
                    mirror_status=MIRROR_CHIRAL,
                    mirror_partner=partner,
                )
            )

    genus_histogram = {}
    dualizable_histogram = {}
    for rec in finished:
        g = rec.invariants.genus
        genus_histogram[g] = genus_histogram.get(g, 0) + 1
        if g not in dualizable_histogram:
            dualizable_histogram[g] = 0
        if rec.invariants.dualizable:
            dualizable_histogram[g] += 1

    return ClassificationReport(
        graph=graph,
        group=group if isinstance(group, EdgeActionGroup) else None,
        theta=theta,
        group_order=group_order,
        candidate_count=total,
        records=tuple(finished),
        genus_histogram=dict(sorted(genus_histogram.items())),
        dualizable_histogram=dict(sorted(dualizable_histogram.items())),
    )


def wilson_orbit_targets(report, r, s, cap=DEFAULT_ELEMENTS_CAP):
    """Map each orbit to the orbit hit by the (r, s) power operation."""
    _, elems = _theta_elements(report.theta, cap)
    e = report.graph.e
    key_to_orbit = {
        (
            rec.representative.sigma._table[:e],
            rec.representative.tau._table[:e],
        ): rec.orbit_id
        for rec in report.records
    }
    targets = {}
    for rec in report.records:
        image = wilson(rec.representative, r, s)
        key = _canonical_key(image.sigma._table, image.tau._table, elems, e)
        if key not in key_to_orbit:
            raise InternalInvariantError(
                f"power operation left the family at orbit {rec.orbit_id}"
            )
        targets[rec.orbit_id] = key_to_orbit[key]
    return targets
