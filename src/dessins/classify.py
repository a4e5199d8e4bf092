"""Partition the rotation pairs of a graph into conjugation orbits.

Two pairs define isomorphic dessins exactly when some edge-acting graph
automorphism conjugates one to the other, so the isomorphism classes are
the orbits of the edge-action group G.  The census is orderly orbit
enumeration in the spirit of McKay, "Isomorph-free exhaustive generation"
(J. Algorithms 1998): it keeps one mark per stream rank and jumps from
each unmarked rank to the next (``bytearray.find``), unranking only the
pair found there.  It takes that pair's lexicographically least conjugate
as the orbit's representative, conjugates the representative by every
element of G and marks the rank of each image.  The images equal to the
representative give its stabilizer, the dessin's orientation-preserving
automorphism group.  The work is a scan of N bytes of marks, one unrank
per orbit, N ranks and orbits * |G| conjugations.

When the monodromy groups are wanted, their Schreier-Sims builds dominate,
so the per-orbit invariants run in a fork pool over contiguous chunks of
the orbits; output never depends on the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from .bgraph import BipartiteGraph, EdgeActionGroup, _check_label_count, automorphism_group
from .dessin import invariants, dualizable_oracle, wilson
from .perm import Permutation, _IDENT256, _invert, format_cycles
from .permgroup import PermGroup
from .rotation import RotationPair, _Radix, _pair_from_tables, chunk_bounds

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

class _Action:
    """Conjugation g^-1 t g of label tables by every element g of a group.

    Each element is kept once, as the ``e`` image bytes of its inverse
    followed by its own 256-byte table, so one conjugate is
    ``ginv.translate(t).translate(g)`` and is ``e`` bytes long.
    """

    __slots__ = ("e", "pad", "elems")

    def __init__(self, elements, e):
        self.e = e
        self.pad = _IDENT256[e:]
        self.elems = []
        for g in elements:
            if g.degree != e:
                raise ValueError(f"degree mismatch: {e} != {g.degree}")
            self.elems.append((_invert(g._table, e)[:e], g._table))

    def images(self, t):
        """The conjugates of one table (of at least ``e`` bytes), in element order."""
        t = t[: self.e] + self.pad
        return [gi.translate(t).translate(g) for gi, g in self.elems]

    def pair_images(self, s, t):
        """The conjugates of the pair of tables (s, t), in element order."""
        return list(zip(self.images(s), self.images(t)))

    def least(self, s, t):
        """The least conjugate of the pair of tables (s, t)."""
        return min(self.pair_images(s, t))

    def fixing(self, images, key):
        """The stabilizer of ``key``, given its conjugates ``images``.

        Returns its order and its elements other than the identity, as
        permutations in element order.
        """
        tables = [g for (_, g), image in zip(self.elems, images) if image == key]
        return len(tables), tuple(
            Permutation._from_table(g, self.e) for g in tables if g != _IDENT256
        )

    def stabilizer(self, s, t):
        """The elements that fix the pair of tables (s, t), as a group."""
        s, t = s[: self.e], t[: self.e]
        _, generators = self.fixing(self.pair_images(s, t), (s, t))
        return PermGroup(generators, degree=self.e)


def _theta(group):
    return group.theta if isinstance(group, EdgeActionGroup) else group


def act(phi_edge, pair):
    """Conjugate both rotations by an edge-acting automorphism."""
    action = _Action([phi_edge], pair.sigma.degree)
    [s] = action.images(pair.sigma._table)
    [t] = action.images(pair.tau._table)
    return _pair_from_tables(s, t, pair.graph)


def canonical_form(pair, group):
    """The lexicographically least conjugate pair; constant on each orbit."""
    action = _Action(_theta(group).elements(), pair.sigma.degree)
    s, t = action.least(pair.sigma._table, pair.tau._table)
    return _pair_from_tables(s, t, pair.graph)


def stabilizer(pair, group):
    """Elements of the edge-action group fixing the pair, as a group."""
    action = _Action(_theta(group).elements(), pair.sigma.degree)
    return action.stabilizer(pair.sigma._table, pair.tau._table)


# -- census by orbit marking -------------------------------------------------

def _check_keeps_family(graph, theta):
    """Refuse a group whose conjugation leaves the rotation family.

    Conjugating by g carries a cycle on the labels L to one on g(L), so the
    family is kept exactly when every generator maps each vertex's label
    set onto a label set of the same colour.  The census cannot see this at
    vertices with a single rotation, since ranks do not read their labels.
    """
    for labels in (graph.black_labels, graph.white_labels):
        blocks = {frozenset(ls) for ls in labels.values()}
        for g in theta.generators:
            for vertex, ls in labels.items():
                if frozenset(g(l) for l in ls) not in blocks:
                    raise InternalInvariantError(
                        f"the group left the family: {format_cycles(g)} maps the "
                        f"labels of vertex {vertex!r} to no vertex of its colour"
                    )


def _orbit_census(radix, action):
    """Representative tables -> (orbit length, stabilizer order, generators).

    The generators are the stabilizer's elements other than the identity.
    """
    marked = bytearray(radix.total)
    census = {}
    index = 0
    while index >= 0:
        s, t = radix.unrank(index)
        images = action.pair_images(s, t)
        rep = min(images)
        if rep != (s, t):  # the stabilizer is read off rep's own conjugates
            images = action.pair_images(*rep)
        orbit = set(images)
        for image in orbit:
            try:
                rank = radix.rank(*image)
            except KeyError:
                raise InternalInvariantError(
                    f"a conjugate of pair {index} left the family"
                ) from None
            if marked[rank]:
                raise InternalInvariantError(f"pair {rank} lies in two orbits")
            marked[rank] = 1
        if not marked[index]:
            raise InternalInvariantError(f"pair {index} missing from its own orbit")
        census[rep] = (len(orbit), *action.fixing(images, rep))
        index = marked.find(0, index + 1)
    return census


def _invariants_worker(args):
    pairs, with_monodromy = args
    return [invariants(pair, with_monodromy=with_monodromy) for pair in pairs]


def _orbit_invariants(pairs, threads, with_monodromy):
    """invariants() of each pair, in order.

    Only the monodromy groups cost enough to pay for forking; the workers
    are bounded by the cores and the pairs, so a large ``threads`` forks
    no more than can run.
    """
    processes = min(threads, os.cpu_count() or 1, len(pairs))
    if not with_monodromy or processes <= 1:
        return _invariants_worker((pairs, with_monodromy))
    jobs = [
        (pairs[slice(*chunk_bounds(len(pairs), i, processes))], with_monodromy)
        for i in range(processes)
    ]
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return [inv for part in pool.map(_invariants_worker, jobs) for inv in part]


def classify(
    graph,
    *,
    threads=1,
    budget=DEFAULT_BUDGET,
    duality_oracle=False,
    group=None,
    with_monodromy=True,
):
    """One DessinRecord per isomorphism class of dessins over ``graph``.

    ``group`` overrides the edge-action group (a PermGroup on labels); the
    default is the full color-preserving automorphism group.  Oversized
    enumerations and graphs of more than 255 labels (``cleanify`` admits
    256) are refused up front.  ``with_monodromy=False`` leaves the
    monodromy fields of every record None and skips the Schreier-Sims
    builds of the monodromy groups that are not certified giants.
    """
    _check_label_count(graph.e)
    total = graph.candidate_count()
    if total > budget:
        raise BudgetExceededError(total, budget)
    if group is None:
        group = automorphism_group(graph)
    theta = _theta(group)
    action = _Action(theta.elements(), graph.e)
    group_order = len(action.elems)
    _check_keeps_family(graph, theta)

    census = _orbit_census(_Radix(graph), action)

    key_to_orbit = {key: i for i, key in enumerate(sorted(census))}
    pairs = [_pair_from_tables(*key, graph) for key in key_to_orbit]
    invs = _orbit_invariants(pairs, threads, with_monodromy)
    records = []
    genus_histogram = {}
    dualizable_histogram = {}
    for (key, orbit_id), pair, inv in zip(key_to_orbit.items(), pairs, invs):
        orbit_length, aut_order, generators = census.pop(key)
        if orbit_length * aut_order != group_order:
            raise InternalInvariantError(
                f"orbit-stabilizer mismatch at orbit {orbit_id}: "
                f"{orbit_length} * {aut_order} != {group_order}"
            )
        if duality_oracle:
            oracle = dualizable_oracle(pair)
            if oracle != inv.dualizable:
                raise InternalInvariantError(
                    f"duality oracle disagrees at orbit {orbit_id}"
                )
        mirrored = action.least(pair.sigma.inverse()._table, pair.tau.inverse()._table)
        partner = key_to_orbit.get(mirrored)
        if partner is None:
            raise InternalInvariantError(
                f"mirror of orbit {orbit_id} left the family"
            )
        chiral = partner != orbit_id
        records.append(DessinRecord(
            orbit_id=orbit_id,
            representative=pair,
            orbit_length=orbit_length,
            aut_order=aut_order,
            aut_generators=generators,
            invariants=inv,
            mirror_status=MIRROR_CHIRAL if chiral else MIRROR_REFLEXIVE,
            mirror_partner=partner if chiral else None,
        ))
        g = inv.genus
        genus_histogram[g] = genus_histogram.get(g, 0) + 1
        dualizable_histogram[g] = dualizable_histogram.get(g, 0) + inv.dualizable

    return ClassificationReport(
        graph=graph,
        group=group if isinstance(group, EdgeActionGroup) else None,
        theta=theta,
        group_order=group_order,
        candidate_count=total,
        records=tuple(records),
        genus_histogram=dict(sorted(genus_histogram.items())),
        dualizable_histogram=dict(sorted(dualizable_histogram.items())),
    )


def wilson_orbit_targets(report, r, s):
    """Map each orbit to the orbit hit by the (r, s) power operation."""
    e = report.graph.e
    action = _Action(report.theta.elements(), e)
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
        key = action.least(image.sigma._table, image.tau._table)
        if key not in key_to_orbit:
            raise InternalInvariantError(
                f"power operation left the family at orbit {rec.orbit_id}"
            )
        targets[rec.orbit_id] = key_to_orbit[key]
    return targets
