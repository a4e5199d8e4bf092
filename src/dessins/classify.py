"""Partition the rotation pairs of a graph into conjugation orbits.

Two pairs define isomorphic dessins exactly when some edge-acting graph
automorphism conjugates one to the other, so the isomorphism classes are
the orbits of the edge-action group G.  The census is orderly orbit
enumeration in the spirit of McKay, "Isomorph-free exhaustive generation"
(J. Algorithms 1998): it keeps one mark per stream rank and jumps from
each unmarked rank to the next (``bytearray.find``), unranking only the
pair found there.  It takes that pair's lexicographically least conjugate
as the orbit's representative, ranks the representative's conjugates by
every element of G and marks each rank.  An orbit of |G| distinct ranks is
free, with a trivial stabilizer; only the other orbits have the
stabilizer, the dessin's orientation-preserving automorphism group, read
off those same ranks.  Mirror partners come out of the same pass: each
orbit ranks its mirrored first pair once, and the orbit that contains that
rank is its partner.  The work is a scan of N bytes of marks, one unrank
per orbit, orbits * |G| conjugate ranks at one dict lookup per rank group
(``rotation._Radix``) each, and |G| conjugates of sigma per orbit and of
tau only where sigma's is least.

The invariants are computed once per mirror class, on the orbit of the
lesser representative, and shared with a chiral partner: a dessin and its
mirror have the same invariants (proof at ``_orbit_invariants``).  When the
monodromy groups are wanted, their Schreier-Sims builds dominate, so those
calls run in a fork pool, one contiguous chunk of the mirror classes per
worker; output never depends on the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, repeat
from math import ceil
from operator import add

from .bgraph import BipartiteGraph, EdgeActionGroup, automorphism_group
from .dessin import invariants, dualizable_oracle, mirror, wilson
from .perm import Permutation, _IDENT256, _invert, conjugate, format_cycles
from .permgroup import PermGroup
from .rotation import InternalInvariantError, RotationPair, _Radix, _pair_from_tables

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

    Each element is kept once, as the pair of the ``e`` image bytes of its
    inverse and its own 256-byte table, from ``PermGroup._tables``, so one
    conjugate is ``ginv.translate(t).translate(g)`` and is ``e`` bytes
    long.  The elements are listed in increasing order of their tables,
    whatever order the group lists them in, so each result that follows
    element order depends on the group alone, not on its generating set.
    The identity comes first: any other table first differs from it at
    some i, where it holds an image above i, the labels below i being
    taken.
    """

    __slots__ = ("e", "pad", "elems")

    def __init__(self, group, e):
        if group.degree != e:
            raise ValueError(f"degree mismatch: {e} != {group.degree}")
        self.e = e
        self.pad = _IDENT256[e:]
        self.elems = [(_invert(g, e)[:e], g) for g in sorted(group._tables())]

    def images(self, t):
        """The conjugates of one table (of at least ``e`` bytes), in element order."""
        t = t[: self.e] + self.pad
        return [gi.translate(t).translate(g) for gi, g in self.elems]

    def least(self, s, t):
        """The least conjugate of the pair of tables (s, t).

        Pairs compare by sigma first, so tau is conjugated only by the
        elements that take sigma to its least conjugate.
        """
        images = self.images(s)
        low = min(images)
        t = t[: self.e] + self.pad
        chosen = compress(self.elems, map(low.__eq__, images))
        return low, min(gi.translate(t).translate(g) for gi, g in chosen)

    def fixing(self, images, key):
        """The stabilizer of ``key``, given its conjugates ``images`` in
        element order, so that ``key`` is ``images[0]``, its image by the
        identity.

        Returns its order and its elements other than the identity, as
        permutations in increasing order of their tables.
        """
        tables = [g for (_, g), image in zip(self.elems, images) if image == key]
        return len(tables), tuple(Permutation._from_table(g, self.e) for g in tables[1:])

    def stabilizer(self, s, t):
        """The elements fixing the pair of tables (s, t), as a group whose
        generators are all of them but the identity, in element order."""
        e = self.e
        s, t = s[:e], t[:e]
        # the generators are all the fixing elements, so their count is the order
        count, generators = self.fixing(list(zip(self.images(s), self.images(t))), (s, t))
        return PermGroup(generators, degree=e, order_bound=count)


def _theta(group):
    return group.theta if isinstance(group, EdgeActionGroup) else group


def act(phi_edge, pair):
    """Conjugate both rotations by an edge-acting automorphism."""
    return RotationPair(
        conjugate(pair.sigma, phi_edge), conjugate(pair.tau, phi_edge), pair.graph
    )


def canonical_form(pair, group):
    """The lexicographically least conjugate pair; constant on each orbit."""
    action = _Action(_theta(group), pair.sigma.degree)
    s, t = action.least(pair.sigma._table, pair.tau._table)
    return _pair_from_tables(s, t, pair.graph)


def stabilizer(pair, group):
    """Elements of the edge-action group fixing the pair, as a group.

    Its generators are all of those elements but the identity, in
    increasing order of their tables (``_Action``), whatever generating
    set the group was given by.
    """
    action = _Action(_theta(group), pair.sigma.degree)
    return action.stabilizer(pair.sigma._table, pair.tau._table)


def _stabilizer_and_reflexive(pair, group):
    """``stabilizer(pair, group)``, and whether the pair's dessin is
    reflexive, its ``canonical_form`` equal to its mirror's, from one
    ``_Action``."""
    action = _Action(_theta(group), pair.sigma.degree)
    other = mirror(pair)
    reflexive = (action.least(pair.sigma._table, pair.tau._table)
                 == action.least(other.sigma._table, other.tau._table))
    return action.stabilizer(pair.sigma._table, pair.tau._table), reflexive


# -- census by orbit marking -------------------------------------------------

def _check_keeps_family(graph, theta):
    """Refuse a group whose conjugation leaves the rotation family.

    Conjugating by g carries a cycle on the labels L to one on g(L), so the
    family is kept exactly when every generator maps each vertex's label
    set onto a label set of the same colour.  The census cannot see this at
    vertices with a single rotation, since ranks do not read their labels.
    The census also relies on it to read stabilizers off ranks
    (``_orbit_census``).
    """
    for labels in (graph.black_labels, graph.white_labels):
        # 0-based label bytes, so each image set is one translate
        sets = [(vertex, bytes(l - 1 for l in ls)) for vertex, ls in labels.items()]
        blocks = {frozenset(ls) for _, ls in sets}
        for g in theta.generators:
            table = g._table
            for vertex, ls in sets:
                if frozenset(ls.translate(table)) not in blocks:
                    raise InternalInvariantError(
                        f"the group left the family: {format_cycles(g)} maps the "
                        f"labels of vertex {vertex!r} to no vertex of its colour"
                    )


def _ranker(radix, action):
    """A function from a pair of ``e``-byte tables to its conjugates' ranks.

    The conjugate of t by g is ``ginv.translate(t).translate(g)``, so a
    rank group reads the images of its labels ``gather`` under it as
    ``gather.translate(ginv).translate(t).translate(g)``.  The first
    translate is made here, once per group and element, by the inverse
    padded to 256 bytes; the rest runs in ``map``, in element order.
    """
    pad = action.pad
    tables = [g for _, g in action.elems]
    groups = [
        (side, terms.__getitem__, [gather.translate(ginv + pad) for ginv, _ in action.elems])
        for side, gather, terms, _ in radix.groups
    ]
    translate = bytes.translate
    add_columns = partial(map, add)

    def ranks(s, t):
        pair = (s + pad, t + pad)
        columns = [
            map(term, map(translate, map(translate, gathers, repeat(pair[side])), tables))
            for side, term, gathers in groups
        ]
        return reduce(add_columns, columns)

    return ranks


def _orbit_census(radix, action):
    """The orbits, and the mirror of each, keyed by representative tables.

    Returns representative -> (orbit length, stabilizer order, the
    stabilizer's elements other than the identity, in increasing order of
    their tables), and representative -> the representative of its mirror
    orbit, None if that left the family.  Mirroring commutes with
    conjugation, so it is an involution on orbits: each orbit ranks its
    mirrored first pair once and waits in ``pending`` under that rank until
    the orbit containing it arrives.

    The stabilizer of a representative is read off its conjugates' ranks,
    in element order, whose first is its own rank (the identity comes
    first).  A conjugate equals the representative exactly when their
    ranks are equal: ``_check_keeps_family`` keeps every conjugate inside
    the family, and the rank is injective on the family: it reads the
    rotation at every vertex with a choice of rotation, and at every other
    vertex all pairs of the family have the same one.
    """
    ranks_of = _ranker(radix, action)
    e = action.e
    marked = bytearray(radix.total)
    census = {}
    mirrors = {}
    pending = {}
    index = 0
    while index >= 0:
        s, t = radix.unrank(index)
        rep = action.least(s, t)
        try:
            images = list(ranks_of(*rep))
        except KeyError:
            raise InternalInvariantError(
                f"a conjugate of pair {index} left the family"
            ) from None
        ranks = set(images)
        for rank in ranks:
            if marked[rank]:
                raise InternalInvariantError(f"pair {rank} lies in two orbits")
            marked[rank] = 1
        if not marked[index]:
            raise InternalInvariantError(f"pair {index} missing from its own orbit")
        if len(ranks) == len(action.elems):  # a free orbit: trivial stabilizer
            census[rep] = (len(ranks), 1, ())
        else:  # the stabilizer is read off the ranks of rep's conjugates
            census[rep] = (len(ranks), *action.fixing(images, images[0]))
        claimed = pending.keys() & ranks
        if claimed:  # at most one: mirroring is an involution on orbits
            other = pending.pop(claimed.pop())
            mirrors[rep], mirrors[other] = other, rep
        else:
            try:
                rank = radix.rank(_invert(s, e), _invert(t, e))
            except KeyError:
                mirrors[rep] = None
            else:
                if rank in ranks:
                    mirrors[rep] = rep
                else:
                    pending[rank] = rep
        index = marked.find(0, index + 1)
    if pending:
        raise InternalInvariantError(
            f"mirror pair {min(pending)} was left pending by the census"
        )
    return census, mirrors


def _invariants_worker(pair, with_monodromy, passport):
    return invariants(pair, with_monodromy, passport=passport)


def _orbit_invariants(pairs, partners, threads, with_monodromy, passport):
    """invariants() of each pair of the family with this graph passport, in order.

    ``partners[i]`` is the index of the orbit of pair i's mirror
    (sigma^-1, tau^-1), i itself for a reflexive orbit.  One call serves
    each mirror class: it is made on the lesser index and shared with the
    partner.  A dessin and its mirror have equal invariants, field by field:

    - the monodromy group <sigma^-1, tau^-1> is <sigma, tau> itself, so the
      order, the fingerprint and ``regular`` agree;
    - sigma^-1 and tau^-1 have the cycles of sigma and tau, so the black and
      white degrees agree;
    - the mirror's face permutation, tau^-1 then sigma^-1, is the inverse
      of sigma then tau, which sigma conjugates to the face permutation,
      tau then sigma; so the face cycle types agree, and with them the face
      count, the genus and ``uniform``;
    - ``is_dualizable`` reads the graph on labels with edges {i, sigma(i)}
      and {i, tau(i)}, which is the mirror's graph too, so ``dualizable``
      agrees.

    Only the monodromy groups cost enough to pay for forking; the workers
    are bounded by the cores and the mirror classes, so a large ``threads``
    forks no more than can run.  ``Pool.map`` cuts the mirror classes into
    one contiguous chunk per worker and returns the results in order, and
    ``multiprocessing`` is imported only when a pool forks.
    """
    firsts = [i for i, partner in enumerate(partners) if i <= partner]
    todo = [pairs[i] for i in firsts]
    cores = os.cpu_count() or 1
    workers = min(threads or cores, cores, len(todo))
    # the worker looks ``invariants`` up when called, so a rebound one is used
    work = partial(_invariants_worker, with_monodromy=with_monodromy, passport=passport)
    if not with_monodromy or workers <= 1:
        invs = map(work, todo)
    else:
        import multiprocessing

        # rounding the chunks up can leave workers without one: fork only
        # as many as there are chunks
        chunksize = ceil(len(todo) / workers)
        processes = ceil(len(todo) / chunksize)
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            invs = pool.map(work, todo, chunksize=chunksize)
    shared = [None] * len(pairs)
    for i, inv in zip(firsts, invs):
        shared[i] = shared[partners[i]] = inv
    return shared


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
    enumerations are refused up front; ``BipartiteGraph`` already refused
    more than 256 labels.  ``with_monodromy=False`` leaves the
    monodromy fields of every record None and skips the Schreier-Sims
    builds of the monodromy groups that are not certified giants.
    ``threads`` bounds the worker processes of the monodromy groups; 0
    means all cores, and a negative count raises ``ValueError``.
    """
    if threads < 0:
        raise ValueError(f"threads {threads} is negative; 0 means all cores")
    total = graph.candidate_count()
    if total > budget:
        raise BudgetExceededError(total, budget)
    if group is None:
        group = automorphism_group(graph)
    theta = _theta(group)
    action = _Action(theta, graph.e)
    group_order = len(action.elems)
    _check_keeps_family(graph, theta)

    census, mirrors = _orbit_census(_Radix(graph), action)

    key_to_orbit = {key: i for i, key in enumerate(sorted(census))}
    pairs = [_pair_from_tables(*key, graph) for key in key_to_orbit]
    partners = []
    for key, orbit_id in key_to_orbit.items():
        partner = key_to_orbit.get(mirrors[key])
        if partner is None:
            raise InternalInvariantError(
                f"mirror of orbit {orbit_id} left the family"
            )
        partners.append(partner)
    invs = _orbit_invariants(pairs, partners, threads, with_monodromy, graph.passport())
    records = []
    genus_histogram = {}
    dualizable_histogram = {}
    for (key, orbit_id), pair, inv, partner in zip(
        key_to_orbit.items(), pairs, invs, partners
    ):
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
    action = _Action(report.theta, e)
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
