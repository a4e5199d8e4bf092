"""All rotation-system pairs (sigma, tau) of a graph, by rank.

The stream order is pinned: one mixed-radix counter over per-vertex rotation
indices, black vertices varying fastest, each vertex's rotations in
lexicographic order with the smallest incident label held first.  A pair's
index in that order is its rank.  ``_Radix.unrank`` computes the pair at
an index (Knuth, TAOCP 4A, 7.2.1.1), with one ``divmod`` and one
``bytes.translate`` per vertex that has a choice of rotation; so any index,
or any slice of the index range (``chunk_bounds``), gives the same pairs as
the whole stream.  ``_Radix.rank`` inverts it by rank groups: runs of
consecutive vertices of one colour whose rotation counts multiply to at
most ``_GROUP_CAP`` (a vertex with more rotations is a group of its own).
A group reads the images of its labels with one ``bytes.translate`` and
looks them up in one dict of summed rank terms.

In the family the sigma-cycles are the label sets of the black vertices and
the tau-cycles those of the white ones, so ``CycleText`` writes the cycle
text of either from the vertices: one cycle text per vertex, each walked
once per distinct image of the vertex's labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .perm import _IDENT256, _LABELS, Permutation, format_cycles

# the most keys in a rank group's dict, unless one vertex alone has more
_GROUP_CAP = 4096


class InternalInvariantError(AssertionError):
    """A structural guarantee failed; indicates a bug, not bad input."""


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
    """The (deg-1)! local rotations at a vertex, in the pinned order.

    A vertex not in the graph raises ``ValueError("unknown vertex ...")``.
    """
    return [LocalRotation(vertex, cyc) for cyc in _cycles_at(graph._labels(vertex))]


class _Radix:
    """Per-vertex rotation tables and the mixed-radix pair indexing.

    ``groups`` holds one ``(side, gather, terms)`` per rank group: the
    0-based labels of its vertices as bytes, and the dict from their images
    under a table of that side to the group's summed rank terms.
    """

    def __init__(self, graph):
        self.e = graph.e
        self._pad = _IDENT256[graph.e:]
        base = (bytearray(range(graph.e)), bytearray(range(graph.e)))
        groups = []
        self._digits = []
        self.total = 1
        sides = ((graph.blacks, graph.black_labels), (graph.whites, graph.white_labels))
        for side, (vertices, labels) in enumerate(sides):
            run, size = [], 1
            for v in vertices:
                opts = _cycles_at(labels[v])
                if len(opts) == 1:  # adds 0 to every rank
                    _apply_cycle(base[side], opts[0])
                    continue
                if run and size * len(opts) > _GROUP_CAP:
                    groups.append((side, *_group(run)))
                    run, size = [], 1
                place, tables = _place(opts, self.total)
                run.append(place)
                size *= len(opts)
                self._digits.append((len(opts), side, tables))
                self.total *= len(opts)
            if run:
                groups.append((side, *_group(run)))
        self._base = tuple(bytes(b) for b in base)
        # a graph without a choice of rotation has the one rank 0
        self.groups = tuple(groups) or ((0, b"", {b"": 0}),)

    def rank(self, s, t):
        """The stream index of the pair of 0-based tables (s, t).

        Raises KeyError when the labels at some vertex do not form one of
        its rotations, that is, when (s, t) is not in the family.
        """
        pair = (s[: self.e] + self._pad, t[: self.e] + self._pad)
        index = 0
        for side, gather, terms in self.groups:
            index += terms[gather.translate(pair[side])]
        return index

    def unrank(self, index):
        """The pair of 0-based ``e``-byte tables at a stream index."""
        if not 0 <= index < self.total:
            raise ValueError(f"index {index} outside [0, {self.total})")
        pair = list(self._base)
        for radix, side, tables in self._digits:
            index, digit = divmod(index, radix)
            pair[side] = pair[side].translate(tables[digit])
        return pair[0], pair[1]


def _place(opts, radix):
    """One vertex's rank term and its rotations as 256-byte tables.

    The term is (labels, images -> digit * radix): the vertex's 0-based
    labels, and their images under each rotation, as bytes.
    """
    labels = bytes(label - 1 for label in sorted(opts[0]))
    terms = {}
    tables = []
    for digit, cycle in enumerate(opts):
        table = bytearray(_IDENT256)
        _apply_cycle(table, cycle)
        table = bytes(table)
        terms[labels.translate(table)] = digit * radix
        tables.append(table)
    return (labels, terms), tables


def _group(places):
    """The gather bytes and summed-term dict of a run of vertex terms."""
    (gather, terms), *rest = places
    for labels, place in rest:
        gather += labels
        terms = {
            key + images: rank + term
            for key, rank in terms.items() for images, term in place.items()
        }
    return gather, terms


class CycleText:
    """``format_cycles`` of one colour's permutation, for pairs in the family.

    The text is the join of one cycle text per vertex of degree >= 2,
    ordered by least label.  One ``bytes.translate`` gathers the images of
    the labels of the vertices with a choice of rotation, then of the
    others, whose images must be the one rotation they have.  Each vertex
    with a choice looks its slice up in its own dict and walks it only the
    first time it is seen.  A permutation outside the family raises
    ``InternalInvariantError``.  The dicts live as long as the object:
    build one per document.
    """

    def __init__(self, graph, side):
        self.e = graph.e
        self.side = side
        gather, others, rotated = bytearray(), bytearray(), bytearray()
        # vertex texts in order; None marks the slot of a vertex with a choice
        template, self._slots = [""], []
        for labels in sorted((graph.black_labels, graph.white_labels)[side].values()):
            labels = bytes(label - 1 for label in labels)
            if len(labels) > 2:
                self._slots.append((len(template), len(gather), labels, {}))
                template += [None, ""]
                gather += labels
                continue
            others += labels
            rotated += labels[1:] + labels[:1]
            if len(labels) == 2:
                template[-1] += _walk(labels, labels[1:] + labels[:1])
        self._template = template
        self._split = len(gather)
        self._gather = bytes(gather + others)
        self._rotated = bytes(rotated)

    def __call__(self, p):
        images = self._gather.translate(p._table)
        if p.degree != self.e or images[self._split:] != self._rotated:
            raise self._outside(p)
        parts = self._template.copy()
        for i, start, labels, texts in self._slots:
            piece = images[start : start + len(labels)]
            text = texts.get(piece)
            if text is None:
                text = _walk(labels, piece)
                if text is None:
                    raise self._outside(p)
                texts[piece] = text
            parts[i] = text
        return "".join(parts) or "()"

    def _outside(self, p):
        return InternalInvariantError(
            f"{'tau' if self.side else 'sigma'} {format_cycles(p)} is not in the rotation family"
        )


def _walk(labels, images):
    """The cycle text of a vertex whose 0-based ``labels`` go to ``images``,
    from its least label; None unless the images are its labels in one cycle."""
    if sorted(images) != list(labels):
        return None
    step = dict(zip(labels, images))
    cycle = [labels[0]]
    x = step[labels[0]]
    while x != labels[0]:
        cycle.append(x)
        x = step[x]
    if len(cycle) != len(labels):
        return None
    return "(" + ",".join([_LABELS[x] for x in cycle]) + ")"


def _apply_cycle(table, cycle):
    for i, label in enumerate(cycle):
        table[label - 1] = cycle[(i + 1) % len(cycle)] - 1


def _pair_from_tables(s, t, graph):
    """The rotation pair of two 0-based tables of ``e`` bytes each."""
    e = len(s)
    return RotationPair(Permutation._from_table(s, e), Permutation._from_table(t, e), graph)


def enumerate_pairs(graph):
    """All candidate_count(graph) rotation pairs, in the pinned order."""
    radix = _Radix(graph)
    return (_pair_from_tables(*radix.unrank(i), graph) for i in range(radix.total))


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
    for p, labels in ((sigma, graph.black_labels), (tau, graph.white_labels)):
        for v, ls in labels.items():
            ls = bytes(label - 1 for label in ls)
            if _walk(ls, ls.translate(p._table)) is None:
                return v
    return None
