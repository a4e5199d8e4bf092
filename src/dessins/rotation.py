"""All rotation-system pairs (sigma, tau) of a graph, by rank.

The stream order is pinned: one mixed-radix counter over per-vertex rotation
indices, black vertices varying fastest, each vertex's rotations in
lexicographic order with the smallest incident label held first.  A pair's
index in that order is its rank.  One local rotation has one form here:
the images of its vertex's sorted labels, as bytes (``_rotations``).
``_Radix`` splits the vertices with a choice of rotation into rank groups:
runs of consecutive vertices of one colour whose rotation counts multiply
to at most ``_GROUP_CAP`` (a vertex with more rotations is a group of its
own).  A group lists the joined images of its labels by its digit, and
maps them back to its summed rank term in one dict.  ``_Radix.unrank``
computes the pair at an index (Knuth, TAOCP 4A, 7.2.1.1) with one
``divmod`` per rank group and one ``bytes.maketrans`` per side; so any
index gives the same pair as the whole stream.  ``_Radix.rank`` inverts it: each group reads
the images of its labels with one ``bytes.translate`` and looks them up.

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
    """The mixed-radix pair indexing, by rank groups.

    ``groups`` holds one ``(side, gather, terms, keys)`` per rank group: the
    0-based labels of its vertices as bytes, the dict from their images
    under a table of that side to the group's summed rank terms, and those
    images listed by group digit.  ``_sides`` holds, per side, the labels of
    all its vertices, those without a choice of rotation first, and the
    images of the latter.  ``unrank`` appends each group's images at its
    digit to those of its side, and makes each side's table with one
    ``bytes.maketrans`` from the side's labels to their images.
    """

    def __init__(self, graph):
        self.e = graph.e
        self._pad = _IDENT256[graph.e:]
        groups, sides = [], []
        self.total = 1
        for side, labels in enumerate((graph.black_labels, graph.white_labels)):
            fixed, images, run, size = bytearray(), bytearray(), [], 1
            for ls in labels.values():
                ls = bytes(label - 1 for label in ls)
                rotations = _rotations(ls)
                if len(rotations) == 1:  # adds 0 to every rank
                    fixed += ls
                    images += rotations[0]
                    continue
                if run and size * len(rotations) > _GROUP_CAP:
                    groups.append(_group(side, run, self.total // size))
                    run, size = [], 1
                run.append((ls, rotations))
                size *= len(rotations)
                self.total *= len(rotations)
            if run:
                groups.append(_group(side, run, self.total // size))
            gather = b"".join([fixed] + [g for s, g, _, _ in groups if s == side])
            sides.append((gather, bytes(images)))
        self._sides = sides
        # a graph without a choice of rotation has the one rank 0
        self.groups = tuple(groups) or ((0, b"", {b"": 0}, [b""]),)

    def rank(self, s, t):
        """The stream index of the pair of 0-based tables (s, t).

        Raises KeyError when the labels at some vertex do not form one of
        its rotations, that is, when (s, t) is not in the family.
        """
        pair = (s[: self.e] + self._pad, t[: self.e] + self._pad)
        index = 0
        for side, gather, terms, _ in self.groups:
            index += terms[gather.translate(pair[side])]
        return index

    def unrank(self, index):
        """The pair of 0-based ``e``-byte tables at a stream index: one
        ``divmod`` per rank group, one ``bytes.maketrans`` per side."""
        if not 0 <= index < self.total:
            raise ValueError(f"index {index} outside [0, {self.total})")
        images = [b"", b""]
        for side, _, _, keys in self.groups:
            index, digit = divmod(index, len(keys))
            images[side] += keys[digit]
        (black, fixed_black), (white, fixed_white) = self._sides
        e = self.e
        return (
            bytes.maketrans(black, fixed_black + images[0])[:e],
            bytes.maketrans(white, fixed_white + images[1])[:e],
        )


def _rotations(labels):
    """The images of a vertex's sorted 0-based ``labels`` under each of its
    rotations, in the pinned order, as bytes."""
    return [
        labels.translate(bytes.maketrans(bytes(cycle), bytes(cycle[1:] + cycle[:1])))
        for cycle in _cycles_at(labels)
    ]


def _group(side, run, base):
    """The rank group of a run of (labels, rotations), the first vertex's
    digit varying fastest; ``base`` is the stream radix where it starts."""
    gather, keys = b"", [b""]
    for labels, rotations in run:
        gather += labels
        keys = [key + images for images in rotations for key in keys]
    return side, gather, {key: digit * base for digit, key in enumerate(keys)}, keys


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


def _pair_from_tables(s, t, graph):
    """The rotation pair of two 0-based tables of ``e`` bytes each."""
    e = len(s)
    return RotationPair(Permutation._from_table(s, e), Permutation._from_table(t, e), graph)


def enumerate_pairs(graph):
    """All candidate_count(graph) rotation pairs, in the pinned order."""
    radix = _Radix(graph)
    return (_pair_from_tables(*radix.unrank(i), graph) for i in range(radix.total))


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
