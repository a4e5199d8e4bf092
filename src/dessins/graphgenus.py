"""Exact minimum and maximum 2-cell embedding genus of a plain multigraph.

Subdividing every edge with a white midpoint leaves a single tau (pairing
the two half-edges of each original edge), so embeddings correspond
one-to-one with choices of sigma.  With e original edges, alpha vertices
and gamma faces, Euler's formula for the subdivided dessin (2e edges,
alpha + e vertices) collapses to g = 1 + (e - alpha - gamma) / 2, which is
the form implemented here; the minimum genus pairs with the maximum face
count and vice versa, and gamma always has the parity of e - alpha.

The faces are the cycles of phi = sigma o tau.  Fixing the local rotation
at a vertex fixes phi on the half-edges tau sends there: a link
tau(d) -> sigma(d) for each of its darts d.  A depth-first search over the
vertices fixes one local rotation per level and keeps the links made so
far as open paths (``head_of`` and ``tail_of`` arrays); a link either
closes a path into a face or joins two paths, and is undone in reverse
order on the way back.  Every open path lies on a face still to come, so
closed faces + open paths bounds the face count of a subtree from above,
and closed faces + 1 from below.  A local rotation is read as the images
of its vertex's sorted labels (``rotation._rotations``), so its links are
the labels' tau-images zipped with those images, and a witness sigma is
one ``bytes.maketrans`` from all the labels to the images chosen.

``genus_range`` runs the search twice, once for the most and once for the
fewest faces, and prunes every subtree whose bound cannot strictly beat
the best leaf so far (faces move in steps of 2).  Levels run from the last
black vertex outermost, rotations in increasing order, which visits the
leaves in rank order, the pinned stream order of ``rotation``; so each
witness is the first rotation system of the stream that reaches its
optimum.  A search stops at its a priori bound: every face of a graph
with a cycle is at least girth long, so gamma <= 2e / girth, and
gamma >= 1 (or 2, by parity).  Its budget counts search nodes, one per
local rotation tried at any level.

``genus_histogram`` counts classes of partial states, not rotation
systems (the state counting of Gross and Furst, J. Graph Theory 1987).
Once some vertices are fixed, every open path starts at a dart x of an
unfixed vertex and ends at tau(y) for an unfixed dart y; call this map Q,
Q(x) = y.  Fixing the remaining rotations as R closes exactly the cycles
of R o Q.  For h permuting the darts inside each unfixed vertex, h R h^-1
runs over the same rotations as R does, and (h R h^-1)(h Q h^-1) =
h (R Q) h^-1 has as many cycles; so the distribution of the faces still to
close depends only on the class of Q under such h, the multiset of Q's
cycles each written as a cyclic word of vertex names.  A state is one
``bytes`` per class: its words at their least rotation, sorted, joined by
0 (vertex i is the letter i + 1), with a counter of the faces closed so
far.  At first Q is tau, one word per edge.  Each level fixes one vertex:
every rotation of it acts on every class, and the classes reached merge
their counters.  Vertices are fixed fewest rotations first, then most
edges to the vertices already fixed, then least index; that keeps the
classes few (at most 7 per level for K_{3,5}, 31 for Frucht, 510 for K_6),
where an order by connectivity alone reached 413 for K_{3,5}.  A rotation
of a vertex of degree d is read as the images of range(d) under it, its
successor table, and the range search's links are never built.  The
histogram is still refused up front when its systems exceed the budget.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import factorial

from .bgraph import GraphStructureError, cleanify
from .perm import MAX_DEGREE, Permutation
from .rotation import _rotations

DEFAULT_GENUS_BUDGET = 10**7

# the subdivision has two labels per edge
MAX_EDGES = MAX_DEGREE // 2


class GenusBudgetError(RuntimeError):
    def __init__(self, count, budget, counted="rotation systems"):
        super().__init__(
            f"{count} {counted} exceed budget {budget}; exact search refused"
        )
        self.count = count
        self.budget = budget
        self.counted = counted


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


class _Subdivision:
    """The subdivided graph: each black vertex's sorted 0-based labels as
    bytes, the fixed tau as a 256-byte table, and the links of every local
    rotation.  The links are built on first use, which the histogram never
    makes; a witness sigma is read back from them."""

    def __init__(self, plain):
        if len(plain.edges) > MAX_EDGES:
            raise GraphStructureError(
                f"{len(plain.edges)} edges exceed the limit of {MAX_EDGES} "
                "for genus-range, whose subdivision has two labels per edge"
            )
        # gamma has the parity of e - alpha
        self.excess = len(plain.edges) - len(plain.vertices)
        self.clean = clean = cleanify(plain)
        self.n = clean.e
        self.labels = [bytes(x - 1 for x in clean.black_labels[v]) for v in clean.blacks]
        whites = [bytes(x - 1 for x in ls) for ls in clean.white_labels.values()]
        # a midpoint has degree 2, so one rotation
        self.tau = bytes.maketrans(b"".join(whites), b"".join(_rotations(w)[0] for w in whites))

    @cached_property
    def links(self):
        """Per vertex and rotation, the links tau(d) -> sigma(d) of its
        darts d in label order."""
        return [
            [tuple(zip(labels.translate(self.tau), images)) for images in _rotations(labels)]
            for labels in self.labels
        ]

    def genus(self, gamma):
        defect = self.excess - gamma
        if defect % 2:
            raise AssertionError(f"odd Euler defect {defect}")
        return 1 + defect // 2

    def sigma(self, digits):
        # the links of a rotation end at the images of the vertex's labels
        images = bytes(s for links, d in zip(self.links, digits) for _, s in links[d])
        return Permutation._from_table(bytes.maketrans(b"".join(self.labels), images), self.n)


def _join(head_of, tail_of, links):
    """Make the links; return how many of them close a face."""
    closed = 0
    for a, b in links:
        h = head_of[a]
        if h == b:
            closed += 1
        else:
            t = tail_of[b]
            tail_of[h] = t
            head_of[t] = h
    return closed


def _split(head_of, tail_of, links):
    """Undo ``_join(head_of, tail_of, links)``, the last join made."""
    for a, b in reversed(links):
        h = head_of[a]
        if h != b:
            t = tail_of[b]
            tail_of[h] = a
            head_of[t] = b


def _girth(plain):
    """Length of a shortest cycle (a loop has length 1), or None for a tree."""
    pairs = [frozenset((u, v)) for _, u, v in plain.edges]
    if any(len(p) == 1 for p in pairs):
        return 1
    if len(set(pairs)) < len(pairs):
        return 2
    adj = {v: [] for v in plain.vertices}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    lengths = []
    for root in plain.vertices:
        dist, parent, queue = {root: 0}, {root: None}, [root]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v], parent[v] = dist[u] + 1, u
                    queue.append(v)
                elif parent[u] != v:
                    lengths.append(dist[u] + dist[v] + 1)
    return min(lengths, default=None)


def _extreme(sub, maximize, goal, nodes, budget):
    """(face count, digits) of the first system in stream order with the most
    (or fewest) faces; stops early once a leaf reaches ``goal``.

    ``nodes`` is a one-item list of the local rotations tried so far, by
    this and earlier searches; more than ``budget`` raises GenusBudgetError.
    """
    n = sub.n
    head_of = list(range(n))
    tail_of = list(range(n))
    levels = sub.links[::-1]
    depth = len(levels)
    path = [0] * depth
    best = [None, None]

    def visit(i, closed, open_paths):
        # True once a leaf has reached the goal
        leaf = i + 1 == depth
        for d, links in enumerate(levels[i]):
            nodes[0] += 1
            if nodes[0] > budget:
                raise GenusBudgetError(nodes[0], budget, "search nodes")
            faces = closed + _join(head_of, tail_of, links)
            remaining = open_paths - len(links)
            path[i] = d
            top = best[0]
            if leaf:
                if top is None or (faces > top if maximize else faces < top):
                    best[0], best[1] = faces, path[::-1]
                    if faces == goal:
                        return True
            elif top is None or (
                faces + remaining >= top + 2 if maximize
                else faces + (remaining > 0) <= top - 2
            ):
                if visit(i + 1, faces, remaining):
                    return True
            _split(head_of, tail_of, links)
        return False

    visit(0, 0, n)
    return best


def genus_range(plain, budget=DEFAULT_GENUS_BUDGET):
    """Minimum and maximum embedding genus with witness rotation systems.

    Raises GenusBudgetError once the two searches together try more than
    ``budget`` local rotations, and GraphStructureError past ``MAX_EDGES``.
    """
    sub = _Subdivision(plain)
    parity = sub.excess % 2
    girth = _girth(plain)
    most = 2 * len(plain.edges) // girth if girth else 1
    most -= (most - parity) % 2
    nodes = [0]
    gamma_max, digits_max = _extreme(sub, True, most, nodes, budget)
    gamma_min, digits_min = _extreme(sub, False, 2 - parity, nodes, budget)
    return GenusRange(
        mu=sub.genus(gamma_max),
        nu=sub.genus(gamma_min),
        gamma_max=gamma_max,
        gamma_min=gamma_min,
        witness_min=sub.sigma(digits_max),
        witness_max=sub.sigma(digits_min),
        clean=sub.clean,
        tau=Permutation._from_table(sub.tau, sub.n),
    )


def _fixing_order(plain, counts):
    """Vertex indices in the order their rotations are fixed: fewest
    rotations (``counts``) first, then most edges to the vertices already
    fixed, then the earliest step at which a neighbour was fixed, then
    least index.  The third key keeps the fixed vertices together, so few
    open paths cross to the unfixed ones: on a ladder it fixes rung by
    rung instead of sweeping one side first."""
    index = {v: i for i, v in enumerate(plain.vertices)}
    neighbours = [[] for _ in counts]
    for _, u, v in plain.edges:
        neighbours[index[u]].append(index[v])
        neighbours[index[v]].append(index[u])
    fixed_edges = [0] * len(counts)
    first_step = [len(counts)] * len(counts)
    left = set(range(len(counts)))
    order = []
    while left:
        v = min(left, key=lambda v: (counts[v], -fixed_edges[v], first_step[v], v))
        left.remove(v)
        for w in neighbours[v]:
            fixed_edges[w] += 1
            first_step[w] = min(first_step[w], len(order))
        order.append(v)
    return order


def _least_rotation(word):
    least = min(word)
    return min(word[i:] + word[:i] for i, x in enumerate(word) if x == least)


def _fix(states, letter, rotations):
    """The classes after fixing the vertex written ``letter``, each with its
    counter of closed faces.

    Each occurrence of the letter in a word stands for one of the vertex's
    darts x, in any order, since ``rotations`` holds every full cycle on
    the occurrences as a successor table.  The letters after x, up to the
    next occurrence y in the same cyclic word, are the open paths from x
    on to tau(y).  A rotation r links tau(y) to r(y), so the new words are
    the segments joined along the cycles of r o next, and a cycle whose
    segments are all empty is a closed face.
    """
    after = {}
    for key, counts in states.items():
        kept, segments, following = [], [], []
        for word in key.split(b"\0"):
            if letter not in word:
                kept.append(word)
                continue
            at = [i for i, x in enumerate(word) if x == letter]
            first = len(following)
            twice = word + word
            for k, (i, j) in enumerate(zip(at, at[1:] + [at[0] + len(word)])):
                segments.append(twice[i + 1 : j])
                following.append(first + (k + 1) % len(at))
        moves = Counter()
        for r in rotations:
            step = [r[y] for y in following]
            seen = [False] * len(step)
            words = kept.copy()
            closed = 0
            for start in range(len(step)):
                parts = []
                x = start
                while not seen[x]:
                    seen[x] = True
                    parts.append(segments[x])
                    x = step[x]
                if parts:
                    word = b"".join(parts)
                    if word:
                        words.append(_least_rotation(word))
                    else:
                        closed += 1
            words.sort()
            moves[b"\0".join(words), closed] += 1
        for (new, closed), m in moves.items():
            target = after.setdefault(new, Counter())
            for faces, count in counts.items():
                target[faces + closed] += count * m
    return after


def genus_histogram(plain, budget=DEFAULT_GENUS_BUDGET):
    """Count of rotation systems per genus (not up to isomorphism).

    Counts classes of open-path states level by level (see the module
    docstring), so its work grows with the number of classes, not of
    systems; still, it raises GenusBudgetError when there are more than
    ``budget`` systems, and GraphStructureError past ``MAX_EDGES``.
    """
    sub = _Subdivision(plain)
    total = sub.clean.candidate_count()
    if total > budget:
        raise GenusBudgetError(total, budget)
    # letter i + 1 for vertex i, so that 0 can separate the words of a state;
    # a connected graph has at most MAX_EDGES + 1 < 256 vertices
    letter = {v: i + 1 for i, v in enumerate(plain.vertices)}
    edges = (bytes(sorted((letter[u], letter[v]))) for _, u, v in plain.edges)
    states = {b"\0".join(sorted(edges)): Counter({0: 1})}
    degrees = [len(labels) for labels in sub.labels]
    rotations = {}
    for v in _fixing_order(plain, [factorial(d - 1) for d in degrees]):
        if degrees[v] not in rotations:
            rotations[degrees[v]] = _rotations(bytes(range(degrees[v])))
        states = _fix(states, v + 1, rotations[degrees[v]])
    hist = Counter()
    for faces, count in states[b""].items():
        hist[sub.genus(faces)] += count
    return dict(sorted(hist.items()))
