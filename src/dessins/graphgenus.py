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
and closed faces + 1 from below.

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

``genus_histogram`` visits every leaf, with a vertex w of largest degree
innermost.  Once every other vertex is fixed, the open paths run from the
darts of w to the tau-images of its darts, which defines a bijection f of
the darts of w; a rotation r at w then closes exactly the cycles of r o f.
For any permutation g of the darts, g r g^-1 o g f g^-1 has as many cycles
as r o f, and g r g^-1 runs over all full cycles as r does; so the
distribution of that count over the (deg w - 1)! rotations depends only on
the cycle type of f, one table entry per partition of deg w.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bgraph import GraphStructureError, cleanify
from .perm import MAX_DEGREE, Permutation, cycle_type
from .rotation import _apply_cycle, _cycles_at

DEFAULT_GENUS_BUDGET = 10**7

# the subdivision's 2e labels, 0-based, must fit in a byte
MAX_EDGES = (MAX_DEGREE + 1) // 2


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
    """The subdivided graph, its fixed tau and the links of every local rotation."""

    def __init__(self, plain):
        if len(plain.edges) > MAX_EDGES:
            raise GraphStructureError(
                f"{len(plain.edges)} edges exceed the limit of {MAX_EDGES} "
                "for genus-range, whose subdivision has two labels per edge"
            )
        # gamma has the parity of e - alpha
        self.excess = len(plain.edges) - len(plain.vertices)
        self.clean = clean = cleanify(plain)
        self.n = n = clean.e
        tau = bytearray(range(n))
        for labels in clean.white_labels.values():
            _apply_cycle(tau, labels)
        self.tau = tau
        self.opts = [_cycles_at(clean.black_labels[v]) for v in clean.blacks]
        self.links = [[_links(cycle, tau) for cycle in opts] for opts in self.opts]

    def genus(self, gamma):
        defect = self.excess - gamma
        if defect % 2:
            raise AssertionError(f"odd Euler defect {defect}")
        return 1 + defect // 2

    def sigma(self, digits):
        table = bytearray(range(self.n))
        for opts, d in zip(self.opts, digits):
            _apply_cycle(table, opts[d])
        return Permutation._from_table(table, self.n)


def _links(cycle, tau):
    """The links tau(d) -> sigma(d) fixed by one local rotation, 0-based."""
    darts = [label - 1 for label in cycle]
    return tuple((tau[d], s) for d, s in zip(darts, darts[1:] + darts[:1]))


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


def _cycle_lengths(table):
    return cycle_type(Permutation._from_table(bytes(table), len(table))).lengths


def _closing_table(kind):
    """Number of full cycles r with c cycles in r o f, by c, for f of this kind."""
    f = []
    for length in kind:
        start = len(f)
        f += [*range(start + 1, start + length), start]
    counts = Counter()
    for cycle in _cycles_at(range(1, len(f) + 1)):
        r = bytearray(range(len(f)))
        _apply_cycle(r, cycle)
        counts[len(_cycle_lengths([r[y] for y in f]))] += 1
    return counts


def genus_histogram(plain, budget=DEFAULT_GENUS_BUDGET):
    """Count of rotation systems per genus (not up to isomorphism).

    Raises GenusBudgetError when there are more than ``budget`` systems,
    and GraphStructureError past ``MAX_EDGES``.
    """
    sub = _Subdivision(plain)
    total = sub.clean.candidate_count()
    if total > budget:
        raise GenusBudgetError(total, budget)
    # fewest options outermost keeps the inner levels few; w innermost
    order = sorted(range(len(sub.links)), key=lambda v: len(sub.links[v]))
    w = order.pop()
    levels = [sub.links[v] for v in order]
    darts = [label - 1 for label in sub.opts[w][0]]
    where = {x: i for i, x in enumerate(darts)}
    tau = sub.tau
    head_of = list(range(sub.n))
    tail_of = list(range(sub.n))
    leaves = Counter()

    def visit(i, closed):
        if i == len(levels):
            f = tuple(where[tau[tail_of[x]]] for x in darts)
            leaves[closed, f] += 1
            return
        for links in levels[i]:
            more = _join(head_of, tail_of, links)
            visit(i + 1, closed + more)
            _split(head_of, tail_of, links)

    visit(0, 0)
    tables = {}
    hist = Counter()
    for (closed, f), count in leaves.items():
        kind = _cycle_lengths(f)
        if kind not in tables:
            tables[kind] = _closing_table(kind)
        for more, m in tables[kind].items():
            hist[sub.genus(closed + more)] += count * m
    return dict(sorted(hist.items()))
