"""Bipartite multigraphs with labeled edges, and their edge-acting automorphisms.

The color-preserving automorphism search is a partition-refinement
backtracker over vertices; each vertex automorphism extends to a unique
label-order-preserving edge bijection, and parallel edge classes contribute
generators realizing the full symmetric group on each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import factorial

from .perm import MAX_DEGREE, Permutation
from .permgroup import PermGroup


class GraphParseError(ValueError):
    """Invalid graph file; message carries the offending line number."""


class GraphStructureError(ValueError):
    """Structurally invalid graph (disconnected, bad labels, ...)."""


@dataclass(frozen=True)
class GraphPassport:
    black_degrees: tuple
    white_degrees: tuple

    def __str__(self):
        return _format_passport(self.black_degrees, self.white_degrees)


def _format_passport(*degree_lists):
    """``(3^2,4;2^5)``: each sorted degree list run-length coded, joined by ";"."""
    parts = []
    for degs in degree_lists:
        runs = []
        for d, run in groupby(degs):
            n = len(list(run))
            runs.append(f"{d}^{n}" if n > 1 else f"{d}")
        parts.append(",".join(runs))
    return "(" + ";".join(parts) + ")"


def _check_connected(vertices, edges):
    """Refuse unless the ``(label, u, v)`` edges connect all the vertices."""
    adj = {v: set() for v in vertices}
    for _, u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(adj):
        missing = sorted(set(adj) - seen, key=str)
        raise GraphStructureError(f"graph is disconnected (unreachable: {missing})")


def _check_label_count(e, limit=MAX_DEGREE):
    if e > limit:
        raise GraphStructureError(f"{e} edges exceed the limit of {limit} labels")


class BipartiteGraph:
    """Connected bipartite multigraph with edges labeled exactly 1..e.

    More than ``label_limit`` edges are refused: permutations of the labels
    keep them in a byte.
    """

    def __init__(self, blacks, whites, edges, label_limit=MAX_DEGREE):
        self.blacks = tuple(blacks)
        self.whites = tuple(whites)
        self.edges = tuple((int(l), b, w) for l, b, w in edges)
        _check_label_count(len(self.edges), label_limit)
        self._validate()
        self.e = len(self.edges)
        self.black_labels = {v: [] for v in self.blacks}
        self.white_labels = {v: [] for v in self.whites}
        self.endpoints = {}
        for label, b, w in self.edges:
            self.black_labels[b].append(label)
            self.white_labels[w].append(label)
            self.endpoints[label] = (b, w)
        for d in (self.black_labels, self.white_labels):
            for v in d:
                d[v].sort()

    def _validate(self):
        if not self.edges:
            raise GraphStructureError("graph has no edges")
        bset, wset = set(self.blacks), set(self.whites)
        if len(bset) != len(self.blacks) or len(wset) != len(self.whites):
            raise GraphStructureError("duplicate vertex id")
        if bset & wset:
            raise GraphStructureError(f"vertex id used in both colors: {sorted(bset & wset)}")
        labels = sorted(l for l, _, _ in self.edges)
        if labels != list(range(1, len(labels) + 1)):
            seen = set()
            for l in labels:
                if l in seen:
                    raise GraphStructureError(f"duplicate edge label {l}")
                seen.add(l)
            raise GraphStructureError(
                f"edge labels must be exactly 1..{len(labels)}, got {labels}"
            )
        for l, b, w in self.edges:
            if b not in bset:
                raise GraphStructureError(f"edge {l}: unknown black vertex {b!r}")
            if w not in wset:
                raise GraphStructureError(f"edge {l}: unknown white vertex {w!r}")
        _check_connected(self.blacks + self.whites, self.edges)

    def degree(self, vertex):
        if vertex in self.black_labels:
            return len(self.black_labels[vertex])
        return len(self.white_labels[vertex])

    def incident_labels(self, vertex):
        if vertex in self.black_labels:
            return tuple(self.black_labels[vertex])
        return tuple(self.white_labels[vertex])

    def passport(self):
        return GraphPassport(
            tuple(sorted(len(v) for v in self.black_labels.values())),
            tuple(sorted(len(v) for v in self.white_labels.values())),
        )

    def candidate_count(self):
        """Number of rotation-system pairs: product of (deg-1)! over all vertices."""
        n = 1
        for v in self.blacks:
            n *= factorial(len(self.black_labels[v]) - 1)
        for v in self.whites:
            n *= factorial(len(self.white_labels[v]) - 1)
        return n

    def __repr__(self):
        return f"BipartiteGraph(e={self.e}, passport={self.passport()})"


class PlainGraph:
    """Connected multigraph; loops and parallel edges allowed."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple((int(l), u, v) for l, u, v in edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphStructureError("duplicate vertex id")
        if not self.edges:
            raise GraphStructureError("graph has no edges")
        labels = sorted(l for l, _, _ in self.edges)
        if labels != list(range(1, len(labels) + 1)):
            raise GraphStructureError(
                f"edge labels must be exactly 1..{len(labels)}, got {labels}"
            )
        vset = set(self.vertices)
        for l, u, v in self.edges:
            if u not in vset or v not in vset:
                raise GraphStructureError(f"edge {l}: unknown vertex")
        _check_connected(self.vertices, self.edges)


# -- file formats -----------------------------------------------------------

def _parse_file(text, kinds):
    """The vertex ids declared by each directive in ``kinds``, and the edges.

    ``edge`` lines are either all ``edge <label> <u> <v>`` or all
    ``edge <u> <v>`` (labels then assigned 1..e in file order); edges come
    back as ``(lineno, label, u, v)``.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] not in kinds and toks[0] != "edge":
            raise GraphParseError(f"line {lineno}: unknown directive {toks[0]!r}")
        rows.append((lineno, toks[0], toks[1:]))
    ids = {kind: [] for kind in kinds}
    edges = []
    for lineno, kind, args in rows:
        if kind != "edge":
            if not args:
                raise GraphParseError(f"line {lineno}: '{kind}' needs at least one id")
            ids[kind].extend(args)
        elif len(args) == 3:
            if not args[0].isdecimal():
                raise GraphParseError(
                    f"line {lineno}: edge label {args[0]!r} is not an integer"
                )
            edges.append((lineno, int(args[0]), args[1], args[2]))
        elif len(args) == 2:
            edges.append((lineno, None, args[0], args[1]))
        else:
            raise GraphParseError(
                f"line {lineno}: 'edge' takes 2 or 3 arguments, got {len(args)}"
            )
    unlabeled = [lineno for lineno, label, _, _ in edges if label is None]
    if unlabeled and len(unlabeled) != len(edges):
        raise GraphParseError(
            f"line {unlabeled[0]}: unlabeled edge in a file with labeled edges"
        )
    if unlabeled:
        edges = [(lineno, i, u, v) for i, (lineno, _, u, v) in enumerate(edges, 1)]
    return ids, edges


def parse_bipartite(text):
    """Parse the line-oriented bipartite graph format.

    ``black <id>...`` / ``white <id>...`` declare vertices; ``edge`` lines are
    either all ``edge <label> <black> <white>`` or all ``edge <black> <white>``
    (labels then assigned 1..e in file order).
    """
    ids, edges = _parse_file(text, ("black", "white"))
    blacks, whites = ids["black"], ids["white"]
    bset, wset = set(blacks), set(whites)
    for lineno, _, b, w in edges:
        if b == w:
            raise GraphParseError(f"line {lineno}: loop edge {b!r}-{w!r} is not bipartite")
        if b not in bset:
            raise GraphParseError(f"line {lineno}: unknown black vertex {b!r}")
        if w not in wset:
            raise GraphParseError(f"line {lineno}: unknown white vertex {w!r}")
    try:
        return BipartiteGraph(blacks, whites, [edge[1:] for edge in edges])
    except GraphStructureError as exc:
        raise GraphParseError(str(exc)) from exc


def parse_plain(text):
    """Parse the plain graph format: ``vertex <id>...`` and ``edge [label] <u> <v>``."""
    ids, edges = _parse_file(text, ("vertex",))
    vertices = ids["vertex"]
    vset = set(vertices)
    for lineno, _, u, v in edges:
        if u not in vset or v not in vset:
            raise GraphParseError(f"line {lineno}: unknown vertex")
    try:
        return PlainGraph(vertices, [edge[1:] for edge in edges])
    except GraphStructureError as exc:
        raise GraphParseError(str(exc)) from exc


def cleanify(plain):
    """Subdivide every edge of a plain graph with a degree-2 white midpoint.

    Plain edge k becomes white vertex ``e<k>`` with clean edges 2k-1 (to the
    first endpoint) and 2k (to the second); a loop yields two parallel clean
    edges at its vertex.  The genus search keeps these labels 0-based, so
    up to 256 of them fit in a byte.
    """
    blacks = list(plain.vertices)
    whites = []
    edges = []
    for label, u, v in sorted(plain.edges):
        w = f"e{label}"
        whites.append(w)
        edges.append((2 * label - 1, u, w))
        edges.append((2 * label, v, w))
    return BipartiteGraph(blacks, whites, edges, label_limit=MAX_DEGREE + 1)


# -- automorphisms ----------------------------------------------------------

@dataclass(frozen=True)
class EdgeActionGroup:
    """The color-preserving automorphisms of a bipartite graph, acting on labels.

    ``theta`` is generated by the vertex automorphisms other than the
    identity, in backtracking order, then by a swap and a cycle of each
    parallel class, classes sorted by labels.  ``group_order`` is the group
    order counted on the vertex side (vertex automorphisms times
    parallel-class permutations), asserted equal to ``theta.order()``.
    """

    theta: PermGroup
    group_order: int


def _vertex_automorphisms(graph):
    """All color-preserving vertex automorphisms, by refinement + backtracking.

    Each comes back as the backtracker's map, a dict from ``("b", v)`` and
    ``("w", v)`` to the image vertex in the same form.  Every traversal
    below runs over sorted structures so the result order is independent of
    hash seeds, run to run.
    """
    verts = [("b", v) for v in graph.blacks] + [("w", v) for v in graph.whites]
    mult = {}
    nbr_sets = {u: set() for u in verts}
    for _, b, w in graph.edges:
        key = (("b", b), ("w", w))
        mult[key] = mult.get(key, 0) + 1
        nbr_sets[("b", b)].add(("w", w))
        nbr_sets[("w", w)].add(("b", b))
    nbrs = {u: tuple(sorted(s, key=lambda x: (x[0], str(x[1])))) for u, s in nbr_sets.items()}

    def m(u, v):
        if u[0] == "b":
            return mult.get((u, v), 0)
        return mult.get((v, u), 0)

    # iterated invariant refinement: color, degree, then neighbor signatures
    inv = {u: (u[0], graph.degree(u[1])) for u in verts}
    nclasses = len(set(inv.values()))
    while True:
        sig = {
            u: (inv[u], tuple(sorted((inv[v], m(u, v)) for v in nbrs[u])))
            for u in verts
        }
        ids = {s: i for i, s in enumerate(sorted(set(sig.values()), key=repr))}
        inv = {u: (u[0], ids[sig[u]]) for u in verts}
        if len(set(inv.values())) == nclasses:
            break
        nclasses = len(set(inv.values()))

    # search order: seed in the rarest class, then always a vertex with the
    # most already-placed neighbors, so candidates stay locally constrained
    class_size = {}
    for u in verts:
        class_size[inv[u]] = class_size.get(inv[u], 0) + 1
    order = []
    placed = set()
    remaining = sorted(verts, key=str)
    while remaining:
        if order:
            pick = max(
                remaining,
                key=lambda u: (
                    sum(1 for x in nbrs[u] if x in placed),
                    -class_size[inv[u]],
                    str(u),
                ),
            )
        else:
            pick = min(remaining, key=lambda u: (class_size[inv[u]], str(u)))
        order.append(pick)
        placed.add(pick)
        remaining.remove(pick)

    results = []
    fwd, back = {}, {}

    sorted_verts = sorted(verts, key=str)

    def candidates(u):
        anchor = None
        for x in nbrs[u]:
            if x in fwd:
                anchor = x
                break
        if anchor is None:
            return [v for v in sorted_verts if inv[v] == inv[u] and v not in back]
        return [v for v in nbrs[fwd[anchor]] if inv[v] == inv[u] and v not in back]

    def extend(i):
        if i == len(order):
            results.append(dict(fwd))
            return
        u = order[i]
        for v in candidates(u):
            ok = True
            for x in fwd:
                if m(u, x) != m(v, fwd[x]):
                    ok = False
                    break
            if ok:
                fwd[u] = v
                back[v] = u
                extend(i + 1)
                del back[v]
                del fwd[u]

    extend(0)
    return results


def automorphism_group(graph):
    """Full group of color-preserving automorphisms with its action on labels."""
    _check_label_count(graph.e)
    autos = _vertex_automorphisms(graph)
    by_pair = {}
    for label, b, w in graph.edges:
        by_pair.setdefault((b, w), []).append(label)
    for ls in by_pair.values():
        ls.sort()

    # each vertex automorphism moves the sorted labels of every (b, w) pair
    # onto those of its image pair, in order
    ident = list(range(1, graph.e + 1))
    gens = []
    for fwd in autos:
        images = [0] * graph.e
        for (b, w), ls in by_pair.items():
            target = by_pair[(fwd[("b", b)][1], fwd[("w", w)][1])]
            if len(target) != len(ls):
                raise GraphStructureError("vertex map does not preserve multiplicities")
            for a, t in zip(ls, target):
                images[a - 1] = t
        if images != ident:
            gens.append(Permutation(images))
    parallel = sorted(ls for ls in by_pair.values() if len(ls) > 1)
    for ls in parallel:
        swap = ident[:]
        swap[ls[0] - 1], swap[ls[1] - 1] = ls[1], ls[0]
        gens.append(Permutation(swap))
        if len(ls) > 2:
            cyc = ident[:]
            for i, l in enumerate(ls):
                cyc[l - 1] = ls[(i + 1) % len(ls)]
            gens.append(Permutation(cyc))

    theta = PermGroup(gens, degree=graph.e)
    vertex_count = len(autos)
    for ls in parallel:
        vertex_count *= factorial(len(ls))
    if theta.order() != vertex_count:
        raise GraphStructureError(
            "edge action is not faithful: "
            f"|theta| = {theta.order()} but |G| = {vertex_count}"
        )
    return EdgeActionGroup(theta, vertex_count)
