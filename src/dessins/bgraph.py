"""Bipartite multigraphs with labeled edges, and their edge-acting automorphisms.

The color-preserving automorphism search is a partition-refinement
backtracker over vertices that prunes by orbits: it keeps one leaf per new
orbit point of each level of its vertex order, at most V - 1 generators in
all, and counts the group as the product of those orbits' lengths.  Each
generator is the unique label-order-preserving edge bijection of its
vertex map, in 0-based image bytes, and parallel edge classes contribute
generators realizing the full symmetric group on each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import factorial, prod

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


def _edge_label(label):
    """An edge label as an int: an int that is not a bool, or decimal text."""
    if isinstance(label, int) and not isinstance(label, bool):
        return int(label)
    if isinstance(label, str) and label.isdecimal():
        return int(label)
    raise GraphStructureError(f"edge label {label!r} is not an integer")


class BipartiteGraph:
    """Connected bipartite multigraph with edges labeled exactly 1..e.

    An edge label is an int or decimal text such as ``"1"``; any other
    label (a float, a bool, None, other text) raises ``GraphStructureError``.
    More than ``MAX_DEGREE`` (256) edges are refused here, the one place a
    label count is checked: every table keeps a label 0-based in a byte.
    ``degree`` of a vertex not in the graph raises ``ValueError``.
    """

    def __init__(self, blacks, whites, edges):
        self.blacks = tuple(blacks)
        self.whites = tuple(whites)
        self.edges = tuple((_edge_label(l), b, w) for l, b, w in edges)
        if len(self.edges) > MAX_DEGREE:
            raise GraphStructureError(
                f"{len(self.edges)} edges exceed the limit of {MAX_DEGREE} labels"
            )
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
        return len(self._labels(vertex))

    def _labels(self, vertex):
        """The sorted labels at a vertex; ``ValueError`` if it is not one."""
        for side in (self.black_labels, self.white_labels):
            if vertex in side:
                return side[vertex]
        raise ValueError(f"unknown vertex {vertex!r}")

    def passport(self):
        return GraphPassport(
            tuple(sorted(len(v) for v in self.black_labels.values())),
            tuple(sorted(len(v) for v in self.white_labels.values())),
        )

    def candidate_count(self):
        """Number of rotation-system pairs: product of (deg-1)! over all vertices."""
        return prod(factorial(len(labels) - 1)
                    for side in (self.black_labels, self.white_labels)
                    for labels in side.values())

    def __repr__(self):
        return f"BipartiteGraph(e={self.e}, passport={self.passport()})"


class PlainGraph:
    """Connected multigraph; loops and parallel edges allowed.

    Edge labels are read as in ``BipartiteGraph``: an int or decimal text,
    else ``GraphStructureError``.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple((_edge_label(l), u, v) for l, u, v in edges)
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
            for x in (u, v):
                if x not in vset:
                    raise GraphStructureError(f"edge {l}: unknown vertex {x!r}")
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
        for x in (u, v):
            if x not in vset:
                raise GraphParseError(f"line {lineno}: unknown vertex {x!r}")
    try:
        return PlainGraph(vertices, [edge[1:] for edge in edges])
    except GraphStructureError as exc:
        raise GraphParseError(str(exc)) from exc


def cleanify(plain):
    """Subdivide every edge of a plain graph with a degree-2 white midpoint.

    Plain edge k becomes white vertex ``e<k>`` with clean edges 2k-1 (to the
    first endpoint) and 2k (to the second); a loop yields two parallel clean
    edges at its vertex.  Like any bipartite graph, the subdivision holds
    at most 256 labels, so at most 128 plain edges.
    """
    blacks = list(plain.vertices)
    whites = []
    edges = []
    for label, u, v in sorted(plain.edges):
        w = f"e{label}"
        whites.append(w)
        edges.append((2 * label - 1, u, w))
        edges.append((2 * label, v, w))
    return BipartiteGraph(blacks, whites, edges)


# -- automorphisms ----------------------------------------------------------

@dataclass(frozen=True)
class EdgeActionGroup:
    """The color-preserving automorphisms of a bipartite graph, acting on labels.

    ``theta`` is generated by the label actions of the search's vertex
    generators, in the order found, then by a swap and a cycle of each
    parallel class, classes sorted by labels.  That order reaches the
    output only through ``autgroup``, which prints the generators:
    stabilizers are listed by table (``classify._Action.fixing``).
    ``group_order`` is the group order counted on the vertex side (vertex
    automorphisms times parallel-class permutations), asserted equal to
    ``theta.order()``.

    ``group_order`` is also ``theta``'s ``order_bound``.  The automorphisms
    of the multigraph act faithfully on the labels: every vertex lies on an
    edge, so the edge map determines the vertex map.  The search counts the
    vertex automorphisms as the product of its orbit lengths per level,
    one orbit of G_i on u_i per level (``_vertex_automorphisms``), and each
    extends to an edge map in the product of the parallel classes'
    factorials ways, so that label action has exactly ``group_order``
    elements, and ``theta`` is a subgroup of it.  So theta's build stops
    verifying once its basic orbits reach that order; if they never do, the
    verification runs to the end and the mismatch is refused.
    """

    theta: PermGroup
    group_order: int


def _pair_labels(graph):
    """Each (black, white) pair, keyed ``(("b", b), ("w", w))`` as the search
    names vertices, to its sorted 0-based labels as bytes."""
    pairs = {}
    for label, b, w in sorted(graph.edges):
        pairs.setdefault((("b", b), ("w", w)), bytearray()).append(label - 1)
    return {pair: bytes(labels) for pair, labels in pairs.items()}


def _vertex_automorphisms(graph):
    """Generators of the color-preserving vertex automorphisms, and their count.

    Each generator comes back as its action on the labels, ``graph.e``
    0-based image bytes: it moves the sorted labels of every (b, w) pair
    onto those of the image pair, in order.  Every traversal below runs
    over sorted structures so the result order is independent of hash
    seeds, run to run.

    The search walks the levels of its vertex order u_0, u_1, ... from the
    deepest to the root, every vertex before the level mapped to itself
    (McKay and Piperno's orbit pruning, "Practical graph isomorphism, II",
    2014).  Let G_i be the automorphisms fixing u_0 .. u_(i-1).  At level
    i, a candidate image v of u_i already in the orbit of u_i under the
    generators found so far is skipped; for any other, the first leaf
    below u_i -> v, if there is one, becomes a generator.  Generators found
    at level i or deeper fix u_0 .. u_(i-1), so they lie in G_i; and by
    induction from G_n = 1 they generate G_(i+1) when level i starts.
    Every point of u_i's orbit under G_i is reached or skipped as already
    in the orbit, so after level i the generators reach all of it, and
    with G_(i+1) they generate G_i (Schreier; Seress, *Permutation Group
    Algorithms*, ch. 4).  So |G_0| is the product over the levels of u_i's
    orbit length, and as each generator merges two orbits of the vertices,
    there are at most V - 1 of them.

    A candidate v for u must keep the edge count to every placed vertex x,
    ``adj[u][x] == adj[v][fwd[x]]`` (absent is 0).  The check reads only u's
    c placed neighbours and asks v to have exactly c placed neighbours: as
    fwd is injective, their images are then all of v's placed neighbours, so
    placed non-neighbours of u map to non-neighbours of v.  The same leaves
    come out, in the same order, as with the check against every placed x.
    """
    verts = [("b", v) for v in graph.blacks] + [("w", v) for v in graph.whites]
    adj = {u: {} for u in verts}    # adj[u][v]: edges between u and v
    for _, b, w in graph.edges:
        bu, wu = ("b", b), ("w", w)
        adj[bu][wu] = adj[bu].get(wu, 0) + 1
        adj[wu][bu] = adj[wu].get(bu, 0) + 1
    nbrs = {u: tuple(sorted(a, key=lambda x: (x[0], str(x[1])))) for u, a in adj.items()}

    # iterated invariant refinement: color, degree, then neighbor signatures
    inv = {u: (u[0], graph.degree(u[1])) for u in verts}
    nclasses = len(set(inv.values()))
    while True:
        sig = {
            u: (inv[u], tuple(sorted((inv[v], k) for v, k in adj[u].items())))
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

    pairs = _pair_labels(graph)
    source = b"".join(pairs.values())
    sizes = list(map(len, pairs.values()))
    fwd = {u: u for u in order}
    back = dict(fwd)

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

    def placeable(u):
        """The candidates for u that keep the edge counts to the placed vertices."""
        images = [(fwd[x], k) for x, k in adj[u].items() if x in fwd]
        return [v for v in candidates(u)
                if all(adj[v].get(y) == k for y, k in images)
                and sum(1 for y in adj[v] if y in back) == len(images)]

    def first_leaf(i, images):
        """The first complete map that sends order[i] into ``images`` and
        extends the placed prefix, or None."""
        u = order[i]
        for v in images:
            fwd[u] = v
            back[v] = u
            if i + 1 == len(order):
                leaf = dict(fwd)
            else:
                leaf = first_leaf(i + 1, placeable(order[i + 1]))
            del back[v], fwd[u]
            if leaf is not None:
                return leaf
        return None

    # orbit[x]: x's orbit under the generators so far, one tuple shared by
    # its members
    orbit = {u: (u,) for u in verts}
    generators = []
    count = 1
    for i in reversed(range(len(order))):
        u = order[i]
        del fwd[u], back[u]
        for v in placeable(u):
            leaf = None if orbit[v] is orbit[u] else first_leaf(i, (v,))
            if leaf is None:
                continue
            targets = [pairs[leaf[b], leaf[w]] for b, w in pairs]
            if list(map(len, targets)) != sizes:
                raise GraphStructureError("vertex map does not preserve multiplicities")
            generators.append(bytes.maketrans(source, b"".join(targets))[: graph.e])
            for x, y in leaf.items():
                if orbit[x] is not orbit[y]:
                    merged = orbit[x] + orbit[y]
                    for z in merged:
                        orbit[z] = merged
        count *= len(orbit[u])
    return generators, count


def automorphism_group(graph):
    """Full group of color-preserving automorphisms with its action on labels."""
    tables, vertex_count = _vertex_automorphisms(graph)
    e = graph.e
    gens = [Permutation._from_table(t, e) for t in tables]
    parallel = sorted(ls for ls in _pair_labels(graph).values() if len(ls) > 1)
    for ls in parallel:
        gens.append(Permutation._from_table(bytes.maketrans(ls[:2], ls[1::-1]), e))
        if len(ls) > 2:
            gens.append(Permutation._from_table(bytes.maketrans(ls, ls[1:] + ls[:1]), e))
        vertex_count *= factorial(len(ls))

    theta = PermGroup(gens, degree=e, order_bound=vertex_count)
    if theta.order() != vertex_count:
        raise GraphStructureError(
            "edge action is not faithful: "
            f"|theta| = {theta.order()} but |G| = {vertex_count}"
        )
    return EdgeActionGroup(theta, vertex_count)
