"""Seeded input generation: relabeled fixtures, bundle graphs, K_{m,n}.

Every generator returns an ``Input``: the graph text the program receives
and the benchmark's own copy of the structure, which the reference checks
use instead of anything the program parsed.  A seed relabels edges and
renames vertices by random permutations, so each generated graph is
isomorphic to its source and every checked invariant stays fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


@dataclass(frozen=True)
class Input:
    """One generated input.

    ``kind`` is "bipartite" or "plain".  For bipartite graphs ``left`` and
    ``right`` are the black and white vertices; for plain graphs ``left``
    holds every vertex and ``right`` is empty.  ``edges`` are
    ``(label, u, v)`` with labels exactly 1..e.
    """

    name: str
    kind: str
    text: str
    left: tuple
    right: tuple
    edges: tuple


def read_fixture(filename):
    """(kind, left, right, edges) of a fixture file, by the benchmark's own parser."""
    left, right, edges = [], [], []
    with open(os.path.join(FIXTURES, filename), encoding="utf-8") as fh:
        for raw in fh:
            toks = raw.split("#", 1)[0].split()
            if not toks:
                continue
            head, args = toks[0], toks[1:]
            if head in ("black", "vertex"):
                left.extend(args)
            elif head == "white":
                right.extend(args)
            elif head == "edge":
                if len(args) == 2:
                    args = [str(len(edges) + 1)] + args
                edges.append((int(args[0]), args[1], args[2]))
            else:
                raise ValueError(f"{filename}: unknown directive {head!r}")
    kind = "plain" if filename.endswith(".g") else "bipartite"
    return kind, left, right, edges


def relabel(name, kind, left, right, edges, rng):
    """An isomorphic copy: random edge labels, vertex names and line order."""
    verts = list(left) + list(right)
    fresh = rng.sample(range(10 * len(verts) + 10), len(verts))
    rename = {v: f"v{n}" for v, n in zip(verts, fresh)}
    perm = list(range(1, len(edges) + 1))
    rng.shuffle(perm)
    new_left = [rename[v] for v in left]
    new_right = [rename[v] for v in right]
    rng.shuffle(new_left)
    rng.shuffle(new_right)
    new_edges = [(perm[l - 1], rename[u], rename[v]) for l, u, v in edges]
    lines = list(new_edges)
    rng.shuffle(lines)
    if kind == "bipartite":
        head = [f"black {' '.join(new_left)}", f"white {' '.join(new_right)}"]
    else:
        head = [f"vertex {' '.join(new_left)}"]
    body = [f"edge {l} {u} {v}" for l, u, v in lines]
    text = "\n".join(head + body) + "\n"
    return Input(name, kind, text, tuple(new_left), tuple(new_right),
                 tuple(sorted(new_edges)))


def fixture(filename, rng):
    kind, left, right, edges = read_fixture(filename)
    return relabel(filename, kind, left, right, edges, rng)


def bundle(k, rng):
    """One black and one white vertex joined by k parallel edges."""
    edges = [(i, "a", "w") for i in range(1, k + 1)]
    return relabel(f"bundle{k}", "bipartite", ["a"], ["w"], edges, rng)


def complete_bipartite_plain(m, n, rng):
    """K_{m,n} in the plain graph format."""
    a = [f"a{i}" for i in range(m)]
    b = [f"b{j}" for j in range(n)]
    edges = [(k + 1, u, v) for k, (u, v) in enumerate((u, v) for u in a for v in b)]
    return relabel(f"K{m},{n}", "plain", a + b, [], edges, rng)
