"""Reference checks that do not trust the code under test.

Everything here works on the benchmark's own copy of each input graph
(``inputs.Input``) and on plain byte tables: a permutation of labels 1..e
is ``bytes`` of length e whose entry i is the 0-based image of label i + 1.
The program's report is first reduced to such tables by ``summarize_report``; the
checks then recompute what they compare against:

* the edge-action group, closed by breadth-first search from generators
  that are each verified to be automorphisms of the graph, with its order
  pinned by the test suite;
* the orbit count and the per-class genus and duality histograms, by
  Burnside's lemma over that group, factored as fixed sigmas times fixed
  taus because a pair is fixed exactly when both rotations are;
* per class: the stabilizer, a canonical key (least conjugate) so classes
  are distinct, the genus by face counting, duality by 2-coloring, and the
  mirror partner by conjugacy;
* monodromy orders on a seeded sample, with sympy;
* genus ranges against Ringel's formulas and the Betti number.
"""

from __future__ import annotations

import itertools
import json
import zlib
from collections import Counter
from math import ceil, factorial, prod

# values pinned by the test suite and the README, per source graph
PINNED = {
    "a4_clean.bg": {"aut": 24, "orbits": 3, "genus": {0: 1, 1: 2}, "dual": {0: 0, 1: 0},
                    "mono": {(0, 12): 1}},
    "k33.bg": {"aut": 36, "orbits": 4, "genus": {1: 2, 2: 2}, "dual": {1: 0, 2: 0},
               "mono": {(1, 181440): 1, (1, 9): 1, (2, 81): 2}},
    "c33.bg": {"aut": 8, "orbits": 8, "genus": {0: 1, 1: 5, 2: 2}, "dual": {0: 0, 1: 0, 2: 0},
               "mono": {(1, 504): 1, (2, 504): 1}},
    "d33.bg": {"aut": 24, "orbits": 4, "genus": {0: 1, 1: 3}, "dual": {0: 0, 1: 0}},
    "k33_clean.bg": {"aut": 72, "orbits": 3, "genus": {1: 2, 2: 1}, "mono": {(1, 18): 1}},
    "k5_clean.bg": {"aut": 120, "orbits": 78, "genus_at": {1: 9},
                    "mono": {(1, 20): 2, (1, 1857945600): 5}},
    "frucht_clean.bg": {"aut": 1, "orbits": 4096, "genus_support": [0, 1, 2, 3]},
    "double_prism.bg": {"aut": 48, "orbits": 1042, "genus": {0: 1, 1: 21, 2: 327, 3: 693},
                        "dual": {0: 1, 1: 6, 2: 25, 3: 6}},
    "bundle4": {"aut": 24},
    "bundle6": {"aut": 720, "orbits": 24},
}

# minimum genus of the plain inputs: Ringel's K_{m,n} and K_n formulas,
# and planarity of the cycle and of the Frucht graph (pinned by the tests)
PLAIN_MU = {
    "K3,5": ceil((3 - 2) * (5 - 2) / 4),
    "k33.g": ceil((3 - 2) * (3 - 2) / 4),
    "k5.g": ceil((5 - 3) * (5 - 4) / 12),
    "frucht.g": 0,
    "c5.g": 0,
}


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


_TAILS = [bytes(range(n, 256)) for n in range(257)]
_DOWN = bytes([0]) + bytes(range(255))  # label l -> index l - 1


def pad(t):
    return t + _TAILS[len(t)]


def inverse(t):
    out = bytearray(len(t))
    for i, x in enumerate(t):
        out[x] = i
    return bytes(out)


def cycle_count(t):
    seen = bytearray(len(t))
    count = 0
    for i in range(len(t)):
        if not seen[i]:
            count += 1
            while not seen[i]:
                seen[i] = 1
                i = t[i]
    return count


def table_of(perm):
    """Byte table of a program Permutation, through its public ``images``."""
    return bytes(perm.images).translate(_DOWN)


# -- the benchmark's own view of a bipartite input ------------------------------

class Graph:
    def __init__(self, inp):
        self.name = inp.name
        self.e = len(inp.edges)
        self.ends = {l - 1: (u, v) for l, u, v in inp.edges}
        self.black = [sorted(l - 1 for l, u, _ in inp.edges if u == b) for b in inp.left]
        self.white = [sorted(l - 1 for l, _, w in inp.edges if w == v) for v in inp.right]
        self.candidates = prod(factorial(len(s) - 1) for s in self.black + self.white)
        self.black_owner = owners(self.black)
        self.white_owner = owners(self.white)


def rotation_systems(e, vertex_labels):
    """Every permutation with one cycle on each vertex's label set."""
    tables = [bytearray(range(e))]
    for labels in vertex_labels:
        first, rest = labels[0], labels[1:]
        cycles = [(first,) + p for p in itertools.permutations(rest)]
        grown = []
        for t in tables:
            for c in cycles:
                u = bytearray(t)
                for i, x in enumerate(c):
                    u[x] = c[(i + 1) % len(c)]
                grown.append(u)
        tables = grown
    return [bytes(t) for t in tables]


def owners(vertex_labels):
    """label -> index of the vertex it belongs to."""
    owner = {}
    for v, labels in enumerate(vertex_labels):
        for x in labels:
            owner[x] = v
    return owner


def is_rotation_system(t, vertex_labels, owner):
    """Each vertex's labels form one cycle of t: walking from the first label
    stays on the vertex and returns exactly after len(labels) steps."""
    for v, labels in enumerate(vertex_labels):
        first = x = labels[0]
        for _ in range(len(labels) - 1):
            x = t[x]
            if x == first or owner[x] != v:
                return False
        if t[x] != first:
            return False
    return True


def genus_of(graph, s, t):
    faces = cycle_count(t.translate(pad(s)))
    defect = graph.e - len(graph.black) - len(graph.white) - faces
    expect(defect % 2 == 0, f"{graph.name}: odd Euler defect")
    return 1 + defect // 2


def dualizable(s, t):
    """Proper 2-coloring of the label graph with edges i-s(i) and i-t(i)."""
    color = [-1] * len(s)
    color[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (s[x], t[x]):
            if y == x or color[y] == color[x]:
                return False
            if color[y] == -1:
                color[y] = color[x] ^ 1
                stack.append(y)
    return -1 not in color


def edge_group(graph, generators, order):
    """All elements generated by ``generators``, each checked to be an automorphism."""
    e = graph.e
    for g in generators:
        expect(sorted(g) == list(range(e)), f"{graph.name}: generator is not a bijection")
        bmap, wmap = {}, {}
        for l in range(e):
            (b, w), (b2, w2) = graph.ends[l], graph.ends[g[l]]
            expect(bmap.setdefault(b, b2) == b2 and wmap.setdefault(w, w2) == w2,
                   f"{graph.name}: generator does not preserve incidence")
        expect(len(set(bmap.values())) == len(bmap) and len(set(wmap.values())) == len(wmap),
               f"{graph.name}: generator is not a vertex bijection")
    ident = bytes(range(e))
    seen = {ident}
    frontier = [ident]
    padded = [pad(g) for g in generators]
    while frontier:
        nxt = []
        for a in frontier:
            for g in padded:
                b = a.translate(g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    expect(len(seen) == order, f"{graph.name}: group order {len(seen)} != pinned {order}")
    return sorted(seen)


def burnside(graph, elems):
    """Orbit count and per-class genus / duality histograms, by Burnside's lemma."""
    sigmas = rotation_systems(graph.e, graph.black)
    taus = rotation_systems(graph.e, graph.white)
    sig_pad = [pad(s) for s in sigmas]
    tau_pad = [pad(t) for t in taus]
    fixed_pairs = 0
    genus, dual = Counter(), Counter()
    for g in elems:
        gp = pad(g)
        fs = [s for s, sp in zip(sigmas, sig_pad) if g.translate(sp) == s.translate(gp)]
        ft = [t for t, tp in zip(taus, tau_pad) if g.translate(tp) == t.translate(gp)]
        for s in fs:
            for t in ft:
                fixed_pairs += 1
                k = genus_of(graph, s, t)
                genus[k] += 1
                dual[k] += dualizable(s, t)
    n = len(elems)
    for count in [fixed_pairs, *genus.values(), *dual.values()]:
        expect(count % n == 0, f"{graph.name}: Burnside sum not divisible by |G|")
    return (fixed_pairs // n,
            {k: v // n for k, v in sorted(genus.items())},
            {k: dual[k] // n for k in sorted(genus)})


# -- classification ------------------------------------------------------------

def summarize_report(report):
    """The report reduced to byte tables and integers, via public fields only."""
    return {
        "group_order": report.group_order,
        "candidates": report.candidate_count,
        "generators": tuple(table_of(g) for g in report.theta.generators),
        "genus_histogram": dict(report.genus_histogram),
        "dualizable_histogram": dict(report.dualizable_histogram),
        "records": tuple(
            (r.orbit_id, table_of(r.representative.sigma), table_of(r.representative.tau),
             r.orbit_length, r.aut_order, r.invariants.genus, r.invariants.dualizable,
             r.mirror_status, r.mirror_partner, r.invariants.monodromy_order,
             r.invariants.regular)
            for r in report.records
        ),
    }


def check_classification(inp, summary, *, with_monodromy):
    """Class-level checks of one report; returns its totals for ``census_reference``."""
    graph = Graph(inp)
    pinned = PINNED[inp.name]
    records = summary["records"]
    expect(summary["candidates"] == graph.candidates,
           f"{inp.name}: candidate count {summary['candidates']} != {graph.candidates}")
    expect(summary["group_order"] == pinned["aut"],
           f"{inp.name}: |G| = {summary['group_order']}, pinned {pinned['aut']}")
    elems = edge_group(graph, summary["generators"], pinned["aut"])

    pairs = {}
    keys = set()
    inv_elems = [(inverse(g), pad(g)) for g in elems]
    total = 0
    for (oid, s, t, length, aut, genus, dual, _, _, _, _) in records:
        expect(is_rotation_system(s, graph.black, graph.black_owner)
               and is_rotation_system(t, graph.white, graph.white_owner),
               f"{inp.name}: orbit {oid} representative is not a rotation pair")
        sp, tp = pad(s), pad(t)
        images = [(gi.translate(sp).translate(g), gi.translate(tp).translate(g))
                  for gi, g in inv_elems]
        stab = sum(1 for im in images if im == (s, t))
        keys.add(min(images))
        expect(aut == stab and length * stab == len(elems),
               f"{inp.name}: orbit {oid} length {length} aut {aut}, stabilizer {stab}")
        expect(genus == genus_of(graph, s, t) and dual == dualizable(s, t),
               f"{inp.name}: orbit {oid} genus or duality")
        total += length
        pairs[oid] = (s, t)
    expect(len(keys) == len(records), f"{inp.name}: two records share a class")
    expect(total == graph.candidates, f"{inp.name}: orbit lengths sum to {total}")

    by_id = {r[0]: r for r in records}
    for (oid, s, t, _, _, _, _, status, partner, _, _) in records:
        target = oid if status == "reflexive" else partner
        expect((status == "reflexive") == (partner is None) and target in pairs,
               f"{inp.name}: orbit {oid} mirror status {status} partner {partner}")
        if status == "chiral":
            expect(by_id[partner][7] == "chiral" and by_id[partner][8] == oid,
                   f"{inp.name}: mirror map is not an involution at orbit {oid}")
        ms, mt = pad(inverse(s)), pad(inverse(t))
        ps, pt = pairs[target]
        expect(any(gi.translate(ms).translate(g) == ps and gi.translate(mt).translate(g) == pt
                   for gi, g in inv_elems),
               f"{inp.name}: mirror of orbit {oid} is not in orbit {target}")

    if with_monodromy:
        seen = Counter((r[5], r[9]) for r in records)
        for key, n in pinned.get("mono", {}).items():
            expect(seen[key] == n, f"{inp.name}: {seen[key]} classes of (genus, order) {key}")
        for r in records:
            expect(r[10] == (r[9] == graph.e), f"{inp.name}: regular flag at orbit {r[0]}")
            expect(r[9] % graph.e == 0, f"{inp.name}: monodromy order not divisible by e")
    else:
        expect(all(r[9] is None for r in records), f"{inp.name}: monodromy computed")

    genus_hist = dict(sorted(Counter(r[5] for r in records).items()))
    dual_hist = {k: sum(1 for r in records if r[5] == k and r[6]) for k in genus_hist}
    expect(summary["genus_histogram"] == genus_hist,
           f"{inp.name}: genus histogram {summary['genus_histogram']} != {genus_hist}")
    expect(summary["dualizable_histogram"] == dual_hist,
           f"{inp.name}: dualizable histogram {summary['dualizable_histogram']} != {dual_hist}")
    return len(records), genus_hist, dual_hist


def census_reference(inp, summary):
    """Burnside totals of the source graph of ``inp``, checked against the pinned values.

    Every relabeling of one source has the same totals, so one Burnside
    count per source serves every pass.
    """
    graph = Graph(inp)
    pinned = PINNED[inp.name]
    elems = edge_group(graph, summary["generators"], pinned["aut"])
    orbits, genus_hist, dual_hist = burnside(graph, elems)
    if "orbits" in pinned:
        expect(orbits == pinned["orbits"], f"{inp.name}: Burnside {orbits} != pinned")
    for key, ref in (("genus", genus_hist), ("dual", dual_hist)):
        if key in pinned:
            expect(ref == pinned[key], f"{inp.name}: Burnside {key} {ref} != pinned")
    for k, n in pinned.get("genus_at", {}).items():
        expect(genus_hist.get(k) == n, f"{inp.name}: genus {k} has {genus_hist.get(k)} classes")
    if "genus_support" in pinned:
        expect(sorted(genus_hist) == pinned["genus_support"], f"{inp.name}: genus support")
    return orbits, genus_hist, dual_hist


def is_giant(order, degree):
    return degree >= 3 and order in (factorial(degree), factorial(degree) // 2)


def check_monodromy_sample(name, records, rng, k):
    """sympy orders for up to k giant and k other classes, chosen by the seed."""
    from sympy.combinatorics import Permutation, PermutationGroup

    giants = [r for r in records if is_giant(r[9], len(r[1]))]
    others = [r for r in records if not is_giant(r[9], len(r[1]))]
    sample = rng.sample(giants, min(k, len(giants))) + rng.sample(others, min(k, len(others)))
    for r in sample:
        group = PermutationGroup([Permutation(list(r[1])), Permutation(list(r[2]))])
        expect(group.order() == r[9], f"{name}: orbit {r[0]} monodromy {r[9]} != sympy")


# -- serialization -------------------------------------------------------------

def cycles_table(text, e):
    """Byte table of a cycle string such as "(1,3,2)(4,5)", by the benchmark's own parser."""
    t = list(range(1, e + 1))
    for body in text[1:-1].split(")("):
        if body:
            labels = list(map(int, body.split(",")))
            for a, b in zip(labels, labels[1:] + labels[:1]):
                t[a - 1] = b
    return bytes(t).translate(_DOWN)


def tree_digest(tree):
    """A checksum of a JSON tree, streamed so that no copy of the tree is built.

    Trees that compare equal digest equally (dict keys are sorted), except
    that an int and an equal float, or a bool and an equal int, differ.
    CRC-32 and Adler-32 together catch accidental differences; ``zlib`` is
    used because the program has loaded it already, where ``hashlib``
    would map OpenSSL into the process and raise its peak RSS.
    """
    crc, adler = 0, 1

    def update(data):
        nonlocal crc, adler
        crc, adler = zlib.crc32(data, crc), zlib.adler32(data, adler)

    def walk(x):
        if isinstance(x, dict):
            update(b"{%d" % len(x))
            for k in sorted(x):
                update(repr(k).encode())
                walk(x[k])
        elif isinstance(x, list):
            update(b"[%d" % len(x))
            for y in x:
                walk(y)
        else:
            update(repr(x).encode())

    walk(tree)
    return crc, adler


def document_view(doc_data, parsed_data):
    """What ``check_document`` needs of the document and of ``parse_report``'s
    result, small enough to outlive them."""
    graph = doc_data["graph"]
    e = graph["e"]
    return {
        "digest": tree_digest(doc_data),
        "round_trips": parsed_data == doc_data,
        "graph": {k: graph[k] for k in ("aut_group_order", "candidate_count", "e")},
        "genus_histogram": doc_data["genus_histogram"],
        "dualizable_histogram": doc_data["dualizable_histogram"],
        "records": sorted(
            (r["orbit_id"], cycles_table(r["sigma"], e), cycles_table(r["tau"], e),
             r["orbit_length"], r["aut_order"], r["genus"], r["dualizable"],
             r["mirror"]["status"], r["mirror"].get("partner_orbit_id"),
             None if r["monodromy_order"] is None else int(r["monodromy_order"]))
            for r in doc_data["records"]),
    }


def check_document(view, text, summary):
    """The emitted JSON reads back to the document, and the document matches the report.

    ``text`` is re-parsed here, so call this after the program's own
    outputs are freed: the parse tree then does not raise the peak RSS.
    """
    expect(tree_digest(json.loads(text)) == view["digest"],
           "emitted JSON differs from the document")
    expect(view["round_trips"], "parse_report does not round-trip")
    graph = view["graph"]
    expect(graph["aut_group_order"] == summary["group_order"]
           and graph["candidate_count"] == str(summary["candidates"]),
           "document graph section disagrees with the report")
    for key in ("genus_histogram", "dualizable_histogram"):
        expect(view[key] == {str(k): v for k, v in summary[key].items()},
               f"document {key} disagrees with the report")
    expect(view["records"] == sorted(r[:10] for r in summary["records"]),
           "document records disagree with the report")


# -- plain graph genus ---------------------------------------------------------

def check_genus(inp, result):
    """``result`` holds mu, nu, the histogram, and tau and the witnesses as
    byte tables on the subdivided graph's labels."""
    histogram = result["histogram"]
    vertices = list(inp.left)
    e = len(inp.edges)
    betti = e - len(vertices) + 1
    clean_black = []
    for v in vertices:
        labels = [2 * l - 2 for l, a, _ in inp.edges if a == v]
        labels += [2 * l - 1 for l, _, b in inp.edges if b == v]
        clean_black.append(sorted(labels))
    systems = prod(factorial(len(s) - 1) for s in clean_black)
    expect(result["mu"] == PLAIN_MU[inp.name],
           f"{inp.name}: mu {result['mu']} != {PLAIN_MU[inp.name]}")
    expect(result["nu"] == betti // 2, f"{inp.name}: nu {result['nu']} != floor({betti}/2)")
    expect(sum(histogram.values()) == systems,
           f"{inp.name}: histogram sums to {sum(histogram.values())}, not {systems}")
    expect(min(histogram) == result["mu"] and max(histogram) == result["nu"],
           f"{inp.name}: histogram support disagrees with the range")
    tau = bytes(i ^ 1 for i in range(2 * e))
    expect(result["tau"] == tau, f"{inp.name}: tau does not pair the half-edges")

    def genus_of_sigma(s):
        defect = e - len(vertices) - cycle_count(tau.translate(pad(s)))
        expect(defect % 2 == 0, f"{inp.name}: odd Euler defect")
        return 1 + defect // 2

    owner = owners(clean_black)
    for key, genus in (("witness_min", result["mu"]), ("witness_max", result["nu"])):
        expect(is_rotation_system(result[key], clean_black, owner),
               f"{inp.name}: {key} is not a rotation system")
        expect(genus_of_sigma(result[key]) == genus, f"{inp.name}: {key} genus")
    if systems <= 10**4:
        own = Counter(genus_of_sigma(s) for s in rotation_systems(2 * e, clean_black))
        expect(dict(own) == histogram, f"{inp.name}: histogram {histogram} != {dict(own)}")
