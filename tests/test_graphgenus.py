import os
import random
import tracemalloc
from collections import Counter
from itertools import product

import networkx as nx
import pytest

from dessins import (
    GenusBudgetError,
    GraphStructureError,
    PlainGraph,
    classify,
    cleanify,
    genus_histogram,
    genus_range,
    invariants,
    parse_plain,
)
from dessins import graphgenus
from dessins.rotation import RotationPair, _cycles_at, membership_failure

from conftest import FIXTURES, load_plain

import genus_oracle

# K_{3,4} and two triangles joined by a bridge, whose maximum genus 0 is
# below floor(beta / 2) = 1
K34 = "vertex a1 a2 a3 b1 b2 b3 b4\n" + "".join(
    f"edge {k} a{i} b{j}\n"
    for k, (i, j) in enumerate(product((1, 2, 3), (1, 2, 3, 4)), 1)
)
DUMBBELL = """vertex c x a b y z
edge 1 a b
edge 2 b c
edge 3 c a
edge 4 c x
edge 5 x y
edge 6 y z
edge 7 z x
"""
K35 = PlainGraph([*"abc", *"vwxyz"], [
    (k, u, v) for k, (u, v) in enumerate(product("abc", "vwxyz"), 1)])


def named_plain(name):
    if name == "k35":
        return K35
    if name == "ladder":
        return circular_ladder(11)
    return parse_plain(DUMBBELL) if name == "dumbbell" else load_plain(name)


def validate_witness(plain, result):
    """Recompute the witness genera through the dessin invariants."""
    clean = result.clean
    for witness, genus in ((result.witness_min, result.mu),
                           (result.witness_max, result.nu)):
        assert membership_failure(clean, witness, result.tau) is None
        pair = RotationPair(witness, result.tau, clean)
        assert invariants(pair, with_monodromy=False).genus == genus


def test_cycle_graph_genus_zero():
    result = genus_range(load_plain("c5.g"))
    assert (result.mu, result.nu) == (0, 0)
    validate_witness(load_plain("c5.g"), result)


def test_k5_genus_one():
    plain = load_plain("k5.g")
    result = genus_range(plain)
    assert result.mu == 1
    assert result.nu == 3
    assert result.gamma_max == 5
    validate_witness(plain, result)


def test_k33_genus_one():
    plain = load_plain("k33.g")
    result = genus_range(plain)
    assert result.mu == 1
    validate_witness(plain, result)


def test_triangle_histogram():
    assert genus_histogram(load_plain("c3.g")) == {0: 1}


def test_single_edge_histogram():
    plain = parse_plain("vertex a b\nedge 1 a b\n")
    assert genus_histogram(plain) == {0: 1}
    result = genus_range(plain)
    assert (result.mu, result.nu) == (0, 0)


def test_path_graph_flat():
    plain = parse_plain("vertex a b c\nedge 1 a b\nedge 2 b c\n")
    result = genus_range(plain)
    assert (result.mu, result.nu) == (0, 0)


def test_frucht_histogram_support():
    hist = genus_histogram(load_plain("frucht.g"))
    assert sorted(hist) == [0, 1, 2, 3]
    assert sum(hist.values()) == 4096


def test_histogram_extremes_match_range():
    for name in ("k5.g", "k33.g", "frucht.g"):
        plain = load_plain(name)
        hist = genus_histogram(plain)
        result = genus_range(plain)
        assert result.mu == min(hist)
        assert result.nu == max(hist)


def test_budget_refusal():
    # the range counts search nodes: K5 needs 35, so 20 is refused on the
    # 21st; the histogram refuses its 6^5 = 7776 systems up front
    with pytest.raises(GenusBudgetError, match="21 search nodes exceed budget 20"):
        genus_range(load_plain("k5.g"), budget=20)
    with pytest.raises(GenusBudgetError, match="7776 rotation systems exceed budget 100"):
        genus_histogram(load_plain("k5.g"), budget=100)


def test_k6_range_within_default_budget():
    # Ringel-Youngs: the genus of K6 is ceil((6-3)(6-4)/12) = 1; its 24^6
    # rotation systems are far past the budget, its search nodes are not
    plain = load_plain("k6.g")
    result = genus_range(plain)
    assert (result.mu, result.nu) == (1, 5)
    assert (result.gamma_max, result.gamma_min) == (9, 1)
    validate_witness(plain, result)
    with pytest.raises(GenusBudgetError):
        genus_histogram(plain)


def test_k6_histogram():
    # all 24^6 systems, as the earlier leaf-by-leaf search counted them
    plain = load_plain("k6.g")
    hist = genus_histogram(plain, budget=24**6)
    assert hist == {1: 1800, 2: 654576, 3: 24613800, 4: 124250208, 5: 41582592}
    assert sum(hist.values()) == 24**6
    result = genus_range(plain)
    assert (min(hist), max(hist)) == (result.mu, result.nu) == (1, 5)


def relabeled(plain, seed):
    """An isomorphic copy with shuffled edge labels, vertex names, vertex
    and edge listing order and edge ends."""
    rng = random.Random(seed)
    names = rng.sample(range(10 * len(plain.vertices)), len(plain.vertices))
    rename = {v: f"v{n}" for v, n in zip(plain.vertices, names)}
    labels = list(range(1, len(plain.edges) + 1))
    rng.shuffle(labels)
    edges = [(labels[l - 1], *rng.sample((rename[u], rename[v]), 2))
             for l, u, v in plain.edges]
    rng.shuffle(edges)
    vertices = list(rename.values())
    rng.shuffle(vertices)
    return PlainGraph(vertices, edges)


@pytest.mark.parametrize("name", ["k35", "frucht.g", "dumbbell"])
def test_histogram_independent_of_labels(name):
    # the fixing order breaks ties by vertex index, so each copy takes
    # another path through the classes
    plain = named_plain(name)
    hist = genus_histogram(plain)
    assert sum(hist.values()) == cleanify(plain).candidate_count()
    for seed in range(5):
        assert genus_histogram(relabeled(plain, seed)) == hist


@pytest.mark.parametrize("name, widest", [
    ("k35", 7), ("k5.g", 14), ("frucht.g", 25), ("k6.g", 510), ("ladder", 32)])
def test_histogram_classes_per_level(monkeypatch, name, widest):
    # the classes are the histogram's work; fixing the vertices by
    # connectivity alone, or keying a class by anything less canonical than
    # its sorted least rotations, gives more (413 for K_{3,5} by connectivity);
    # without the tie-break by the step a neighbour was fixed at, Frucht
    # reaches 31 and the ladder, swept one cycle first, 4326
    widths = []
    fix = graphgenus._fix

    def counted(*args):
        states = fix(*args)
        widths.append(len(states))
        return states

    monkeypatch.setattr(graphgenus, "_fix", counted)
    genus_histogram(named_plain(name), budget=24**6)
    assert max(widths) == widest


def circular_ladder(k):
    """C_k x K_2: two k-cycles u and v joined by the rungs u_i v_i."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(f"u{i}", f"u{j}"), (f"v{i}", f"v{j}"), (f"u{i}", f"v{i}")]
    return PlainGraph([f"{c}{i}" for c in "uv" for i in range(k)],
                      [(n, u, v) for n, (u, v) in enumerate(edges, 1)])


# networkx.random_regular_graph(3, 22, seed=22), edges sorted
CUBIC22 = (
    (0, 6), (0, 7), (0, 15), (1, 6), (1, 11), (1, 15), (2, 9), (2, 12), (2, 15),
    (3, 7), (3, 17), (3, 19), (4, 5), (4, 12), (4, 17), (5, 14), (5, 21),
    (6, 11), (7, 8), (8, 10), (8, 21), (9, 17), (9, 20), (10, 14), (10, 18),
    (11, 18), (12, 13), (13, 14), (13, 16), (16, 19), (16, 20), (18, 20),
    (19, 21),
)


def traced_histogram(plain):
    """The histogram and the peak of memory traced while it is computed."""
    tracemalloc.start()
    try:
        return genus_histogram(plain), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("plain, expected", [
    (circular_ladder(11),
     {0: 2, 1: 2134, 2: 47784, 3: 397056, 4: 1447424, 5: 1939456, 6: 360448}),
    (PlainGraph([f"x{i}" for i in range(22)],
                [(n, f"x{u}", f"x{v}") for n, (u, v) in enumerate(CUBIC22, 1)]),
     {1: 4, 2: 1014, 3: 61742, 4: 905624, 5: 2599232, 6: 626688}),
], ids=["ladder", "cubic22"])
def test_cubic_histograms_in_small_memory(plain, expected):
    # 2^22 systems each, as the earlier leaf-by-leaf search counted them;
    # fixed rung by rung, the ladder's widest level holds 32 classes (about
    # 0.04 MB traced), the cubic graph's 766 (about 0.46 MB)
    hist, peak = traced_histogram(plain)
    assert hist == expected
    assert sum(hist.values()) == 2**22
    assert peak < 8 * 2**20


def test_star_histogram_builds_no_links():
    # the centre's 7! rotations are 5040 successor tables of 8 bytes; the
    # range search's rotations and links (about 3.8 MB here) are not built
    leaves = "ABCDEFGH"
    star = PlainGraph(["c", *leaves], [(i, "c", v) for i, v in enumerate(leaves, 1)])
    hist, peak = traced_histogram(star)
    assert hist == {0: 5040}
    assert peak < 2**20


def reference_links(clean, v):
    """The links tau(d) -> sigma(d) of each local rotation at ``v``, built
    from its cycle, with tau built from the white vertices' label pairs."""
    tau = list(range(clean.e))
    for a, b in clean.white_labels.values():
        tau[a - 1], tau[b - 1] = b - 1, a - 1
    links = []
    for cycle in _cycles_at(clean.black_labels[v]):
        darts = [label - 1 for label in cycle]
        links.append(tuple((tau[d], s) for d, s in zip(darts, darts[1:] + darts[:1])))
    return links


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(FIXTURES) if f.endswith(".g")))
def test_links_equal_the_links_built_from_cycles(name):
    sub = graphgenus._Subdivision(load_plain(name))
    assert len(sub.links) == len(sub.clean.blacks)
    for v, links in zip(sub.clean.blacks, sub.links):
        reference = reference_links(sub.clean, v)
        assert len(links) == len(reference)
        for new, old in zip(links, reference):
            assert set(new) == set(old)


# the oracle visits systems one by one, which K6's 24^6 put out of reach;
# its histogram is pinned in test_k6_histogram
BRUTE_FORCE_FIXTURES = sorted(
    f for f in os.listdir(FIXTURES) if f.endswith(".g") and f != "k6.g"
)


@pytest.mark.parametrize("name", BRUTE_FORCE_FIXTURES + ["dumbbell"])
def test_search_matches_brute_force(name):
    # on the dumbbell neither search reaches its a priori bound, and its
    # degree-3 vertices are listed first, so they are the innermost levels:
    # systems of equal face count meet as siblings, and the first must stay
    plain = parse_plain(DUMBBELL) if name == "dumbbell" else load_plain(name)
    assert genus_oracle.search(plain) == genus_oracle.brute_force(plain)


def xuong_max_genus(plain):
    """nu = (beta - xi) / 2 by Xuong's theorem (JCTB 1979).

    xi is the least number of odd-size components of a cotree, over the
    spanning trees that networkx enumerates.  The cotree has beta edges,
    so xi >= beta mod 2, and the enumeration stops there.
    """
    graph = nx.Graph()
    graph.add_edges_from((u, v) for _, u, v in plain.edges)
    assert graph.number_of_edges() == len(plain.edges), "simple graphs only"
    beta = len(plain.edges) - len(plain.vertices) + 1
    xi = None
    for tree in nx.SpanningTreeIterator(graph):
        cotree = graph.edge_subgraph(e for e in graph.edges if not tree.has_edge(*e))
        odd = sum(
            1 for part in nx.connected_components(cotree)
            if cotree.subgraph(part).number_of_edges() % 2
        )
        xi = odd if xi is None else min(xi, odd)
        if xi == beta % 2:
            break
    return (beta - xi) // 2


@pytest.mark.parametrize("name", ["k33.g", "k5.g", "frucht.g", "k6.g", "dumbbell"])
def test_max_genus_matches_xuong(name):
    plain = parse_plain(DUMBBELL) if name == "dumbbell" else load_plain(name)
    assert genus_range(plain).nu == xuong_max_genus(plain)


def test_dumbbell_is_not_upper_embeddable():
    assert xuong_max_genus(parse_plain(DUMBBELL)) == 0
    assert genus_histogram(parse_plain(DUMBBELL)) == {0: 4}


@pytest.mark.parametrize("name", ["k5.g", "frucht.g", "k34"])
def test_histogram_equals_orbit_weighted_census(name):
    plain = parse_plain(K34) if name == "k34" else load_plain(name)
    census = Counter()
    for rec in classify(cleanify(plain), with_monodromy=False).records:
        census[rec.invariants.genus] += rec.orbit_length
    assert genus_histogram(plain) == dict(sorted(census.items()))


def test_genus_range_agrees_with_exhaustive_oracle():
    # brute force over all rotation systems of the triangle with a doubled edge
    plain = parse_plain("vertex a b\nedge 1 a b\nedge 2 a b\n")
    clean = cleanify(plain)
    from dessins.rotation import enumerate_pairs

    genera = set()
    for pair in enumerate_pairs(clean):
        genera.add(invariants(pair, with_monodromy=False).genus)
    result = genus_range(plain)
    assert result.mu == min(genera)
    assert result.nu == max(genera)


def test_edge_limit_refused_before_subdividing():
    ids = [f"v{i}" for i in range(130)]
    path = PlainGraph(ids[:129], [(i, ids[i - 1], ids[i]) for i in range(1, 129)])
    result = genus_range(path)
    assert (result.mu, result.nu) == (0, 0)
    assert genus_histogram(path) == {0: 1}
    longer = PlainGraph(ids, [(i, ids[i - 1], ids[i]) for i in range(1, 130)])
    for search in (genus_range, genus_histogram):
        with pytest.raises(GraphStructureError, match=(
            "^129 edges exceed the limit of 128 for genus-range, "
            "whose subdivision has two labels per edge$"
        )):
            search(longer)
