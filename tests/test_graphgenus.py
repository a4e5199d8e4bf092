import os
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
from dessins.rotation import RotationPair, membership_failure

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


# k6.g alone is out of reach: 24^6 systems to count one by one
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
