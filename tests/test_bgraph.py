import itertools

import pytest

from dessins import (
    BipartiteGraph,
    GraphParseError,
    GraphStructureError,
    PlainGraph,
    automorphism_group,
    classify,
    cleanify,
    genus_range,
    parse_bipartite,
    parse_plain,
    parse_cycles,
)

import corpus
from conftest import complete_bipartite_text, load_bipartite, load_plain, run_capped, star_text


def test_parse_k33_fixture():
    g = load_bipartite("k33.bg")
    assert str(g.passport()) == "(3^3;3^3)"
    assert g.e == 9
    assert g.candidate_count() == 64


def test_parse_single_edge():
    g = parse_bipartite("black b\nwhite w\nedge b w\n")
    assert g.e == 1
    assert str(g.passport()) == "(1;1)"
    assert g.candidate_count() == 1


def test_parse_loop_rejected():
    with pytest.raises(GraphParseError, match="line 3.*loop"):
        parse_bipartite("black u1\nwhite w1\nedge 1 u1 u1\n")


def test_parse_unknown_vertex_has_line_number():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_bipartite("black b\nwhite w\nedge b nope\n")


def test_parse_duplicate_label():
    text = "black b\nwhite w x\nedge 1 b w\nedge 1 b x\n"
    with pytest.raises(GraphParseError, match="duplicate edge label"):
        parse_bipartite(text)


def test_parse_label_gap():
    text = "black b\nwhite w x\nedge 1 b w\nedge 3 b x\n"
    with pytest.raises(GraphParseError, match="labels must be exactly"):
        parse_bipartite(text)


def test_parse_mixed_labeling():
    text = "black b\nwhite w x\nedge 1 b w\nedge b x\n"
    with pytest.raises(GraphParseError, match="line 4.*unlabeled"):
        parse_bipartite(text)


def test_parse_disconnected():
    text = "black a b\nwhite w x\nedge 1 a w\nedge 2 b x\n"
    with pytest.raises(GraphParseError, match="disconnected"):
        parse_bipartite(text)


def test_parse_unknown_directive():
    with pytest.raises(GraphParseError, match="line 1.*unknown directive"):
        parse_bipartite("node a\n")


@pytest.mark.parametrize("parse, text, message", [
    (parse_bipartite, "black b1\nwhite w1\nedge b2 w1\n", "line 3: unknown black vertex 'b2'"),
    (parse_bipartite, "black\nwhite w\nedge b w\n", "line 1: 'black' needs at least one id"),
    (parse_plain, "vertex a\nedge a z\n", "line 2: unknown vertex 'z'"),
    (parse_plain, "vertex a b\nedge 1 a b\nedge 3 a b\n",
     "edge labels must be exactly 1..2, got [1, 3]"),
], ids=["unknown black vertex", "black without ids", "unknown plain vertex", "plain label gap"])
def test_file_refusals_name_the_fault(parse, text, message):
    with pytest.raises(GraphParseError) as info:
        parse(text)
    assert str(info.value) == message


# both headers declare the vertices a and w on lines 1-2, so every edge
# line has the same number in both formats
HEADERS = [
    (parse_bipartite, "black a\nwhite w\n"),
    (parse_plain, "vertex a\nvertex w\n"),
]


@pytest.mark.parametrize("edges, message", [
    ("edge 1 a w\nedge a w\n", "line 4: unlabeled edge in a file with labeled edges"),
    ("edge a w\nedge 2 a w\n", "line 3: unlabeled edge in a file with labeled edges"),
    ("edge x a w\n", "line 3: edge label 'x' is not an integer"),
    ("edge -1 a w\n", "line 3: edge label '-1' is not an integer"),
    ("edge a\n", "line 3: 'edge' takes 2 or 3 arguments, got 1"),
    ("edge 1 a w w\n", "line 3: 'edge' takes 2 or 3 arguments, got 4"),
])
@pytest.mark.parametrize("parse, header", HEADERS)
def test_edge_line_errors_shared_by_both_formats(parse, header, edges, message):
    with pytest.raises(GraphParseError) as info:
        parse(header + edges)
    assert str(info.value) == message


@pytest.mark.parametrize("parse, text", [
    (parse_bipartite, "black a b\nwhite w x\nedge a w\nedge b x\n"),
    (parse_plain, "vertex a b w x\nedge a w\nedge b x\n"),
])
def test_disconnected_refused_by_both_formats(parse, text):
    with pytest.raises(GraphParseError) as info:
        parse(text)
    assert str(info.value) == "graph is disconnected (unreachable: ['b', 'x'])"


@pytest.mark.parametrize("label", [1.7, True, "x", None])
@pytest.mark.parametrize("make", [
    lambda edges: BipartiteGraph(["a"], ["w", "x"], edges),
    lambda edges: PlainGraph(["a", "w", "x"], edges),
], ids=["BipartiteGraph", "PlainGraph"])
def test_constructors_refuse_a_label_that_is_not_an_integer(make, label):
    # 1.7 and True would be stored as label 1, the graph otherwise valid
    with pytest.raises(GraphStructureError) as info:
        make([(label, "a", "w"), (2, "a", "x")])
    assert str(info.value) == f"edge label {label!r} is not an integer"


def test_constructors_read_decimal_label_text():
    g = BipartiteGraph(["a"], ["w", "x"], [("1", "a", "w"), ("2", "a", "x")])
    assert g.edges == ((1, "a", "w"), (2, "a", "x"))
    assert PlainGraph(["a", "w"], [("1", "a", "w")]).edges == ((1, "a", "w"),)


def test_implicit_labels_in_file_order():
    g = parse_bipartite("black a\nwhite w x\nedge a w\nedge a x\n")
    assert [(l, b, w) for l, b, w in g.edges] == [(1, "a", "w"), (2, "a", "x")]


def test_passports():
    assert str(load_bipartite("a4_clean.bg").passport()) == "(3^4;2^6)"
    assert str(load_bipartite("k5_clean.bg").passport()) == "(4^5;2^10)"
    assert str(load_bipartite("double_prism.bg").passport()) == "(4^6;2^12)"


def test_candidate_counts():
    assert load_bipartite("a4_clean.bg").candidate_count() == 16
    assert load_bipartite("k33.bg").candidate_count() == 64
    assert load_bipartite("frucht_clean.bg").candidate_count() == 4096
    assert load_bipartite("k5_clean.bg").candidate_count() == 7776


def test_cleanify_triangle():
    g = cleanify(load_plain("c3.g"))
    assert g.e == 6
    assert str(g.passport()) == "(2^3;2^3)"
    # plain edge k gets clean labels 2k-1, 2k
    for label, _, white in g.edges:
        assert white == f"e{(label + 1) // 2}"


def test_cleanify_k5():
    g = cleanify(load_plain("k5.g"))
    assert g.e == 20
    assert str(g.passport()) == "(4^5;2^10)"


def test_cleanify_loop():
    plain = parse_plain("vertex a\nedge 1 a a\n")
    g = cleanify(plain)
    assert g.e == 2
    assert len(g.whites) == 1
    assert g.degree("a") == 2
    assert sorted(g.black_labels["a"]) == [1, 2]


def test_cleanify_rejects_disconnected():
    with pytest.raises(GraphParseError, match="disconnected"):
        parse_plain("vertex a b c\nedge 1 a b\n")


def test_automorphism_group_frucht_trivial():
    group = automorphism_group(load_bipartite("frucht_clean.bg"))
    assert group.theta.order() == 1
    assert group.group_order == 1


def test_frucht_fixture_is_the_frucht_graph():
    nx = pytest.importorskip("networkx")
    plain = load_plain("frucht.g")
    g = nx.MultiGraph()
    for _, u, v in plain.edges:
        g.add_edge(u, v)
    assert nx.is_isomorphic(nx.Graph(g), nx.frucht_graph())


def test_automorphism_group_k33():
    group = automorphism_group(load_bipartite("k33.bg"))
    assert group.theta.order() == 36
    for eta in corpus.K33["etas"]:
        assert group.theta.contains(parse_cycles(eta, 9))


def test_automorphism_group_contains_printed_generators():
    for data in (corpus.A4, corpus.K33_CLEAN, corpus.K5, corpus.D33, corpus.C33,
                 corpus.DOUBLE_PRISM):
        group = automorphism_group(load_bipartite(data["file"]))
        assert group.theta.order() == data["aut_order"]
        for eta in data.get("etas", ()):
            assert group.theta.contains(parse_cycles(eta, data["e"]))


def test_parallel_edge_bundles_get_full_symmetric_group():
    # two vertices joined by n parallel edges: the edge action is the full
    # symmetric exchange of the strands
    import math

    for n in range(1, 5):
        lines = ["black a", "white w"]
        lines += [f"edge {i} a w" for i in range(1, n + 1)]
        g = parse_bipartite("\n".join(lines))
        group = automorphism_group(g)
        assert group.theta.order() == math.factorial(n)
        # brute-force oracle: every label bijection preserves incidence here
        if n <= 4:
            count = sum(
                1
                for images in itertools.permutations(range(1, n + 1))
                if all(g.endpoints[i] == g.endpoints[images[i - 1]] for i in range(1, n + 1))
            )
            assert count == math.factorial(n)


def test_generators_preserve_incidence():
    # each generator carries the labels at a vertex onto the labels at one
    # vertex of the same colour, distinct vertices onto distinct vertices
    for name in ("k33.bg", "d33.bg", "c33.bg", "a4_clean.bg", "k5_clean.bg"):
        g = load_bipartite(name)
        group = automorphism_group(g)
        for theta in group.theta.generators:
            for labels in (g.black_labels, g.white_labels):
                owner = {frozenset(ls): v for v, ls in labels.items()}
                images = [owner[frozenset(map(theta, ls))] for ls in labels.values()]
                assert sorted(images) == sorted(labels)


def test_group_closed_under_products():
    g = load_bipartite("d33.bg")
    group = automorphism_group(g)
    gens = group.theta.generators
    for a in gens[:4]:
        for b in gens[:4]:
            prod = a * b
            # conjugating the edge set by a product still matches some vertex map
            mapped = {prod(l) for l, _, _ in g.edges}
            assert mapped == set(range(1, g.e + 1))
            assert group.theta.contains(prod)


@pytest.mark.parametrize("name, order", [
    ("a4_clean", 24), ("bundle6", 720), ("c33", 8), ("d33", 24), ("double_prism", 48),
    ("frucht_clean", 1), ("k33", 36), ("k33_clean", 72), ("k44", 576), ("k5_clean", 120),
    ("star6", 720),
])
def test_fixture_groups_from_few_generators(name, order):
    # each vertex generator merges two orbits of the vertices, so there are
    # at most V - 1 of them; a parallel class adds a swap and a cycle
    from collections import Counter

    graph = load_bipartite(name + ".bg")
    group = automorphism_group(graph)
    assert group.group_order == group.theta.order() == order
    parallel = sum(k > 1 for k in Counter((b, w) for _, b, w in graph.edges).values())
    vertices = len(graph.blacks) + len(graph.whites)
    assert len(group.theta.generators) <= vertices - 1 + 2 * parallel


def test_edge_action_injectivity_counts():
    # |theta(G)| must equal the group order counted on the vertex side
    from dessins.bgraph import _vertex_automorphisms
    import math

    for name, parallel_classes in (("d33.bg", (2, 2, 2)), ("c33.bg", (2, 2))):
        g = load_bipartite(name)
        group = automorphism_group(g)
        _, expected = _vertex_automorphisms(g)
        for m in parallel_classes:
            expected *= math.factorial(m)
        assert group.group_order == expected == group.theta.order()


def path_graph(edges):
    """A path with ``edges`` edges, black and white alternating."""
    ids = [f"v{i}" for i in range(edges + 1)]
    ends = [(ids[i], ids[i + 1])[:: -1 if i % 2 else 1] for i in range(edges)]
    return ids[0::2], ids[1::2], [(i, b, w) for i, (b, w) in enumerate(ends, 1)]


def test_label_limit_of_bipartite_graphs():
    graph = BipartiteGraph(*path_graph(255))
    assert automorphism_group(graph).theta.order() == 1
    assert len(classify(graph, with_monodromy=False).records) == 1
    with pytest.raises(GraphStructureError, match="^256 edges exceed the limit of 255 labels$"):
        BipartiteGraph(*path_graph(256))
    blacks, whites, edges = path_graph(256)
    text = "black " + " ".join(blacks) + "\nwhite " + " ".join(whites) + "\n"
    text += "".join(f"edge {l} {b} {w}\n" for l, b, w in edges)
    with pytest.raises(GraphParseError, match="^256 edges exceed the limit of 255 labels$"):
        parse_bipartite(text)


def test_automorphisms_refuse_a_subdivision_of_256_labels():
    # cleanify admits 256 labels for the genus search; permutations hold 255
    ids = [f"v{i}" for i in range(129)]
    path = PlainGraph(ids, [(i, ids[i - 1], ids[i]) for i in range(1, 129)])
    clean = cleanify(path)
    for search in (automorphism_group, lambda g: classify(g, with_monodromy=False)):
        with pytest.raises(GraphStructureError, match="^256 edges exceed the limit of 255 labels$"):
            search(clean)
    assert (genus_range(path).mu, genus_range(path).nu) == (0, 0)


@pytest.mark.parametrize("blacks, whites, edges, message", [
    (["a"], ["w"], [], "graph has no edges"),
    (["a", "a"], ["w"], [(1, "a", "w")], "duplicate vertex id"),
    (["a"], ["w", "w"], [(1, "a", "w")], "duplicate vertex id"),
    (["a"], ["a", "w"], [(1, "a", "w")], r"vertex id used in both colors: \['a'\]"),
    (["a"], ["w"], [(1, "z", "w")], "edge 1: unknown black vertex 'z'"),
    (["a"], ["w"], [(1, "a", "z")], "edge 1: unknown white vertex 'z'"),
])
def test_bipartite_graph_refusals(blacks, whites, edges, message):
    with pytest.raises(GraphStructureError, match=f"^{message}$"):
        BipartiteGraph(blacks, whites, edges)


@pytest.mark.parametrize("vertices, edges, message", [
    (["a"], [], "graph has no edges"),
    (["a", "a"], [(1, "a", "a")], "duplicate vertex id"),
    (["a"], [(1, "a", "z")], "edge 1: unknown vertex 'z'"),
    (["a"], [(1, "z", "a")], "edge 1: unknown vertex 'z'"),
    (["a", "b"], [(1, "a", "b"), (3, "a", "b")], r"edge labels must be exactly 1\.\.2, got \[1, 3\]"),
])
def test_plain_graph_refusals(vertices, edges, message):
    with pytest.raises(GraphStructureError, match=f"^{message}$"):
        PlainGraph(vertices, edges)


def test_cleanify_admits_a_byte_of_labels():
    ids = [f"v{i}" for i in range(130)]
    assert cleanify(PlainGraph(ids[:129], [(i, ids[i - 1], ids[i]) for i in range(1, 129)])).e == 256
    with pytest.raises(GraphStructureError, match="^258 edges exceed the limit of 256 labels$"):
        cleanify(PlainGraph(ids, [(i, ids[i - 1], ids[i]) for i in range(1, 130)]))


@pytest.mark.parametrize("text, order", [
    (star_text(8), 40320),
    (complete_bipartite_text(5, 5), 14400),
], ids=["star8", "k55"])
def test_large_automorphism_groups_within_memory(text, order):
    # the search keeps at most V - 1 generators, 7 and 8 here, and counts
    # the group off its orbits
    code, out, err = run_capped(
        "from dessins import automorphism_group, parse_bipartite\n"
        f"print(automorphism_group(parse_bipartite({text!r})).group_order)\n"
    )
    assert code == 0, err[-2000:]
    assert out == f"{order}\n"


def test_automorphisms_of_a_large_star_held_as_label_bytes():
    # the search keeps its at most V - 1 generators as 8 label image bytes
    # each, not the 8-leaf star's 40320 automorphisms (a 12 kB peak)
    import tracemalloc

    graph = parse_bipartite(star_text(8))
    tracemalloc.start()
    try:
        order = automorphism_group(graph).group_order
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order == 40320
    assert peak < 2**20


def test_unreached_order_bound_still_refuses_an_unfaithful_count(monkeypatch):
    # a doubled count of vertex automorphisms doubles the bound theta is
    # given; its orbits never reach it, so the full verification finds |theta|
    import dessins.bgraph as bgraph_module

    search = bgraph_module._vertex_automorphisms

    def doubled(graph):
        generators, count = search(graph)
        return generators, 2 * count

    monkeypatch.setattr(bgraph_module, "_vertex_automorphisms", doubled)
    with pytest.raises(GraphStructureError,
                       match=r"^edge action is not faithful: \|theta\| = 36 but \|G\| = 72$"):
        automorphism_group(load_bipartite("k33.bg"))
