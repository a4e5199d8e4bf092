import tracemalloc

import pytest

from dessins import (
    InternalInvariantError,
    enumerate_pairs,
    format_cycles,
    local_rotations,
    parse_bipartite,
    parse_cycles,
    group_from_generators,
)
from dessins.perm import _IDENT256, Permutation
from dessins.rotation import (
    CycleText,
    _cycles_at,
    _Radix,
    _rotations,
    membership_failure,
)

import corpus
from conftest import EVERY_BG_REPORT, load_bipartite, star_text


def test_local_rotation_counts():
    g = load_bipartite("a4_clean.bg")
    for v in g.blacks:
        assert len(local_rotations(g, v)) == 2  # (3-1)!
    for v in g.whites:
        assert len(local_rotations(g, v)) == 1

    k5 = load_bipartite("k5_clean.bg")
    for v in k5.blacks:
        assert len(local_rotations(k5, v)) == 6  # (4-1)!


def test_local_rotation_order_pinned():
    g = parse_bipartite(
        "black a\nwhite w x y\nedge 1 a w\nedge 2 a x\nedge 3 a y\n"
    )
    rots = local_rotations(g, "a")
    assert [r.cycle for r in rots] == [(1, 2, 3), (1, 3, 2)]


def test_unknown_vertex_is_refused_by_name():
    g = load_bipartite("k33.bg")
    with pytest.raises(ValueError) as info:
        local_rotations(g, "nope")
    assert type(info.value) is ValueError and str(info.value) == "unknown vertex 'nope'"
    with pytest.raises(ValueError) as info:
        g.degree("nope")
    assert type(info.value) is ValueError and str(info.value) == "unknown vertex 'nope'"


def test_degree_one_vertex_single_rotation():
    g = parse_bipartite("black a\nwhite w\nedge 1 a w\n")
    assert [r.cycle for r in local_rotations(g, "a")] == [(1,)]
    pairs = list(enumerate_pairs(g))
    assert len(pairs) == 1
    assert pairs[0].sigma.is_identity() and pairs[0].tau.is_identity()


def test_enumerate_pairs_a4():
    g = load_bipartite("a4_clean.bg")
    pairs = list(enumerate_pairs(g))
    assert len(pairs) == 16
    taus = {p.tau for p in pairs}
    assert len(taus) == 1  # clean graph: tau unique
    assert taus.pop() == parse_cycles(corpus.A4["tau"], 12)
    assert len({p.sigma for p in pairs}) == 16


def test_enumerate_pairs_counts():
    for name, count in (("k33.bg", 64), ("d33.bg", 64), ("c33.bg", 64)):
        g = load_bipartite(name)
        assert sum(1 for _ in enumerate_pairs(g)) == count == g.candidate_count()


def test_k5_stream_length():
    g = load_bipartite("k5_clean.bg")
    assert sum(1 for _ in enumerate_pairs(g)) == 7776


def test_every_pair_is_a_rotation_system():
    for name in ("a4_clean.bg", "k33.bg", "d33.bg", "c33.bg"):
        g = load_bipartite(name)
        for p in enumerate_pairs(g):
            assert membership_failure(g, p.sigma, p.tau) is None


def test_every_pair_transitive():
    for name in ("a4_clean.bg", "k33.bg", "d33.bg", "c33.bg"):
        g = load_bipartite(name)
        for p in enumerate_pairs(g):
            assert group_from_generators([p.sigma, p.tau]).is_transitive()


def test_stream_range_outside_the_index_space_refused():
    radix = _Radix(load_bipartite("a4_clean.bg"))
    with pytest.raises(ValueError):
        radix.unrank(radix.total)
    with pytest.raises(ValueError):
        radix.unrank(-1)


def test_membership_failure_reports_vertex():
    g = load_bipartite("k33.bg")
    sigma = parse_cycles(corpus.K33["sigma1"], 9)
    tau_bad = parse_cycles("(1,4,7)(2,5,8)(3,6,9)", 9)
    assert membership_failure(g, sigma, tau_bad) is None
    # a permutation whose support ignores the vertex structure is rejected
    broken = parse_cycles("(1,2,4)(3,5,6)(7,8,9)", 9)
    offender = membership_failure(g, broken, tau_bad)
    assert offender is not None


def test_membership_failure_reports_degree_and_white_vertex():
    g = load_bipartite("k33.bg")
    sigma = parse_cycles(corpus.K33["sigma1"], 9)
    tau = parse_cycles("(1,4,7)(2,5,8)(3,6,9)", 9)
    assert membership_failure(g, parse_cycles("()", 8), tau) == "degree"
    assert membership_failure(g, sigma, parse_cycles("()", 10)) == "degree"
    # sigma is a rotation system of the black side; the identity puts no
    # cycle on the first white vertex
    assert membership_failure(g, sigma, parse_cycles("()", 9)) == "w1"


def spider_text(legs):
    """A black centre with one path of ``legs[i]`` edges per leg, colours alternating."""
    blacks, whites, edges = ["c"], [], []
    for i, length in enumerate(legs):
        end = "c"
        for j in range(length):
            v = f"v{i}_{j}"
            if j % 2 == 0:
                whites.append(v)
                edges.append((end, v))
            else:
                blacks.append(v)
                edges.append((v, end))
            end = v
    lines = ["black " + " ".join(blacks), "white " + " ".join(whites)]
    lines += [f"edge {b} {w}" for b, w in edges]
    return "\n".join(lines) + "\n"


def test_rank_inverts_unrank_across_a_group_split():
    # 6^5 = 7776 rotations on the black side: 6^4 fit under the group cap,
    # the fifth vertex opens a second group
    radix = _Radix(load_bipartite("k5_clean.bg"))
    assert [len(keys) for *_, keys in radix.groups] == [1296, 6]
    assert all(radix.rank(*radix.unrank(i)) == i for i in range(radix.total))


def test_rank_inverts_unrank_above_the_group_cap():
    # 7! = 5040 rotations at the centre of an 8-leaf star: a group of its own
    radix = _Radix(parse_bipartite(star_text(8)))
    assert [len(keys) for *_, keys in radix.groups] == [5040]
    assert all(radix.rank(*radix.unrank(i)) == i for i in range(radix.total))


def test_rank_refuses_a_table_that_is_no_rotation_at_a_vertex():
    g = load_bipartite("k5_clean.bg")
    radix = _Radix(g)
    s, t = radix.unrank(4321)
    for v in g.blacks:
        # the identity on the labels of one vertex is no cycle of them
        broken = bytearray(s)
        for label in g.black_labels[v]:
            broken[label - 1] = label - 1
        with pytest.raises(KeyError):
            radix.rank(bytes(broken), t)
    # so is a transposition of two of its labels
    a, b = g.black_labels["b3"][:2]
    broken = bytearray(s)
    broken[a - 1], broken[b - 1] = b - 1, a - 1
    with pytest.raises(KeyError):
        radix.rank(bytes(broken), t)


def test_radix_memory_below_the_tuple_keyed_radix():
    # a spider whose centre has degree 9: 8! = 40320 rotations, |G| = 1;
    # with one tuple key per rotation the radix held 18.4 MiB
    graph = parse_bipartite(spider_text(range(1, 10)))
    tracemalloc.start()
    try:
        radix = _Radix(graph)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert radix.total == 40320
    assert size < 18.4 * 2**20


def test_radix_memory_without_per_rotation_tables():
    # the same spider; with a 256-byte unrank table per rotation beside its
    # rank dict, the radix held 15.75 MiB
    graph = parse_bipartite(spider_text(range(1, 10)))
    tracemalloc.start()
    try:
        radix = _Radix(graph)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert radix.total == 40320
    assert size < 8 * 2**20


@pytest.mark.parametrize("degree", range(1, 8))
def test_rotations_are_the_images_of_the_local_rotation_cycles(degree):
    g = parse_bipartite(star_text(degree))
    labels = bytes(label - 1 for label in g.black_labels["c"])
    expected = []
    for rot in local_rotations(g, "c"):
        step = dict(zip(rot.cycle, rot.cycle[1:] + rot.cycle[:1]))
        expected.append(bytes(step[label + 1] - 1 for label in labels))
    assert _rotations(labels) == expected


def reference_unrank(graph):
    """The unrank that applied one 256-byte table per vertex with a choice
    of rotation to a base pair holding the vertices without one."""

    def apply_cycle(table, cycle):
        for i, label in enumerate(cycle):
            table[label - 1] = cycle[(i + 1) % len(cycle)] - 1

    base = (bytearray(range(graph.e)), bytearray(range(graph.e)))
    digits = []
    for side, labels in enumerate((graph.black_labels, graph.white_labels)):
        for v in (graph.blacks, graph.whites)[side]:
            opts = _cycles_at(labels[v])
            if len(opts) == 1:
                apply_cycle(base[side], opts[0])
                continue
            tables = []
            for cycle in opts:
                table = bytearray(_IDENT256)
                apply_cycle(table, cycle)
                tables.append(bytes(table))
            digits.append((len(opts), side, tables))

    def unrank(index):
        pair = [bytes(b) for b in base]
        for radix, side, tables in digits:
            index, digit = divmod(index, radix)
            pair[side] = pair[side].translate(tables[digit])
        return pair[0], pair[1]

    return unrank


# a choice of rotation at a and w only: vertices of degree 3 beside
# vertices of degree 1 and 2 on each side
MIXED = "black a b c\nwhite w x y\n" + "".join(
    f"edge {b} {w}\n" for b, w in ("aw", "bw", "cw", "ax", "ay", "by")
)


@pytest.mark.parametrize("name", ["k5_clean.bg", "star8", "double_prism.bg", "k33.bg", "mixed"])
def test_unrank_equals_the_per_vertex_tables(name):
    texts = {"star8": star_text(8), "mixed": MIXED}
    graph = parse_bipartite(texts[name]) if name in texts else load_bipartite(name)
    radix, unrank = _Radix(graph), reference_unrank(graph)
    assert all(radix.unrank(i) == unrank(i) for i in range(radix.total))


def test_vertex_cycle_text_equals_format_cycles_on_every_record(request):
    for name in EVERY_BG_REPORT:
        report = request.getfixturevalue(name).report
        sigmas, taus = CycleText(report.graph, 0), CycleText(report.graph, 1)
        for rec in report.records:
            pair = rec.representative
            assert sigmas(pair.sigma) == format_cycles(pair.sigma), name
            assert taus(pair.tau) == format_cycles(pair.tau), name


def test_vertex_cycle_text_of_the_identity_and_of_leaves():
    # the 6-leaf star: one black centre, six white leaves whose tau is "()"
    g = parse_bipartite(star_text(6))
    sigmas, taus = CycleText(g, 0), CycleText(g, 1)
    for pair in enumerate_pairs(g):
        assert sigmas(pair.sigma) == format_cycles(pair.sigma)
        assert taus(pair.tau) == "()"


@pytest.mark.parametrize("side, text, degree", [
    (1, "(1,2)", 6),  # moves two leaves of the star
    (0, "()", 6),  # the centre of degree 6 is no cycle of the identity
    (0, "(1,2,3,4,5)", 6),  # a cycle of five of the centre's six labels
    (0, "(1,2,3)(4,5,6)", 6),  # two cycles on the centre's labels
    (0, "(1,2,3,4,5,6)", 7),  # the right cycle at the wrong degree
])
def test_vertex_cycle_text_refuses_a_permutation_outside_the_family(side, text, degree):
    g = parse_bipartite(star_text(6))
    with pytest.raises(InternalInvariantError, match="is not in the rotation family$"):
        CycleText(g, side)(parse_cycles(text, degree))


def test_vertex_cycle_text_refuses_a_moved_degree_two_vertex():
    # frucht_clean: every white vertex has degree 2, so tau has one value;
    # swapping the images of two of its 2-cycles leaves the family
    g = load_bipartite("frucht_clean.bg")
    sigma, tau = (Permutation._from_table(t, g.e) for t in _Radix(g).unrank(0))
    taus = CycleText(g, 1)
    assert taus(tau) == format_cycles(tau)
    (a, b), (c, d) = (g.white_labels[w] for w in g.whites[:2])
    bad = bytearray(tau._table)
    bad[a - 1], bad[c - 1], bad[b - 1], bad[d - 1] = c - 1, a - 1, d - 1, b - 1
    with pytest.raises(InternalInvariantError, match="^tau .* is not in the rotation family$"):
        taus(Permutation._from_table(bad, g.e))
    # a sigma seen once is still refused when its images change
    sigmas = CycleText(g, 0)
    assert sigmas(sigma) == format_cycles(sigma)
    with pytest.raises(InternalInvariantError, match="^sigma "):
        sigmas(tau)
