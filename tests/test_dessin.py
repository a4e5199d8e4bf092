import os
import random
from math import factorial

import pytest

from dessins import (
    classify,
    dualizable_oracle,
    enumerate_pairs,
    face_permutation,
    invariants,
    is_dualizable,
    mirror,
    monodromy_group,
    parse_bipartite,
    parse_cycles,
    wilson,
    NonTransitiveError,
    PermGroup,
    identity,
)
import dessins.dessin as dessin_module
import dessins.permgroup as permgroup_module
from dessins.rotation import RotationPair, _Radix, _pair_from_tables, membership_failure

import corpus
from conftest import FIXTURES, load_bipartite


def P(s, n):
    return parse_cycles(s, n)


def mkpair(graph, sigma, tau):
    return RotationPair(P(sigma, graph.e), P(tau, graph.e), graph)


@pytest.fixture(scope="module")
def k33():
    return load_bipartite("k33.bg")


@pytest.fixture(scope="module")
def a4():
    return load_bipartite("a4_clean.bg")


def test_face_permutation_printed_example(k33):
    pair = mkpair(k33, corpus.K33["sigma1"], corpus.K33["tau1"])
    assert face_permutation(pair) == P(corpus.K33["faces11"], 9)


def test_face_permutation_identity_edge():
    g = parse_bipartite("black a\nwhite w\nedge 1 a w\n")
    pair = RotationPair(identity(1), identity(1), g)
    assert face_permutation(pair).is_identity()
    inv = invariants(pair)
    assert inv.face_count == 1 and inv.genus == 0


def test_frucht_printed_faces():
    g = load_bipartite("frucht_clean.bg")
    tau = corpus.FRUCHT["tau"]
    for idx, faces, count in (
        (0, corpus.FRUCHT["faces0"], 8),
        (1, corpus.FRUCHT["faces1"], 6),
        (2, corpus.FRUCHT["faces2"], 4),
        (3, corpus.FRUCHT["faces3"], 2),
    ):
        pair = mkpair(g, corpus.FRUCHT[f"sigma{idx}"], tau)
        fp = face_permutation(pair)
        assert fp == P(faces, 36)
        inv = invariants(pair, with_monodromy=False)
        assert inv.face_count == count
        assert inv.genus == idx


def test_invariants_k33_genus_two(k33):
    inv = invariants(mkpair(k33, corpus.K33["sigma1"], corpus.K33["tau2"]))
    assert inv.genus == 2
    assert str(inv.passport) == "(3^3;3^3;9)"
    assert inv.face_count == 1
    assert inv.uniform  # one face of degree 9: all parts constant


def test_uniform_flag(k33):
    # faces (2,2,5) break uniformity even though vertex degrees are constant
    inv = invariants(mkpair(k33, corpus.K33["sigma2"], corpus.K33["tau2"]))
    assert tuple(inv.passport.faces) == (2, 2, 5)
    assert not inv.uniform


def test_invariants_a4_regular(a4):
    inv = invariants(mkpair(a4, corpus.A4["sigma3"], corpus.A4["tau"]))
    assert inv.genus == 0
    assert inv.regular
    assert inv.monodromy_order == 12
    assert inv.monodromy_fingerprint.point_stabilizer_order == 1
    assert not inv.dualizable


def test_invariants_a4_genus_one(a4):
    inv1 = invariants(mkpair(a4, corpus.A4["sigma1"], corpus.A4["tau"]))
    assert inv1.genus == 1 and inv1.monodromy_order == 324
    inv2 = invariants(mkpair(a4, corpus.A4["sigma2"], corpus.A4["tau"]))
    assert inv2.genus == 1 and inv2.monodromy_order == 96


def test_invariants_rejects_nontransitive(k33):
    pair = RotationPair(identity(9), identity(9), k33)
    with pytest.raises(NonTransitiveError):
        invariants(pair)


def test_regular_iff_order_equals_edges(k33):
    pair = mkpair(k33, corpus.K33["sigma1"], corpus.K33["tau1"])
    inv = invariants(pair)
    assert inv.regular and inv.monodromy_order == 9
    assert monodromy_group(pair).point_stabilizer_order(1) == 1


def test_dualizable_double_edge():
    g = parse_bipartite("black a\nwhite w\nedge 1 a w\nedge 2 a w\n")
    pair = RotationPair(P("(1,2)", 2), P("(1,2)", 2), g)
    assert is_dualizable(pair)
    assert dualizable_oracle(pair)
    inv = invariants(pair)
    assert inv.genus == 0 and inv.dualizable


def test_odd_degree_never_dualizable(k33):
    for pair in enumerate_pairs(k33):
        assert not is_dualizable(pair)


def test_dualizable_oracle_agreement_sample():
    # full corpus agreement is covered by the acceptance suite
    for name in ("k33.bg", "d33.bg", "c33.bg"):
        g = load_bipartite(name)
        for pair in list(enumerate_pairs(g))[:12]:
            assert is_dualizable(pair) == dualizable_oracle(pair)


# the oracle lists the monodromy group: keep it to groups it lists quickly
ORACLE_ORDER_CAP = 20000


def test_dualizable_agrees_with_oracle_off_the_representatives():
    # up to 25 random ranks within the oracle's cap of each small fixture,
    # its orbit representatives left out (a4_clean has 13 others);
    # k5_clean's even degrees give dualizable pairs
    rng = random.Random(1611)
    dualizable = 0
    for name in ("a4_clean", "c33", "d33", "k33", "k33_clean", "k5_clean"):
        graph = load_bipartite(name + ".bg")
        radix = _Radix(graph)
        representatives = {
            radix.rank(r.representative.sigma._table, r.representative.tau._table)
            for r in classify(graph, with_monodromy=False).records
        }
        ranks = [i for i in range(radix.total) if i not in representatives]
        rng.shuffle(ranks)
        checked = 0
        for i in ranks:
            pair = _pair_from_tables(*radix.unrank(i), graph)
            if monodromy_group(pair).order() > ORACLE_ORDER_CAP:
                continue
            fast = is_dualizable(pair)
            assert fast == dualizable_oracle(pair), (name, i)
            dualizable += fast
            checked += 1
            if checked == 25:
                break
        assert checked >= 10, name
    assert dualizable > 0


def test_dualizable_positive_case_agrees():
    # the sphere embedding of the bipyramid has a bipartite dual (the cube)
    g = load_bipartite("double_prism.bg")
    planar = None
    for pair in enumerate_pairs(g):
        if invariants(pair, with_monodromy=False).genus == 0:
            planar = pair
            break
    assert planar is not None
    assert is_dualizable(planar)
    assert dualizable_oracle(planar)


def test_mirror_of_involutions_is_identity_map():
    g = parse_bipartite("black a\nwhite w\nedge 1 a w\nedge 2 a w\n")
    pair = RotationPair(P("(1,2)", 2), P("(1,2)", 2), g)
    m = mirror(pair)
    assert (m.sigma, m.tau) == (pair.sigma, pair.tau)


def test_mirror_preserves_invariants(k33):
    rng = random.Random(17)
    pairs = list(enumerate_pairs(k33))
    for pair in rng.sample(pairs, 10):
        a = invariants(pair)
        b = invariants(mirror(pair))
        assert (a.genus, a.passport, a.monodromy_order, a.regular,
                a.uniform, a.dualizable) == (
            b.genus, b.passport, b.monodromy_order, b.regular,
            b.uniform, b.dualizable)


def test_mirror_stays_in_family(k33):
    for pair in enumerate_pairs(k33):
        m = mirror(pair)
        assert membership_failure(k33, m.sigma, m.tau) is None


def test_wilson_identity(k33):
    pair = mkpair(k33, corpus.K33["sigma1"], corpus.K33["tau2"])
    w = wilson(pair, 1, 1)
    assert (w.sigma, w.tau) == (pair.sigma, pair.tau)


def test_wilson_squares_to_identity_on_degree_three(k33):
    # all degrees are 3, so exponent 2 twice returns sigma^4 = sigma
    pair = mkpair(k33, corpus.K33["sigma2"], corpus.K33["tau1"])
    w = wilson(wilson(pair, 2, 1), 2, 1)
    assert (w.sigma, w.tau) == (pair.sigma, pair.tau)
    w = wilson(wilson(pair, 2, 2), 2, 2)
    assert (w.sigma, w.tau) == (pair.sigma, pair.tau)


def test_wilson_composition(k33):
    # the (2,2) operation is the (1,2) operation after the (2,1) one
    for pair in list(enumerate_pairs(k33))[:8]:
        a = wilson(pair, 2, 2)
        b = wilson(wilson(pair, 2, 1), 1, 2)
        assert (a.sigma, a.tau) == (b.sigma, b.tau)


def test_wilson_requires_coprime(k33):
    pair = mkpair(k33, corpus.K33["sigma1"], corpus.K33["tau1"])
    with pytest.raises(ValueError):
        wilson(pair, 3, 1)
    with pytest.raises(ValueError):
        wilson(pair, 1, 3)
    with pytest.raises(ValueError):
        wilson(pair, 0, 1)


def test_wilson_is_a_bijection_on_the_family(k33):
    pairs = list(enumerate_pairs(k33))
    for r, s in ((2, 1), (1, 2), (2, 2)):
        images = {(wilson(p, r, s).sigma, wilson(p, r, s).tau) for p in pairs}
        assert len(images) == len(pairs)
        for p in pairs:
            w = wilson(p, r, s)
            assert membership_failure(k33, w.sigma, w.tau) is None


def test_euler_consistency_across_corpora(a4):
    for name in ("k33.bg", "d33.bg", "c33.bg"):
        g = load_bipartite(name)
        for pair in enumerate_pairs(g):
            inv = invariants(pair, with_monodromy=False)
            assert inv.genus >= 0
    for pair in enumerate_pairs(a4):
        assert invariants(pair, with_monodromy=False).genus >= 0


def test_passport_vertex_parts_match_graph():
    for name in ("k33.bg", "d33.bg", "c33.bg", "a4_clean.bg"):
        g = load_bipartite(name)
        gp = g.passport()
        for pair in enumerate_pairs(g):
            inv = invariants(pair, with_monodromy=False)
            assert inv.passport.black == gp.black_degrees
            assert inv.passport.white == gp.white_degrees


def test_fingerprint_odd_generators(k33):
    pair = mkpair(k33, corpus.K33["sigma1"], corpus.K33["tau1"])
    fp = invariants(pair).monodromy_fingerprint
    assert fp.odd_generators == 0  # 3-cycles are even
    assert fp.all_generators_even
    assert fp.order == 9


# -- the wreath-product bound on dualizable pairs ----------------------------------

def wreath_order(e):
    """|S_(e/2) wr S_2|, the bound on a dualizable pair's monodromy order."""
    return 2 * factorial(e // 2) ** 2


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(FIXTURES) if f.endswith(".bg")))
def test_wreath_bound_keeps_the_order_of_every_dualizable_record(name):
    report = classify(load_bipartite(name), with_monodromy=False)
    bound = wreath_order(report.graph.e)
    for rec in report.records:
        pair = rec.representative
        if is_dualizable(pair):
            gens = [pair.sigma, pair.tau]
            order = PermGroup(gens).order()
            assert PermGroup(gens, order_bound=bound).order() == order <= bound
            assert invariants(pair).monodromy_order == order


def test_wreath_bounded_orders_against_sympy(k5_report, dp_report):
    sympy = pytest.importorskip("sympy.combinatorics")
    records = [rec for rec in k5_report.records if rec.invariants.dualizable]
    records += random.Random(23).sample(
        [rec for rec in dp_report.records if rec.invariants.dualizable], 8)
    for rec in records:
        gens = [rec.representative.sigma, rec.representative.tau]
        theirs = sympy.PermutationGroup(
            [sympy.Permutation([x - 1 for x in g.images]) for g in gens]).order()
        assert rec.invariants.monodromy_order == theirs


def test_dualizable_pairs_get_the_wreath_bound(monkeypatch, k5_report, dp_report):
    bounds = []

    class Recorded(PermGroup):
        def __init__(self, generators, degree=None, order_bound=None):
            bounds.append(order_bound)
            super().__init__(generators, degree, order_bound)

    monkeypatch.setattr(dessin_module, "PermGroup", Recorded)
    for report in (k5_report, dp_report):
        passport = report.graph.passport()
        for rec in report.records:
            bounds.clear()
            invariants(rec.representative, passport=passport)
            assert bounds == [wreath_order(report.graph.e) if rec.invariants.dualizable else None]


def test_dualizable_invariants_without_the_giant_certificate(monkeypatch, k5_report, dp_report):
    def refuse(group):
        raise AssertionError("certificate tried")

    monkeypatch.setattr(permgroup_module, "_jordan_order", refuse)
    dualizable = 0
    for report in (k5_report, dp_report):
        for rec in report.records:
            if rec.invariants.dualizable:
                dualizable += 1
                assert invariants(rec.representative) == rec.invariants
    assert dualizable == 4 + 38


def test_k5_dualizable_groups_are_the_whole_wreath_product(k5_report):
    # three groups are the whole wreath product, so their builds stop at
    # the bound once the basic orbits multiply to 2 (10!)^2
    orders = sorted(rec.invariants.monodromy_order for rec in k5_report.records
                    if rec.invariants.dualizable)
    assert orders == [1000] + [26336378880000] * 3 == [1000] + [wreath_order(20)] * 3
