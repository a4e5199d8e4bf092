import os
import random
from math import factorial, prod

import pytest

import dessins.permgroup as permgroup_module
from dessins import (
    CapExceededError,
    PermGroup,
    automorphism_group,
    compose,
    group_from_generators,
    identity,
    parse_cycles,
)
from dessins.dessin import is_dualizable
from dessins.perm import MAX_DEGREE, Permutation, _IDENT256, _invert, random_permutation
from dessins.permgroup import (
    CERTIFICATE_SLOTS,
    CERTIFICATE_WORDS,
    _PRIMES,
    _certificate_words,
    _has_cycle_of_length,
    _jordan_order,
)

import corpus
from conftest import FIXTURES, load_bipartite


def P(s, n):
    return parse_cycles(s, n)


def closure(gens):
    """Exhaustive closure of a generating set; the independent order oracle."""
    if not gens:
        return {identity(1)}
    seen = {identity(gens[0].degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = compose(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def test_cyclic_group_order():
    assert group_from_generators([P("(1,2,3)", 3)]).order() == 3


def test_monodromy_order_examples():
    # <sigma2, tau2> on the 9-edge complete bipartite graph is the full
    # alternating group on the labels
    g = group_from_generators(
        [P("(1,2,3)(4,5,6)(7,9,8)", 9), P("(1,4,7)(2,5,8)(3,9,6)", 9)]
    )
    assert g.order() == 181440
    assert g.all_generators_even()


def test_worked_example_edge_actions():
    for data in (corpus.A4, corpus.K33_CLEAN, corpus.K5, corpus.K33,
                 corpus.D33, corpus.C33):
        gens = [P(s, data["e"]) for s in data["etas"]]
        assert group_from_generators(gens).order() == data["aut_order"]


def test_huge_monodromy_orders():
    s = P(corpus.K5["sigmas"][2], 20)
    t = P(corpus.K5["tau"], 20)
    assert group_from_generators([s, t]).order() == 26336378880000
    s = P(corpus.DOUBLE_PRISM["sigma1"], 24)
    t = P(corpus.DOUBLE_PRISM["tau"], 24)
    assert group_from_generators([s, t]).order() == 980995276800


def test_contains_basic():
    g = group_from_generators([P("(1,2,3)", 3)])
    assert g.contains(identity(3))
    assert not g.contains(P("(1,2)", 3))
    with pytest.raises(ValueError):
        g.contains(identity(4))


def test_contains_closure_oracle():
    rng = random.Random(41)
    gens = [P("(1,2,3,4,5)", 7), P("(1,2)", 7), P("(6,7)", 7)]
    g = group_from_generators(gens)
    elements = closure(gens)
    assert g.order() == len(elements)  # 240
    hits = 0
    for _ in range(200):
        p = random_permutation(7, rng)
        inside = p in elements
        hits += inside
        assert g.contains(p) == inside
    assert hits > 0


def test_is_transitive():
    assert group_from_generators([P("(1,2)", 3), P("(1,2,3)", 3)]).is_transitive()
    assert not group_from_generators([P("(1,2)", 3)]).is_transitive()


def test_point_stabilizer_regular_action():
    # the regular 9-edge dessin group: order 9 acting on 9 labels
    g = group_from_generators(
        [P("(1,2,3)(4,5,6)(7,8,9)", 9), P("(1,4,7)(2,5,8)(3,6,9)", 9)]
    )
    assert g.order() == 9
    for pt in range(1, 10):
        assert g.point_stabilizer_order(pt) == 1


def test_point_stabilizer_enumeration_oracle():
    gens = [P("(1,2,3,4)", 6), P("(1,2)", 6), P("(5,6)", 6)]
    g = group_from_generators(gens)
    elements = closure(gens)
    assert g.order() == len(elements)
    for pt in range(1, 7):
        expected = sum(1 for p in elements if p(pt) == pt)
        assert g.point_stabilizer_order(pt) == expected


def test_orbit_stabilizer_relation():
    for data in (corpus.K33, corpus.D33, corpus.C33):
        g = group_from_generators([P(s, data["e"]) for s in data["etas"]])
        for pt in range(1, data["e"] + 1):
            assert len(g.orbit(pt)) * g.point_stabilizer_order(pt) == g.order()


def test_elements_stream():
    trivial = PermGroup([], degree=5)
    assert list(trivial.elements()) == [identity(5)]

    g = group_from_generators([P(s, 9) for s in corpus.K33["etas"]])
    elems = list(g.elements())
    assert len(elems) == 36
    assert len(set(elems)) == 36
    for e in elems:
        assert g.contains(e)

    # S_10 is a certified giant, so the refusal needs no build
    s10 = group_from_generators([P("(1,2,3,4,5,6,7,8,9,10)", 10), P("(1,2)", 10)])
    with pytest.raises(CapExceededError,
                       match="group order 3628800 exceeds enumeration cap 1000000"):
        next(s10.elements())


def test_tables_stream_the_tables_of_elements_in_order():
    for gens, n in ((corpus.K33["etas"], 9), (["(1,2,3,4,5,6,7,8)", "(1,2)"], 8)):
        g = group_from_generators([P(s, n) for s in gens])
        tables = list(g._tables())
        assert tables == [p._table for p in g.elements()]
        assert len(set(tables)) == g.order() and _IDENT256 in tables
    assert list(PermGroup([], degree=5)._tables()) == [_IDENT256]
    s10 = group_from_generators([P("(1,2,3,4,5,6,7,8,9,10)", 10), P("(1,2)", 10)])
    tables = s10._tables()  # no refusal before the first next
    with pytest.raises(CapExceededError,
                       match="^group order 3628800 exceeds enumeration cap 1000000$"):
        next(tables)


def test_elements_refuses_a_non_giant_above_the_cap_before_the_first_element():
    # S_6 x S_6 x S_6 on three blocks of 6 points: intransitive, so its
    # order needs a build, yet no element is listed before the refusal
    gens = []
    for b in (0, 6, 12):
        gens.append(P(f"({','.join(str(b + i) for i in range(1, 7))})", 18))
        gens.append(P(f"({b + 1},{b + 2})", 18))
    elements = group_from_generators(gens).elements()
    with pytest.raises(CapExceededError,
                       match="^group order 373248000 exceeds enumeration cap 1000000$"):
        next(elements)


def test_all_generators_even():
    assert group_from_generators([P("(1,2,3)", 3)]).all_generators_even()
    assert not group_from_generators([P("(1,2)", 3)]).all_generators_even()


def test_order_independent_of_base():
    # conjugating the generators by a relabeling moves the smallest moved
    # points, and with them the base
    gens = [P(s, 9) for s in corpus.K33["etas"]]
    reference = group_from_generators(gens).order()
    bases = set()
    for r in ("(1,9)", "(1,5)(2,6)", "(1,3,7,2)"):
        r = P(r, 9)
        g = group_from_generators([compose(compose(r.inverse(), s), r) for s in gens])
        assert g.order() == reference
        bases.add(g.base())
    assert len(bases) == 3


def test_order_matches_closure_for_small_groups():
    cases = [
        [P("(1,2)", 4), P("(3,4)", 4)],
        [P("(1,2,3,4,5)", 5), P("(1,2)", 5)],  # symmetric group, order 120
        [P(s, 9) for s in corpus.K33["etas"]],
        [P(s, 9) for s in corpus.D33["etas"]],
        [P(s, 9) for s in corpus.C33["etas"]],
        [P(s, 12) for s in corpus.A4["etas"]],
        [P(s, 18) for s in corpus.K33_CLEAN["etas"]],
        [P(s, 20) for s in corpus.K5["etas"]],
    ]
    for gens in cases:
        g = group_from_generators(gens)
        assert g.order() == len(closure(gens))
        assert g.order() <= 5000


def test_against_sympy_on_random_generators():
    sympy = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 10)
        gens = [random_permutation(n, rng) for _ in range(rng.randint(1, 3))]
        mine = group_from_generators(gens).order()
        theirs = sympy.PermutationGroup(
            [sympy.Permutation([g(i) - 1 for i in range(1, n + 1)]) for g in gens]
        ).order()
        assert mine == theirs


def test_mixed_degrees_rejected():
    with pytest.raises(ValueError):
        group_from_generators([identity(3), identity(4)])
    with pytest.raises(ValueError):
        group_from_generators([])


# -- giant certificate --------------------------------------------------------

def schreier_sims_order(gens):
    """The order from a BSGS build, bypassing the giant certificate."""
    g = PermGroup(gens)
    g._build()
    return g._order


def sympy_order(gens):
    sympy = pytest.importorskip("sympy.combinatorics")
    return sympy.PermutationGroup(
        [sympy.Permutation([x - 1 for x in g.images]) for g in gens]
    ).order()


def is_giant(order, n):
    return order in (factorial(n), factorial(n) // 2)


def check_monodromy_records(records):
    certified = 0
    for rec in records:
        gens = [rec.representative.sigma, rec.representative.tau]
        n = gens[0].degree
        reference = schreier_sims_order(gens)
        assert reference == sympy_order(gens)
        certificate = _jordan_order(PermGroup(gens))
        if certificate is not None:
            certified += 1
            assert certificate == reference
        elif is_giant(reference, n):
            pytest.fail(f"giant of order {reference} not certified")
        assert rec.invariants.monodromy_order == reference
        assert group_from_generators(gens).order() == reference
    return certified


def test_certified_orders_on_fixture_records(a4_report, k33_report, k5_report):
    assert check_monodromy_records(a4_report.records) == 0
    assert check_monodromy_records(k33_report.records) == 1
    assert check_monodromy_records(k5_report.records) == 50


def test_certified_orders_on_double_prism_sample(dp_report):
    sample = random.Random(3).sample(dp_report.records, 16)
    certified = check_monodromy_records(sample)
    assert 0 < certified < len(sample)


@pytest.mark.parametrize(
    "gens, n, order",
    [
        # PSL(2,5) on the projective line over F_5: x+1 and -1/x; its
        # 5-cycles have 5 > n - 3
        (["(1,2,3,4,5)", "(1,6)(2,5)"], 6, 60),
        # AGL(1,7): x+1 and 3x
        (["(1,2,3,4,5,6,7)", "(2,4,3,7,5,6)"], 7, 42),
        # S_2 wr S_3 on the blocks {1,2},{3,4},{5,6}: holds a transposition
        (["(1,2)", "(1,3)(2,4)", "(1,3,5)(2,4,6)"], 6, 48),
        # S_6 fixing 1: intransitive, and of degree below 8
        (["(2,3,4,5,6,7)", "(2,3)"], 7, 720),
        # S_4: degree below 8
        (["(1,2,3,4)", "(1,2)"], 4, 24),
        # AGL(1,11): x+1 and 2x; primitive, its 11-cycles have 11 > n - 3
        (["(1,2,3,4,5,6,7,8,9,10,11)", "(2,3,5,9,6,11,10,8,4,7)"], 11, 110),
        # S_4 wr S_2 on the blocks {1,2,3,4},{5,6,7,8}: imprimitive, holds
        # 3-cycles, but no prime cycle longer than n/2
        (["(1,2,3,4)", "(1,2)", "(1,5)(2,6)(3,7)(4,8)"], 8, 1152),
        # S_7 fixing 1: intransitive, holds 5-cycles
        (["(2,3,4,5,6,7,8)", "(2,3)"], 8, 5040),
    ],
)
def test_certificate_declines_non_giants(gens, n, order):
    gens = [P(s, n) for s in gens]
    g = group_from_generators(gens)
    assert _jordan_order(g) is None
    assert g.order() == order == len(closure(gens)) == sympy_order(gens)


def test_certificate_primes_are_every_prime_up_to_the_largest_degree():
    # a prime has exactly two divisors
    divisors = [sum(n % d == 0 for d in range(1, n + 1)) for n in range(MAX_DEGREE + 1)]
    assert _PRIMES == tuple(n for n in range(MAX_DEGREE + 1) if divisors[n] == 2)
    assert (len(_PRIMES), _PRIMES[-1]) == (54, 251)


def test_cycle_scan_reaches_a_last_cycle_of_eligible_length():
    # the scan stops once fewer points are left than the shortest length
    table = P("(1,2,3)(4,5,6,7,8)", 8)._table
    assert _has_cycle_of_length(table, 8, {5})
    assert not _has_cycle_of_length(table, 8, {6, 7})


@pytest.mark.parametrize("n", range(5, 13))
def test_certified_alternating_and_symmetric(n):
    cycle = "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"
    cases = [
        ([cycle, "(1,2)"], factorial(n)),
        ([cycle, "(1,2,3)"], factorial(n) if n % 2 == 0 else factorial(n) // 2),
        (["(" + ",".join(str(i) for i in range(2 - n % 2, n + 1)) + ")", "(1,2,3)"],
         factorial(n) // 2),
    ]
    for gens, order in cases:
        gens = [P(s, n) for s in gens]
        g = group_from_generators(gens)
        # below degree 8 no prime p has n/2 < p <= n - 3
        assert _jordan_order(g) == (order if n >= 8 else None)
        assert g.order() == order == schreier_sims_order(gens)
        assert g.all_generators_even() == (order == factorial(n) // 2)


def test_queries_after_certified_order():
    gens = [P("(2,3,4,5,6,7,8)", 8), P("(1,2,3)", 8)]
    g = group_from_generators(gens)
    assert g.order() == 20160
    assert g._levels is None  # answered by the certificate
    assert g.base() == PermGroup(gens).base()
    assert g.contains(P("(1,4,2)", 8))
    assert not g.contains(P("(1,2)", 8))
    elems = list(g.elements())
    assert len(elems) == 20160
    assert set(elems) == closure(gens)

    g = group_from_generators([P("(1,2,3,4,5,6,7,8)", 8), P("(1,2)", 8)])
    assert g.order() == 40320
    assert g._levels is None
    assert len(set(g.elements())) == 40320


def reference_certificate_words(generators):
    """The certificate words from the whole schedule of slot pairs, built up front."""
    slots = [generators[i % len(generators)]._table
             for i in range(max(CERTIFICATE_SLOTS, len(generators)))]
    n = len(slots)
    schedule = [(i, (i + d) % n) for d in range(1, n) for i in range(n)]
    word = _IDENT256
    words = []
    for j in range(CERTIFICATE_WORDS):
        i, l = schedule[j % len(schedule)]
        slots[i] = slots[i].translate(slots[l])
        word = word.translate(slots[i])
        words.append(word)
    return words


@pytest.mark.parametrize("count", range(1, 13))
def test_certificate_words_match_the_full_schedule(count):
    # up to 8 generators the 64 words wrap around the schedule
    rng = random.Random(count)
    gens = [random_permutation(9, rng) for _ in range(count)]
    assert list(_certificate_words(gens)) == reference_certificate_words(gens)


def test_certificate_words_memory_independent_of_generator_count():
    import tracemalloc

    rng = random.Random(5)
    gens = [random_permutation(12, rng) for _ in range(1000)]
    tracemalloc.start()
    try:
        words = list(_certificate_words(gens))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(words) == CERTIFICATE_WORDS
    assert peak < 10**6


def random_transitive_generators(n, rng):
    """Two generators of a random transitive group of degree n, relabeled.

    For composite n: the n-cycle x -> x + 1 and a random permutation
    keeping the residue classes modulo a divisor k of n as blocks, most
    often an imprimitive group.  For prime n: x -> x + 1 and x -> a * x,
    a subgroup of AGL(1, n).  Every third group instead pairs the n-cycle
    with a random permutation, most often a giant.
    """
    shift = [(x + 1) % n for x in range(n)]
    divisors = [k for k in range(2, n) if n % k == 0]
    if rng.randrange(3) == 0:
        other = rng.sample(range(n), n)
    elif divisors:
        k = rng.choice(divisors)
        blocks = rng.sample(range(k), k)
        inner = [rng.sample(range(n // k), n // k) for _ in range(k)]
        other = [blocks[x % k] + k * inner[x % k][x // k] for x in range(n)]
    else:
        a = rng.randrange(2, n)
        other = [a * x % n for x in range(n)]
    relabel = rng.sample(range(n), n)
    back = [0] * n
    for x, y in enumerate(relabel):
        back[y] = x
    return [
        Permutation([relabel[g[back[y]]] + 1 for y in range(n)])
        for g in (shift, other)
    ]


def test_certified_orders_on_random_transitive_groups():
    rng = random.Random(47)
    certified = declined = 0
    for n in range(8, 15):
        for _ in range(6):
            gens = random_transitive_generators(n, rng)
            g = group_from_generators(gens)
            assert g.is_transitive()
            certificate = _jordan_order(g)
            reference = schreier_sims_order(gens)
            assert g.order() == reference == sympy_order(gens)
            if certificate is None:
                declined += 1
            else:
                certified += 1
                assert certificate == reference
    assert certified > 0 and declined > 0


# -- order bounds ---------------------------------------------------------------

def chain(g):
    """The base points, strong generators and transversals of g's BSGS."""
    g.base()
    return [(lv.base, lv.gens, lv.orbit) for lv in g._levels]


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(FIXTURES) if f.endswith(".bg")))
def test_order_bound_keeps_the_chain_of_every_theta(name):
    group = automorphism_group(load_bipartite(name))
    gens, e = group.theta.generators, group.theta.degree
    bounded = PermGroup(gens, degree=e, order_bound=group.group_order)
    free = PermGroup(gens, degree=e)
    assert bounded.order() == free.order() == group.group_order
    assert chain(bounded) == chain(free) == chain(group.theta)
    assert list(bounded.elements()) == list(free.elements())
    assert_complete_chain(free)


def test_order_bound_keeps_the_chain_of_stabilizers(dp_report):
    e = dp_report.graph.e
    records = [rec for rec in dp_report.records if rec.aut_generators]
    assert records
    for rec in records:
        bounded = PermGroup(rec.aut_generators, degree=e, order_bound=rec.aut_order)
        free = PermGroup(rec.aut_generators, degree=e)
        assert bounded.order() == free.order() == rec.aut_order
        assert chain(bounded) == chain(free)
        assert list(bounded.elements()) == list(free.elements())
        assert_complete_chain(free)


def test_order_bound_keeps_the_chain_of_random_groups():
    # few generators, so the bound is often reached partway through the
    # verification rather than by the first orbits
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randrange(2, 8)
        gens = [random_permutation(n, rng) for _ in range(rng.randrange(1, 4))]
        free = PermGroup(gens)
        order = free.order()
        for bound in (order, order + 1, 2 * order):
            bounded = PermGroup(gens, order_bound=bound)
            assert bounded.order() == order
            assert chain(bounded) == chain(free)


def test_order_bound_above_the_order_gives_the_order():
    assert PermGroup([P("(1,2,3)", 3)], order_bound=6).order() == 3
    gens = [P("(1,2)(3,4)", 4), P("(1,3)(2,4)", 4)]
    assert PermGroup(gens, order_bound=24).order() == 4
    assert len(list(PermGroup(gens, order_bound=24).elements())) == 4


def test_order_bound_below_the_giants_skips_the_certificate(monkeypatch):
    def refuse(group):
        raise AssertionError("certificate tried")

    monkeypatch.setattr(permgroup_module, "_jordan_order", refuse)
    dihedral = [P("(1,2,3,4,5,6,7,8)", 8), P("(2,8)(3,7)(4,6)", 8)]
    for bound in (16, 1000, 20159):  # 2 * bound < 8! = 40320
        assert PermGroup(dihedral, order_bound=bound).order() == 16
    for bound in (None, 20160, 40320):  # A_8 fits the bound
        with pytest.raises(AssertionError, match="certificate tried"):
            PermGroup(dihedral, order_bound=bound).order()


# -- completeness of the chain, against an independent reference -------------

class ReferenceLevel:
    __slots__ = ("base", "gens", "orbit")

    def __init__(self, base):
        self.base = base
        self.gens = []    # 256-byte strong generators
        self.orbit = {}   # point -> 256-byte transversal element


def reference_levels(gens, degree):
    """The levels of a plain Schreier-Sims: every basic orbit rebuilt from
    scratch after each new strong generator, and every level rescanned from
    its first point after each registered residue; the reference for orders
    and element sets."""
    ident = _IDENT256
    iprefix = ident[:degree]
    levels = []

    def is_ident(t):
        return t[:degree] == iprefix

    def smallest_moved(t):
        return next(i for i in range(degree) if t[i] != i)

    def update_orbit(lv):
        lv.orbit = {lv.base: ident}
        queue = [lv.base]
        for pt in queue:
            for s in lv.gens:
                if s[pt] not in lv.orbit:
                    lv.orbit[s[pt]] = lv.orbit[pt].translate(s)
                    queue.append(s[pt])

    def strip(t, start):
        for j in range(start, len(levels)):
            lv = levels[j]
            u = lv.orbit.get(t[lv.base])
            if u is None:
                return t, j
            t = t.translate(_invert(u, degree))
        return t, len(levels)

    gens0 = [t for t in dict.fromkeys(g._table for g in gens) if not is_ident(t)]
    for t in gens0:
        if all(t[lv.base] == lv.base for lv in levels):
            levels.append(ReferenceLevel(smallest_moved(t)))
    for t in gens0:
        for lv in levels:
            lv.gens.append(t)
            if t[lv.base] != lv.base:
                break
    for lv in levels:
        update_orbit(lv)

    i = len(levels) - 1
    while i >= 0:
        lv = levels[i]
        registered = None
        for pt, u in sorted(lv.orbit.items()):
            for s in lv.gens:
                sg = u.translate(s).translate(_invert(lv.orbit[s[pt]], degree))
                residue, j = strip(sg, i + 1)
                if is_ident(residue):
                    continue
                if j == len(levels):
                    levels.append(ReferenceLevel(smallest_moved(residue)))
                for deeper in levels[i + 1:j + 1]:
                    deeper.gens.append(residue)
                    update_orbit(deeper)
                registered = j
                break
            if registered is not None:
                break
        i = registered if registered is not None else i - 1
    return levels


def reference_elements(levels):
    """Every product of one transversal element per level, the deepest
    level's applied first."""
    products = {_IDENT256}
    for lv in reversed(levels):
        products = {t.translate(u) for t in products for u in lv.orbit.values()}
    return products


# groups up to this order also compare their element sets
LISTED_ORDER = 10**4


def assert_complete_chain(group):
    """``group``'s chain is a complete BSGS in the two byte forms, with the
    reference's order, sympy's order and, up to ``LISTED_ORDER``, the
    reference's elements."""
    e = group.degree
    ident = _IDENT256[:e]
    levels = chain(group)

    def strip(t, start):
        for base, _, orbit in levels[start:]:
            if t[base] not in orbit:
                return t
            t = t.translate(orbit[t[base]][1])
        return t

    for i, (base, gens, orbit) in enumerate(levels):
        earlier = [b for b, _, _ in levels[:i]]
        for s in gens:
            assert len(s) == 256 and s[e:] == _IDENT256[e:]
            assert all(s[b] == b for b in earlier)
        for pt, (u, u_inv) in orbit.items():
            assert len(u) == e and u[base] == pt
            assert u_inv == _invert(u, e)
        for pt, (u, _) in orbit.items():
            for s in gens:
                assert strip(u.translate(s).translate(orbit[s[pt]][1]), i + 1) == ident
    for g in group.generators:
        assert strip(g._table[:e], 0) == ident
    reference = reference_levels(group.generators, e)
    order = prod(len(lv.orbit) for lv in reference)
    assert group.order() == group._order == order == sympy_order(group.generators)
    if order <= LISTED_ORDER:
        tables = [t[:e] for t in group._tables()]
        assert len(tables) == order
        assert set(tables) == {t[:e] for t in reference_elements(reference)}


def check_monodromy_chains(records):
    for rec in records:
        pair = rec.representative
        gens, e = [pair.sigma, pair.tau], pair.sigma.degree
        free = PermGroup(gens)
        assert_complete_chain(free)
        if is_dualizable(pair):
            bounded = PermGroup(gens, order_bound=2 * factorial(e // 2) ** 2)
            assert chain(bounded) == chain(free)
        if rec.invariants.monodromy_order is not None:
            assert free.order() == rec.invariants.monodromy_order


def test_monodromy_chains_are_complete(a4_report, k33_report, k5_report):
    for report in (a4_report, k33_report, k5_report):
        check_monodromy_chains(report.records)


def test_monodromy_chains_are_complete_on_samples(dp_report, frucht_light_report):
    rng = random.Random(19)
    check_monodromy_chains(rng.sample(dp_report.records, 40))
    check_monodromy_chains(rng.sample(frucht_light_report.records, 6))


def test_random_group_chains_are_complete():
    rng = random.Random(67)
    for _ in range(300):
        n = rng.randint(1, 10)
        gens = [random_permutation(n, rng) for _ in range(rng.randint(1, 3))]
        assert_complete_chain(PermGroup(gens))


# -- the work of one build ------------------------------------------------------

def counted_calls(monkeypatch):
    """Wrap ``permgroup._invert`` and ``permgroup._sift``; the dict that
    counts their calls."""
    calls = {"_invert": 0, "_sift": 0}
    for name in calls:
        def wrapper(*args, name=name, real=getattr(permgroup_module, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(permgroup_module, name, wrapper)
    return calls


def assert_work_bound(gens, calls):
    """One build inverts each transversal element once and strips each
    (orbit point, strong generator) pair's Schreier generator at most once."""
    calls.update(_invert=0, _sift=0)
    g = PermGroup(gens)
    g._build()
    levels = g._levels
    assert calls["_invert"] == sum(len(lv.orbit) - 1 for lv in levels)
    assert calls["_sift"] <= sum(len(lv.orbit) * len(lv.gens) for lv in levels)


def test_work_bound_on_monodromy_groups(k5_report, monkeypatch):
    calls = counted_calls(monkeypatch)
    for rec in k5_report.records:
        assert_work_bound([rec.representative.sigma, rec.representative.tau], calls)


def test_work_bound_on_random_groups(monkeypatch):
    calls = counted_calls(monkeypatch)
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 16)
        gens = [random_permutation(n, rng) for _ in range(rng.randint(1, 3))]
        assert_work_bound(gens, calls)
