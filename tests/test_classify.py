import importlib
import io
import tracemalloc

import pytest

from dessins import (
    CapExceededError,
    PermGroup,
    Permutation,
    act,
    automorphism_group,
    canonical_form,
    classify,
    compose,
    conjugate,
    cycle_type,
    enumerate_pairs,
    format_cycles,
    group_from_generators,
    identity,
    invariants,
    local_rotations,
    mirror,
    parse_bipartite,
    parse_cycles,
    serialize_report,
    stabilizer,
    wilson_orbit_targets,
    BudgetExceededError,
    InternalInvariantError,
)
from dessins.classify import _Action
from dessins.cli import main
from dessins.rotation import RotationPair, _Radix, membership_failure

import corpus
from conftest import EVERY_BG_REPORT, fixture_path, load_bipartite, record_for, run_capped, star_text


def P(s, n):
    return parse_cycles(s, n)


def test_act_identity_and_axiom(k33_report):
    graph = k33_report.graph
    group = automorphism_group(graph)
    elems = list(group.theta.elements())
    # on a pair with trivial stabilizer, conjugating by g and by g^-1 differ
    # for every g of order > 2, and so do a right and a left action
    [rec] = [r for r in k33_report.records if r.orbit_length == len(elems)]
    pair = rec.representative
    ident = P("()", 9)
    same = act(ident, pair)
    assert (same.sigma, same.tau) == (pair.sigma, pair.tau)
    for g in elems:
        image = act(g, pair)
        gi = g.inverse()
        assert (image.sigma, image.tau) == (
            compose(compose(gi, pair.sigma), g),
            compose(compose(gi, pair.tau), g),
        )
        for h in elems:
            lhs = act(g * h, pair)
            rhs = act(h, image)
            assert (lhs.sigma, lhs.tau) == (rhs.sigma, rhs.tau)


def test_act_stays_in_family(k33_report):
    graph = k33_report.graph
    group = automorphism_group(graph)
    eta1 = P(corpus.K33["etas"][0], 9)
    for pair in list(enumerate_pairs(graph))[:16]:
        image = act(eta1, pair)
        assert membership_failure(graph, image.sigma, image.tau) is None


def test_canonical_form_trivial_group(frucht_light_report):
    graph = frucht_light_report.graph
    trivial = PermGroup([], degree=graph.e)
    pair = next(iter(enumerate_pairs(graph)))
    canon = canonical_form(pair, trivial)
    assert (canon.sigma, canon.tau) == (pair.sigma, pair.tau)


def test_canonical_form_constant_on_orbits(a4_report):
    graph = a4_report.graph
    group = automorphism_group(graph)
    elems = list(group.theta.elements())
    keys = set()
    for pair in enumerate_pairs(graph):
        canon = canonical_form(pair, group)
        keys.add((canon.sigma, canon.tau))
        for g in elems[:6]:
            moved = act(g, pair)
            again = canonical_form(moved, group)
            assert (again.sigma, again.tau) == (canon.sigma, canon.tau)
    assert len(keys) == 3


def test_stabilizer_orders_a4(a4_report):
    graph = a4_report.graph
    group = automorphism_group(graph)
    tau = corpus.A4["tau"]
    # orbit-stabilizer in the order-24 edge action: 24/8, 24/6, 24/2
    for sigma, order in ((corpus.A4["sigma1"], 3),
                         (corpus.A4["sigma2"], 4),
                         (corpus.A4["sigma3"], 12)):
        pair = RotationPair(P(sigma, 12), P(tau, 12), graph)
        assert stabilizer(pair, group).order() == order


def test_stabilizer_elements_centralize_the_pair(k33_report):
    for rec in k33_report.records:
        sigma = rec.representative.sigma
        tau = rec.representative.tau
        for g in rec.aut_generators:
            assert conjugate(sigma, g) == sigma
            assert conjugate(tau, g) == tau


def test_classify_a4(a4_report):
    assert len(a4_report.records) == 3
    assert sorted(r.orbit_length for r in a4_report.records) == [2, 6, 8]
    assert sorted(r.aut_order for r in a4_report.records) == [3, 4, 12]
    assert all(r.mirror_status == "reflexive" for r in a4_report.records)


def test_classify_k33(k33_report):
    assert len(k33_report.records) == 4
    assert sorted(r.orbit_length for r in k33_report.records) == [4, 12, 12, 36]
    # every class of this graph is isomorphic to its mirror
    assert all(r.mirror_status == "reflexive" for r in k33_report.records)
    genus2 = [r for r in k33_report.records if r.invariants.genus == 2]
    assert len(genus2) == 2
    assert all(r.invariants.monodromy_order == 81 for r in genus2)
    assert all(r.aut_order == 3 for r in genus2)


def test_classify_d33(d33_report):
    assert sorted(r.orbit_length for r in d33_report.records) == [8, 8, 24, 24]
    assert sorted(r.invariants.genus for r in d33_report.records) == [0, 1, 1, 1]
    assert all(r.mirror_status == "reflexive" for r in d33_report.records)


def test_classify_c33(c33_report):
    records = c33_report.records
    assert len(records) == 8
    assert all(r.orbit_length == 8 for r in records)
    assert sorted(r.invariants.genus for r in records) == [0, 1, 1, 1, 1, 1, 2, 2]
    chiral = [r for r in records if r.mirror_status == "chiral"]
    assert len(chiral) == 4
    # chiral records pair up symmetrically with matching invariants
    by_id = {r.orbit_id: r for r in records}
    for rec in chiral:
        partner = by_id[rec.mirror_partner]
        assert partner.mirror_partner == rec.orbit_id
        assert partner.invariants.genus == rec.invariants.genus
        assert partner.invariants.passport == rec.invariants.passport
        assert partner.invariants.monodromy_order == rec.invariants.monodromy_order
    assert {tuple(r.invariants.passport.faces) for r in chiral} == {(1, 4, 4), (1, 2, 6)}


def test_classify_k33_clean(k33_clean_report):
    records = k33_clean_report.records
    assert sorted(r.orbit_length for r in records) == [4, 24, 36]
    assert sorted(r.aut_order for r in records) == [2, 3, 18]
    regular = [r for r in records if r.invariants.regular]
    assert len(regular) == 1
    assert regular[0].orbit_length == 4
    assert regular[0].invariants.monodromy_order == 18
    assert regular[0].aut_order == 18


def test_k5_chiral_pairs(k5_report):
    graph = k5_report.graph
    tau = corpus.K5["tau"]
    recs = {j: record_for(k5_report, corpus.K5["sigmas"][j], tau) for j in corpus.K5["sigmas"]}
    # the two regular classes form a mirror pair, as do 1/3 and 6/7
    for a, b in ((8, 9), (1, 3), (6, 7)):
        assert recs[a].mirror_status == "chiral"
        assert recs[a].mirror_partner == recs[b].orbit_id
        assert recs[b].mirror_partner == recs[a].orbit_id
    for j in (2, 4, 5):
        assert recs[j].mirror_status == "reflexive"
    assert recs[2].aut_order == 1
    assert recs[5].aut_order == 4
    assert recs[8].invariants.regular and recs[8].invariants.monodromy_order == 20


BG_FIXTURES = ("a4_clean", "bundle6", "c33", "d33", "double_prism", "frucht_clean",
               "k33", "k33_clean", "k44", "k5_clean", "star6")
# (classes, chiral pairs), as the closed-form Burnside counts give them
BURNSIDE = {"double_prism": (1042, 447), "k44": (3008, 1318)}


def test_nine_leaf_star_within_memory():
    # |G| = 9! = 362880: the action holds one table and one e-byte inverse
    # per element, and no other copy of G
    code, out, err = run_capped(
        "import resource\n"
        "from dessins import classify, parse_bipartite\n"
        f"report = classify(parse_bipartite({star_text(9)!r}), with_monodromy=False)\n"
        "print([(r.orbit_length, r.aut_order) for r in report.records])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 256 * 1024)\n",
        cpu_seconds=60,
    )
    assert code == 0, err[-2000:]
    assert out == "[(40320, 9)]\nTrue\n"


def test_action_refuses_a_group_of_another_degree():
    group = automorphism_group(load_bipartite("k33.bg")).theta
    with pytest.raises(ValueError, match="^degree mismatch: 10 != 9$"):
        _Action(group, 10)


@pytest.mark.parametrize("name", BG_FIXTURES)
def test_mirror_partner_is_the_orbit_of_the_mirror(name):
    # the census pairs orbits by rank; here each partner is found again as
    # the orbit of the canonical form of the mirrored representative, by
    # canonical_form's own action built once per graph (canonical_form
    # builds it per call, about 2 ms each on K_{4,4})
    report = classify(load_bipartite(name + ".bg"), with_monodromy=False)
    e = report.graph.e
    least = _Action(report.theta, e).least
    orbit_of = {
        (rec.representative.sigma._table[:e], rec.representative.tau._table[:e]): rec.orbit_id
        for rec in report.records
    }
    for rec in report.records:
        image = mirror(rec.representative)
        partner = orbit_of[least(image.sigma._table, image.tau._table)]
        if partner == rec.orbit_id:
            assert (rec.mirror_status, rec.mirror_partner) == ("reflexive", None)
        else:
            assert (rec.mirror_status, rec.mirror_partner) == ("chiral", partner)
    if name in BURNSIDE:
        chiral = sum(rec.mirror_status == "chiral" for rec in report.records)
        assert (len(report.records), chiral // 2) == BURNSIDE[name]


def test_census_refuses_a_mirror_left_pending(monkeypatch):
    # every mirrored pair ranked 0 falls in the first orbit, found before
    # the orbits that then wait for it
    monkeypatch.setattr(_Radix, "rank", lambda self, s, t: 0)
    with pytest.raises(InternalInvariantError, match="left pending by the census"):
        classify(load_bipartite("k33.bg"), with_monodromy=False)


def test_census_refuses_a_mirror_that_left_the_family(monkeypatch):
    def rank(self, s, t):
        raise KeyError(s)
    monkeypatch.setattr(_Radix, "rank", rank)
    with pytest.raises(InternalInvariantError, match="^mirror of orbit 0 left the family$"):
        classify(load_bipartite("k33.bg"), with_monodromy=False)


def test_burnside_oracle():
    """Orbit count equals the average number of fixed pairs over the group."""
    for name in ("a4_clean.bg", "k33.bg", "d33.bg", "c33.bg", "k33_clean.bg"):
        graph = load_bipartite(name)
        group = automorphism_group(graph)
        elems = list(group.theta.elements())
        pairs = [(p.sigma, p.tau) for p in enumerate_pairs(graph)]
        total_fixed = 0
        for g in elems:
            total_fixed += sum(
                1
                for s, t in pairs
                if conjugate(s, g) == s and conjugate(t, g) == t
            )
        assert total_fixed % len(elems) == 0
        expected_orbits = total_fixed // len(elems)
        report = classify(graph)
        assert len(report.records) == expected_orbits


def test_orbit_stabilizer_everywhere(a4_report, k33_report, d33_report,
                                     c33_report, k33_clean_report, k5_report):
    for rep in (a4_report, k33_report, d33_report, c33_report,
                k33_clean_report, k5_report):
        n = rep.group_order
        assert sum(r.orbit_length for r in rep.records) == rep.candidate_count
        for rec in rep.records:
            assert rec.orbit_length * rec.aut_order == n


def test_bundle7_census_matches_burnside():
    """One black and one white vertex joined by 7 parallel edges.

    N = 6! * 6! = 518400 pairs and |G| = 7! = 5040: the N * |G| conjugations
    of a per-pair canonicalization would take many minutes.
    """
    graph = parse_bipartite(
        "black b\nwhite w\n" + "".join(f"edge {i} b w\n" for i in range(1, 8))
    )
    report = classify(graph, with_monodromy=False)
    assert (report.candidate_count, report.group_order) == (518400, 5040)
    assert sum(r.orbit_length for r in report.records) == report.candidate_count

    def rotations(vertex):
        out = []
        for rot in local_rotations(graph, vertex):
            images = [0] * graph.e
            for a, b in zip(rot.cycle, rot.cycle[1:] + rot.cycle[:1]):
                images[a - 1] = b
            out.append(Permutation(images))
        return out

    sigmas, taus = rotations("b"), rotations("w")
    # Burnside: orbits = sum over g of (fixed sigma) * (fixed tau) / |G|.  A
    # fixed count is a class function, and in G = S_7 the conjugacy classes
    # are the cycle types.
    elems = list(automorphism_group(graph).theta.elements())
    assert len(elems) == 5040
    by_type = {}
    fixed = 0
    for g in elems:
        ct = tuple(cycle_type(g))
        if ct not in by_type:
            by_type[ct] = sum(conjugate(s, g) == s for s in sigmas) * sum(
                conjugate(t, g) == t for t in taus
            )
        fixed += by_type[ct]
    assert fixed % len(elems) == 0
    assert len(report.records) == fixed // len(elems) == 108


def test_reports_identical_across_thread_counts():
    for name in ("a4_clean.bg", "k33.bg", "d33.bg"):
        graph = load_bipartite(name)
        solo = serialize_report(classify(graph, threads=1), "json")
        multi = serialize_report(classify(graph, threads=3), "json")
        assert solo == multi
    # 1042 orbits with monodromy groups
    graph = load_bipartite("double_prism.bg")
    solo = serialize_report(classify(graph, threads=1), "json")
    assert serialize_report(classify(graph, threads=2), "json") == solo


# (fixture, with monodromy): the six small graphs, two dense groups, and
# the double prism (125 non-free orbits) without monodromy
STABILIZER_ORDER_CASES = [
    *((name, True) for name in ("a4_clean", "c33", "d33", "k33", "k33_clean", "k5_clean")),
    ("bundle6", True), ("star6", True), ("double_prism", False),
]


def greedy_generators(theta):
    """theta's generators, each kept only if the kept ones do not yet generate it."""
    kept, group = [], PermGroup([], degree=theta.degree)
    for g in theta.generators:
        if not group.contains(g):
            kept.append(g)
            group = PermGroup(kept, degree=theta.degree)
    return kept


@pytest.mark.parametrize("name, with_monodromy", STABILIZER_ORDER_CASES)
def test_json_does_not_depend_on_the_generating_set(name, with_monodromy):
    # each stabilizer is listed by table, so a greedy generating set (4 of
    # star6's 719) or the generators reversed give the same bytes
    graph = load_bipartite(name + ".bg")
    theta = automorphism_group(graph).theta
    full = serialize_report(classify(graph, with_monodromy=with_monodromy), "json")
    for generators in (greedy_generators(theta), theta.generators[::-1]):
        group = PermGroup(generators, degree=graph.e)
        assert group.order() == theta.order()
        report = classify(graph, group=group, with_monodromy=with_monodromy)
        assert serialize_report(report, "json") == full


@pytest.mark.parametrize("name", [name for name, _ in STABILIZER_ORDER_CASES])
def test_stabilizer_elements_are_listed_by_table(name):
    graph = load_bipartite(name + ".bg")
    group = automorphism_group(graph)
    records = classify(graph, with_monodromy=False).records
    for rec in records:
        tables = [g._table for g in rec.aut_generators]
        assert all(a < b for a, b in zip(tables, tables[1:]))
        assert stabilizer(rec.representative, group).generators == rec.aut_generators
    # analyze lists them in the same order
    for rec in [r for r in records if r.aut_generators]:
        out = io.StringIO()
        assert main([
            "analyze", fixture_path(name + ".bg"),
            "--sigma", format_cycles(rec.representative.sigma),
            "--tau", format_cycles(rec.representative.tau),
        ], out=out, err=io.StringIO()) == 0
        line = "aut_generators: " + "; ".join(map(format_cycles, rec.aut_generators))
        assert line in out.getvalue().splitlines()


def commuting_permutations(pair):
    """The permutations c commuting with sigma and tau, one per label x:
    c(0) = x, extended by c(sigma(i)) = sigma(c(i)) and c(tau(i)) =
    tau(c(i)), kept when that is consistent and bijective.  sigma and tau
    generate a transitive group, so c(0) decides c."""
    e = pair.sigma.degree
    generators = (pair.sigma._table[:e], pair.tau._table[:e])
    found = []
    for x in range(e):
        c = {0: x}
        queue = [0]
        consistent = True
        for i in queue:
            for p in generators:
                j, image = p[i], p[c[i]]
                if j not in c:
                    c[j] = image
                    queue.append(j)
                elif c[j] != image:
                    consistent = False
        if consistent and len(c) == e and len(set(c.values())) == e:
            found.append(Permutation([c[i] + 1 for i in range(e)]))
    return found


@pytest.mark.parametrize("name", [
    *EVERY_BG_REPORT, "bundle6", "k44", "star6", "dp_drawing_report",
])
def test_every_stabilizer_is_the_centralizer_within_the_group(name, request):
    # the stabilizer of a pair is the centralizer of <sigma, tau>
    # intersected with G, found here without listing G
    if name.endswith("_report"):
        report = request.getfixturevalue(name).report
    else:
        report = classify(load_bipartite(name + ".bg"), with_monodromy=False)
    e = report.graph.e
    outside = 0
    for rec in report.records:
        commuting = commuting_permutations(rec.representative)
        inside = {c for c in commuting if report.theta.contains(c)}
        outside += len(commuting) - len(inside)
        assert inside == {identity(e), *rec.aut_generators}
        assert len(inside) == rec.aut_order
    if name == "dp_drawing_report":
        # the order-8 subgroup misses some of the full group's automorphisms
        assert outside > 0


def test_reports_identical_for_any_thread_count_and_core_count(monkeypatch):
    import os

    graph = load_bipartite("a4_clean.bg")
    # 16 candidate pairs, each its own orbit, in 8 mirror classes
    trivial = PermGroup([], degree=graph.e)
    for with_monodromy in (True, False):
        solo = serialize_report(classify(graph, threads=1, group=trivial,
                                         with_monodromy=with_monodromy), "json")
        for cores in (1, 8, 64, None):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            for threads in (0, 1, 2, 3, 50000):
                report = classify(graph, threads=threads, group=trivial,
                                  with_monodromy=with_monodromy)
                assert len(report.records) == 16
                assert serialize_report(report, "json") == solo
    for threads in (-1, -50000):
        with pytest.raises(ValueError, match=f"^threads {threads} is negative$"):
            classify(graph, threads=threads, group=trivial)


def test_import_loads_no_process_pool():
    # importing the package, its command line among it, leaves
    # multiprocessing unloaded, and a classify run with monodromy groups
    # at --threads 0 on a host of four cores forks nothing
    code, out, err = run_capped(
        "import sys\nimport dessins.cli\nprint('multiprocessing' in sys.modules)\n"
    )
    assert (code, out, err) == (0, "False\n", "")
    code, out, err = run_capped(
        "import io, os, sys\n"
        "import dessins.cli\n"
        "def refuse():\n"
        "    raise AssertionError('forked')\n"
        "os.cpu_count = lambda: 4\n"
        "os.fork = refuse\n"
        f"code = dessins.cli.main(['classify', {fixture_path('k33.bg')!r}, '--emit', 'json',\n"
        "                          '--threads', '0'], out=io.StringIO(), err=io.StringIO())\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    assert (code, out, err) == (0, "0 False\n", "")


def _assert_chiral_invariants_hold_on_own_pair(report):
    """Each chiral record shares its partner's invariants, and they are its own."""
    chiral = [rec for rec in report.records if rec.mirror_status == "chiral"]
    assert chiral
    for rec in chiral:
        partner = report.records[rec.mirror_partner]
        assert rec.invariants is partner.invariants
        with_monodromy = rec.invariants.monodromy_order is not None
        assert invariants(rec.representative, with_monodromy) == rec.invariants


@pytest.mark.parametrize("name, records, calls", [
    ("c33.bg", 8, 6), ("k5_clean.bg", 78, 50), ("frucht_clean.bg", 4096, 2048),
])
def test_invariants_run_once_per_mirror_class(monkeypatch, name, records, calls):
    # the package's ``classify`` is the function, so look the module up
    classify_module = importlib.import_module("dessins.classify")
    pairs = []
    original = classify_module.invariants

    def counted(pair, *args, **kwargs):
        pairs.append(pair)
        return original(pair, *args, **kwargs)

    monkeypatch.setattr(classify_module, "invariants", counted)
    report = classify(load_bipartite(name), threads=1)
    classes = [rec.representative for rec in report.records
               if rec.mirror_partner is None or rec.orbit_id < rec.mirror_partner]
    assert (len(report.records), len(pairs)) == (records, calls)
    assert pairs == classes
    _assert_chiral_invariants_hold_on_own_pair(report)


def test_chiral_records_keep_their_own_invariants(c33_report, dp_report):
    for report in (c33_report, dp_report):
        _assert_chiral_invariants_hold_on_own_pair(report)


def test_budget_refusal():
    graph = load_bipartite("k5_clean.bg")
    with pytest.raises(BudgetExceededError) as exc:
        classify(graph, budget=100)
    assert exc.value.count == 7776


def test_group_override_trivial():
    graph = load_bipartite("k33.bg")
    trivial = PermGroup([], degree=9)
    report = classify(graph, group=trivial)
    assert len(report.records) == 64
    assert all(r.orbit_length == 1 for r in report.records)


def test_group_override_that_leaves_the_family_is_refused():
    graph = load_bipartite("k33.bg")
    # labels 1 and 4 sit at different black vertices: not an automorphism
    bogus = PermGroup([P("(1,4)", 9)])
    with pytest.raises(InternalInvariantError) as exc:
        classify(graph, group=bogus, with_monodromy=False)
    assert str(exc.value) == (
        "the group left the family: (1,4) maps the labels of vertex 'b1' "
        "to no vertex of its colour"
    )


def test_group_override_that_moves_a_single_rotation_vertex_is_refused():
    # (1,2)(4,5,6,7) keeps every white label set and the black set {1,2,3}
    # but maps the black set {4,5} onto labels of two black vertices; B2 and
    # B3 have a single rotation each, so ranks do not read their labels
    graph = parse_bipartite(
        "black B1 B2 B3\nwhite W1 W2 W3\n"
        "edge 1 B1 W1\nedge 2 B1 W2\nedge 3 B1 W3\nedge 4 B2 W1\n"
        "edge 5 B2 W2\nedge 6 B3 W1\nedge 7 B3 W2\n"
    )
    bogus = PermGroup([P("(1,2)(4,5,6,7)", 7)])
    with pytest.raises(InternalInvariantError, match="left the family"):
        classify(graph, group=bogus, with_monodromy=False)


def test_group_above_the_element_cap_is_refused_before_the_census():
    # S_10 on the labels of the 10-leaf star keeps the family, but its
    # 3628800 elements exceed the cap: the refusal lists none of them and
    # builds no radix for the 9! rotations at the centre
    graph = parse_bipartite(star_text(10))
    s10 = PermGroup([P("(1,2,3,4,5,6,7,8,9,10)", 10), P("(1,2)", 10)])
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError,
                           match="^group order 3628800 exceeds enumeration cap 1000000$"):
            classify(graph, group=s10, with_monodromy=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_wilson_targets_fix_each_orbit(k33_report):
    # on this graph the power operations permute pairs inside each class
    for r, s in ((1, 1), (2, 1), (1, 2), (2, 2)):
        targets = wilson_orbit_targets(k33_report, r, s)
        assert targets == {rec.orbit_id: rec.orbit_id for rec in k33_report.records}


def test_duality_oracle_option():
    report = classify(load_bipartite("d33.bg"), duality_oracle=True)
    assert len(report.records) == 4


def test_double_prism_full_group(dp_report):
    """The bipyramid census under its complete automorphism group."""
    assert dp_report.group_order == 48
    assert len(dp_report.records) == 1042
    assert dp_report.genus_histogram == {0: 1, 1: 21, 2: 327, 3: 693}
    assert dp_report.dualizable_histogram == {0: 1, 1: 6, 2: 25, 3: 6}
    special = [
        r for r in dp_report.records
        if r.invariants.genus == 1
        and tuple(r.invariants.passport.faces) == (3, 3, 4, 4, 5, 5)
    ]
    assert len(special) == 4
    assert all(r.invariants.monodromy_order == 980995276800 for r in special)
    assert sum(1 for r in special if r.mirror_status == "reflexive") == 2


def test_double_prism_free_orbits(dp_report):
    # 917 of the 1042 orbits are free: their stabilizers are trivial
    group = dp_report.group
    free = [r for r in dp_report.records if r.orbit_length == dp_report.group_order]
    assert len(free) == 917
    for rec in free:
        assert rec.aut_order == 1 and rec.aut_generators == ()
        assert stabilizer(rec.representative, group).order() == 1
    for rec in dp_report.records:
        if rec.orbit_length < dp_report.group_order:
            assert rec.aut_order > 1
            assert len(rec.aut_generators) == rec.aut_order - 1


def test_double_prism_drawing_subgroup(dp_drawing_report):
    """Classifying only up to the drawing's symmetries (an order-8 subgroup)
    reproduces the historically reported census for this graph."""
    graph = dp_drawing_report.graph
    full = automorphism_group(graph)
    rot = P(corpus.DOUBLE_PRISM["drawing_rotation"], 24)
    flip = P(corpus.DOUBLE_PRISM["drawing_flip"], 24)
    sub = group_from_generators([rot, flip])
    assert sub.order() == 8
    assert full.theta.contains(rot) and full.theta.contains(flip)

    report = dp_drawing_report.report
    assert len(report.records) == 5946
    assert report.genus_histogram == {0: 2, 1: 79, 2: 1849, 3: 4016}
    assert report.dualizable_histogram == {0: 2, 1: 22, 2: 121, 3: 33}

    special = [
        r for r in report.records
        if r.invariants.genus == 1
        and tuple(r.invariants.passport.faces) == (3, 3, 4, 4, 5, 5)
    ]
    assert len(special) == 13
    assert sum(1 for r in special if r.mirror_status == "reflexive") == 3
    for rec in special:
        group = group_from_generators(
            [rec.representative.sigma, rec.representative.tau]
        )
        assert group.order() == 980995276800

    d1 = record_for(report, corpus.DOUBLE_PRISM["sigma1"],
                    corpus.DOUBLE_PRISM["tau"], group=sub)
    d2 = record_for(report, corpus.DOUBLE_PRISM["sigma2"],
                    corpus.DOUBLE_PRISM["tau"], group=sub)
    assert d1.mirror_status == "chiral" and d1.aut_order == 2
    assert d2.mirror_status == "reflexive" and d2.aut_order == 1


def test_eight_leaf_star_within_memory():
    # |G| = 8! = 40320 from 7 generators; the only dessin is the 8-cycle,
    # fixed by its own rotations
    code, out, err = run_capped(
        "import time\n"
        "from dessins import classify, parse_bipartite\n"
        "start = time.monotonic()\n"
        f"report = classify(parse_bipartite({star_text(8)!r}), with_monodromy=False)\n"
        "print([(r.orbit_length, r.aut_order) for r in report.records])\n"
        "print(time.monotonic() - start < 5)\n",
        cpu_seconds=30,
    )
    assert code == 0, err[-2000:]
    assert out == "[(5040, 8)]\nTrue\n"
