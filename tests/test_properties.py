"""Seeded property tests of the classification on small random graphs.

The main oracle uses only the public ``act``: it closes each rotation pair
under every group element to get the orbits, and counts fixed pairs for
Burnside's lemma.  A second oracle canonicalizes every pair on its own
and counts the pairs per canonical form.  The classification must agree
with both.  Its records must carry the invariants that the public
``invariants`` computes without the graph passport, the duality of
``dualizable_oracle``, and the same report at two threads as at one; its
family check must refuse exactly as one call per label would, and coprime
Wilson powers must permute its orbits.  The cycle text that reports write
from the vertices must be ``format_cycles`` on the family and a refusal
off it.  The
vertex automorphisms of the backtracker must be exactly
the color-preserving, multiplicity-preserving bijections found by brute
force.  The genus property holds the exact search of
``graphgenus`` to the brute-force oracle of ``genus_oracle`` on random
plain multigraphs.  The cycle notation properties hold ``parse_cycles``
to the character walk of ``cycles_oracle`` on random text, well formed or
not, ``format_cycles`` and ``cycle_type`` to its label-by-label walk, and
the plain-text shortcut of ``parse_report`` (``perm._plain_labels``) to
both: it takes only text the walk accepts, and all of ``format_cycles``.
"""

import itertools
import math
from collections import Counter

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from dessins import (
    BipartiteGraph,
    InternalInvariantError,
    PermGroup,
    PlainGraph,
    act,
    automorphism_group,
    canonical_form,
    classify,
    cleanify,
    cycle_type,
    dualizable_oracle,
    enumerate_pairs,
    format_cycles,
    invariants,
    local_rotations,
    mirror,
    parse_cycles,
    serialize_report,
    stabilizer,
    wilson_orbit_targets,
)
from dessins.bgraph import _vertex_automorphisms
from dessins.classify import _Action, _check_keeps_family
from dessins.perm import MAX_DEGREE, Permutation, _plain_labels
from dessins.rotation import CycleText, _Radix

import cycles_oracle
import genus_oracle
from conftest import closure

# N * |G| act calls per Burnside count; keeps each example well under 0.1 s
MAX_WORK = 3000


@st.composite
def small_graphs(draw):
    """A connected bipartite multigraph with at most 7 edges, labels shuffled.

    A random tree grown from the edge b0-w0 keeps it connected; extra edges
    may run in parallel to earlier ones.
    """
    blacks, whites = ["b0"], ["w0"]
    ends = [("b0", "w0")]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            ends.append((f"b{len(blacks)}", draw(st.sampled_from(whites))))
            blacks.append(ends[-1][0])
        else:
            ends.append((draw(st.sampled_from(blacks)), f"w{len(whites)}"))
            whites.append(ends[-1][1])
    ends += draw(st.lists(
        st.tuples(st.sampled_from(blacks), st.sampled_from(whites)),
        max_size=7 - len(ends),
    ))
    labels = draw(st.permutations(range(1, len(ends) + 1)))
    return BipartiteGraph(blacks, whites, [(l, b, w) for l, (b, w) in zip(labels, ends)])


@st.composite
def small_plain_graphs(draw):
    """A connected multigraph with at most 7 edges, loops and parallel edges
    allowed, vertices and labels shuffled."""
    vertices = ["v0"]
    ends = []
    for i in range(1, draw(st.integers(1, 5))):
        ends.append((draw(st.sampled_from(vertices)), f"v{i}"))
        vertices.append(f"v{i}")
    ends += draw(st.lists(
        st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
        min_size=0 if ends else 1,
        max_size=7 - len(ends),
    ))
    labels = draw(st.permutations(range(1, len(ends) + 1)))
    return PlainGraph(draw(st.permutations(vertices)),
                      [(l, u, v) for l, (u, v) in zip(labels, ends)])


def key(pair):
    return pair.sigma.images, pair.tau.images


seeded = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@seeded
@given(small_graphs())
def test_classification_agrees_with_act_oracle(graph):
    group = automorphism_group(graph)
    assume(graph.candidate_count() * group.theta.order() <= MAX_WORK)
    elems = list(group.theta.elements())
    pairs = list(enumerate_pairs(graph))

    orbit_of = {}
    orbit_sizes = []
    for pair in pairs:
        if key(pair) not in orbit_of:
            orbit = {key(act(g, pair)) for g in elems}
            orbit_of.update((k, len(orbit_sizes)) for k in orbit)
            orbit_sizes.append(len(orbit))
    fixed = sum(1 for g in elems for p in pairs if key(act(g, p)) == key(p))
    assert fixed % len(elems) == 0

    report = classify(graph)
    records = report.records
    assert report.group_order == len(elems)
    assert len(records) == len(orbit_sizes) == fixed // len(elems)
    assert sum(r.orbit_length for r in records) == len(pairs) == graph.candidate_count()

    orbit_ids = {orbit_of[key(r.representative)] for r in records}
    assert len(orbit_ids) == len(records)
    by_id = {r.orbit_id: r for r in records}
    for rec in records:
        rep = rec.representative
        assert rec.orbit_length == orbit_sizes[orbit_of[key(rep)]]
        assert rec.orbit_length * rec.aut_order == len(elems)
        assert stabilizer(rep, group).order() == rec.aut_order
        for g in elems:
            image = act(g, rep)
            assert key(canonical_form(image, group)) == key(rep)
            # a right action: conjugating by g, then by h, is conjugating by g*h
            for h in group.theta.generators:
                assert key(act(h, image)) == key(act(g * h, rep))
        partner = by_id[rec.orbit_id if rec.mirror_partner is None else rec.mirror_partner]
        assert orbit_of[key(mirror(rep))] == orbit_of[key(partner.representative)]
        if rec.mirror_status == "chiral":
            assert partner.orbit_id != rec.orbit_id
            assert partner.mirror_partner == rec.orbit_id
        else:
            assert rec.mirror_partner is None


def brute_force_vertex_automorphisms(graph):
    """The label table of every bijection of each color class that keeps all
    edge multiplicities.

    The pair rule gives the table: the sorted labels of each (b, w) pair go,
    in order, onto the sorted labels of the image pair, all 0-based.
    """
    mult = Counter((b, w) for _, b, w in graph.edges)
    labels = {}
    for l, b, w in sorted(graph.edges):
        labels.setdefault((b, w), []).append(l - 1)
    found = []
    for pb in itertools.permutations(graph.blacks):
        fb = dict(zip(graph.blacks, pb))
        for pw in itertools.permutations(graph.whites):
            fw = dict(zip(graph.whites, pw))
            if all(mult[(fb[b], fw[w])] == k for (b, w), k in mult.items()):
                table = [0] * graph.e
                for (b, w), ls in labels.items():
                    for a, t in zip(ls, labels[(fb[b], fw[w])]):
                        table[a] = t
                found.append(bytes(table))
    return found, mult


@settings(seeded, max_examples=300)
@given(small_graphs())
def test_vertex_automorphisms_agree_with_brute_force(graph):
    # the backtracker checks edge counts at placed neighbours only; the
    # brute force checks them at every pair of vertices.  The breadth-first
    # closure of the generators is the whole group, and the count its size
    generators, count = _vertex_automorphisms(graph)
    expected, mult = brute_force_vertex_automorphisms(graph)
    assert len(set(expected)) == len(expected)
    assert closure(generators, graph.e) == set(expected)
    assert count == len(expected)
    assert len(generators) < len(graph.blacks) + len(graph.whites)
    order = len(expected)
    for k in mult.values():
        order *= math.factorial(k)
    assert automorphism_group(graph).group_order == order


def pinned_order(graph):
    """Every pair of 0-based tables in the pinned order, built without _Radix.

    ``itertools.product`` varies its last factor fastest, so the vertices
    go in reversed: the last white vertex slowest, the first black fastest.
    """
    sides = [(0, v) for v in graph.blacks] + [(1, v) for v in graph.whites]
    pairs = []
    for rotations in itertools.product(
        *(local_rotations(graph, v) for _, v in reversed(sides))
    ):
        tables = [list(range(graph.e)), list(range(graph.e))]
        for (side, _), rotation in zip(reversed(sides), rotations):
            cycle = rotation.cycle
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                tables[side][a - 1] = b - 1
        pairs.append((bytes(tables[0]), bytes(tables[1])))
    return pairs


@seeded
@given(small_graphs())
def test_rank_inverts_the_stream(graph):
    total = graph.candidate_count()
    assume(total <= MAX_WORK)
    radix = _Radix(graph)
    assert radix.total == total
    reference = pinned_order(graph)
    assert len(reference) == total
    for i, (s, t) in enumerate(reference):
        assert radix.unrank(i) == (s, t)
        assert radix.rank(s, t) == i


@seeded
@given(small_graphs())
def test_marking_census_agrees_with_per_pair_canonicalization(graph):
    group = automorphism_group(graph)
    assume(graph.candidate_count() * group.theta.order() <= MAX_WORK)
    # per-pair canonicalization: every pair's least conjugate is its key, a
    # key's count is its orbit length, and the elements fixing a key form
    # its stabilizer
    lengths = Counter(key(canonical_form(pair, group)) for pair in enumerate_pairs(graph))

    records = classify(graph, with_monodromy=False).records
    assert [key(r.representative) for r in records] == sorted(lengths)
    for rec in records:
        assert rec.orbit_length == lengths[key(rec.representative)]
        assert rec.aut_generators == stabilizer(rec.representative, group).generators


@seeded
@given(small_graphs())
def test_records_agree_with_the_public_invariants(graph):
    # classify hands the graph passport to invariants(); the public call
    # without it walks the cycles and checks transitivity itself
    assume(graph.candidate_count() * automorphism_group(graph).group_order <= MAX_WORK)
    check_records_against_the_public_invariants(classify(graph))


def check_records_against_the_public_invariants(report):
    for rec in report.records:
        assert rec.invariants == invariants(rec.representative, True)
        assert rec.invariants.dualizable == dualizable_oracle(rec.representative)


def test_bundle4_records_agree_with_the_public_invariants():
    # every degree is even, so duality is decided by the face colouring
    graph = BipartiteGraph(["b"], ["w"], [(l, "b", "w") for l in range(1, 5)])
    report = classify(graph)
    assert [r.invariants.dualizable for r in report.records] == [True, False, True]
    check_records_against_the_public_invariants(report)


@settings(seeded, max_examples=12)
@given(small_graphs())
def test_reports_identical_at_two_threads(graph):
    # with monodromy, two or more orbits go to the fork pool, passport and all
    assume(graph.candidate_count() * automorphism_group(graph).group_order <= MAX_WORK)
    solo = classify(graph, threads=1)
    assume(len(solo.records) >= 2)
    assert serialize_report(classify(graph, threads=2)) == serialize_report(solo)


@seeded
@given(small_graphs(), st.integers(1, 7), st.integers(1, 7))
def test_coprime_wilson_powers_permute_the_orbits(graph, r, s):
    # (sigma^r, tau^s) keeps each vertex's cycle on its labels when r and s
    # are coprime to the degrees of their colour, and commutes with
    # conjugation, so it maps orbits onto orbits
    assume(graph.candidate_count() * automorphism_group(graph).group_order <= MAX_WORK)
    assume(all(math.gcd(r, len(ls)) == 1 for ls in graph.black_labels.values()))
    assume(all(math.gcd(s, len(ls)) == 1 for ls in graph.white_labels.values()))
    report = classify(graph, with_monodromy=False)
    ids = [rec.orbit_id for rec in report.records]
    targets = wilson_orbit_targets(report, r, s)
    assert sorted(targets) == ids and sorted(targets.values()) == ids
    assert wilson_orbit_targets(report, 1, 1) == {i: i for i in ids}


@seeded
@given(small_graphs(), st.data())
def test_least_conjugate_is_the_least_pair_image(graph, data):
    # least() conjugates tau only by the elements giving the least sigma
    action = _Action(automorphism_group(graph).theta.elements(), graph.e)
    radix = _Radix(graph)
    s, t = radix.unrank(data.draw(st.integers(0, radix.total - 1)))
    assert action.least(s, t) == min(zip(action.images(s), action.images(t)))


def family_check_by_label_calls(graph, theta):
    """The refusal message of ``_check_keeps_family``, one call per label."""
    for labels in (graph.black_labels, graph.white_labels):
        blocks = {frozenset(ls) for ls in labels.values()}
        for g in theta.generators:
            for vertex, ls in labels.items():
                if frozenset(g(l) for l in ls) not in blocks:
                    return (
                        f"the group left the family: {format_cycles(g)} maps the "
                        f"labels of vertex {vertex!r} to no vertex of its colour"
                    )
    return None


@seeded
@given(small_graphs(), st.data())
def test_family_check_agrees_with_label_calls(graph, data):
    # automorphisms keep the family; random permutations mostly leave it
    labels = range(1, graph.e + 1)
    generators = list(automorphism_group(graph).theta.generators)[:4] + [
        Permutation(data.draw(st.permutations(labels)))
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    theta = PermGroup(data.draw(st.permutations(generators)), degree=graph.e)
    try:
        _check_keeps_family(graph, theta)
        outcome = None
    except InternalInvariantError as exc:
        outcome = str(exc)
    assert outcome == family_check_by_label_calls(graph, theta)


def keeps_cycles(p, labels):
    """Whether the labels at each vertex form one cycle of ``p``."""
    for ls in labels.values():
        cycle, x = {ls[0]}, p(ls[0])
        while x != ls[0]:
            cycle.add(x)
            x = p(x)
        if cycle != set(ls):
            return False
    return True


@settings(seeded, max_examples=200)
@given(small_graphs(), st.data())
def test_vertex_cycle_text_agrees_with_format_cycles(graph, data):
    # the pair at a random rank prints as format_cycles prints it; a random
    # permutation prints the same when it is in the family, else is refused
    radix = _Radix(graph)
    pair = radix.unrank(data.draw(st.integers(0, radix.total - 1)))
    for side, labels in enumerate((graph.black_labels, graph.white_labels)):
        text = CycleText(graph, side)
        p = Permutation._from_table(pair[side], graph.e)
        assert text(p) == format_cycles(p)
        other = Permutation(data.draw(st.permutations(range(1, graph.e + 1))))
        if keeps_cycles(other, labels):
            assert text(other) == format_cycles(other)
        else:
            try:
                text(other)
            except InternalInvariantError as exc:
                assert str(exc).endswith("is not in the rotation family")
            else:
                raise AssertionError(f"{format_cycles(other)} was not refused")


@settings(seeded, max_examples=200)
@given(small_plain_graphs())
def test_genus_search_agrees_with_brute_force(plain):
    assume(cleanify(plain).candidate_count() <= MAX_WORK)
    assert genus_oracle.search(plain) == genus_oracle.brute_force(plain)


# digits and spaces that str.isdecimal and str.isspace take beyond ASCII
CYCLE_ALPHABET = "(),0123456789" + "\u0663\u07c1\uff15" + " \t\n\u2003"


@st.composite
def cycle_texts(draw):
    """Random text over the notation's alphabet, or the canonical text of a
    random permutation with up to three characters inserted, deleted or
    replaced."""
    if draw(st.booleans()):
        return draw(st.text(CYCLE_ALPHABET, max_size=24))
    images = draw(st.permutations(range(1, draw(st.integers(1, 12)) + 1)))
    text = format_cycles(Permutation(images))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:i] + draw(st.text(CYCLE_ALPHABET, max_size=1)) + text[i + cut:]
    return text


def parse_outcome(parse, text, degree):
    try:
        p = parse(text, degree)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.degree, p.images


@settings(seeded, max_examples=1000)
@given(cycle_texts(), st.one_of(st.integers(0, 14), st.sampled_from([255, 256])))
def test_parse_cycles_agrees_with_character_walk(text, degree):
    expected = parse_outcome(cycles_oracle.parse_cycles, text, degree)
    assert parse_outcome(parse_cycles, text, degree) == expected
    # the shortcut parse_report takes only on text the walk accepts, for
    # every e it admits; the labels it returns cover every moved label
    labels = _plain_labels(text, degree) if 1 <= degree <= MAX_DEGREE else None
    if labels is not None:
        images = cycles_oracle.parse_cycles(text, degree).images
        assert {i for i, x in enumerate(images, 1) if x != i} <= set(labels)


@seeded
@given(st.integers(1, 255).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_format_cycles_agrees_with_label_walk(images):
    p = Permutation(images)
    text = format_cycles(p)
    assert text == cycles_oracle.format_cycles(p)
    if not p.is_identity():
        moved = {i for i, x in enumerate(images, 1) if x != i}
        assert set(_plain_labels(text, p.degree)) == moved


@seeded
@given(st.integers(1, 255).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_cycle_type_agrees_with_label_walk(images):
    p = Permutation(images)
    assert cycle_type(p) == tuple(sorted(cycles_oracle.cycle_lengths(p)))
