"""Acceptance suite: the eight gate criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Two sub-claims of the reference census are known not to hold (see
criterion 5 and the mirror claim in criterion 6): those asserts state the
reference values faithfully, and the failure diffs carry the computed
truth.
"""

import contextlib
import io as stdio
import time

from dessins import (
    compose,
    conjugate,
    dualizable_oracle,
    enumerate_pairs,
    genus_range,
    identity,
    invariants,
    is_dualizable,
    parse_cycles,
    serialize_report,
    classify,
)
from dessins.cli import main
from dessins.rotation import RotationPair, membership_failure

import corpus
from conftest import fixture_path, load_bipartite, load_plain, record_for


def P(s, n):
    return parse_cycles(s, n)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {number} ({name}): FAIL [{exc}]")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_tetrahedron(a4_report):
    with criterion(1, "tetrahedron skeleton"):
        records = a4_report.records
        assert len(records) == 3
        assert sorted(r.orbit_length for r in records) == [2, 6, 8]
        assert sorted(r.invariants.genus for r in records) == [0, 1, 1]
        # orientation-preserving automorphism orders, forced by
        # orbit-stabilizer in the order-24 edge action; the reflexive
        # length-6 class doubles to the dihedral group of order 8 once
        # orientation-reversing automorphisms are counted
        assert sorted(r.aut_order for r in records) == [3, 4, 12]
        by_length = {r.orbit_length: r for r in records}
        assert by_length[6].mirror_status == "reflexive"
        assert 2 * by_length[6].aut_order == 8
        genus0 = by_length[2]
        assert genus0.invariants.genus == 0
        assert genus0.invariants.regular
        assert genus0.invariants.monodromy_order == 12
        assert all(r.mirror_status == "reflexive" for r in records)
        assert not any(r.invariants.dualizable for r in records)
        assert a4_report.seconds < 1.0


def test_criterion_2_k33_subdivision(k33_clean_report):
    with criterion(2, "subdivided complete bipartite graph"):
        records = k33_clean_report.records
        assert len(records) == 3
        assert sorted(r.orbit_length for r in records) == [4, 24, 36]
        assert sorted(r.invariants.genus for r in records) == [1, 1, 2]
        by_length = {r.orbit_length: r for r in records}
        assert by_length[4].invariants.regular
        assert by_length[4].invariants.monodromy_order == 18 == k33_clean_report.graph.e
        assert by_length[4].aut_order == 18
        assert 4 * by_length[4].aut_order == 72 == k33_clean_report.group_order
        assert by_length[24].invariants.genus == 2
        assert by_length[36].invariants.genus == 1


def test_criterion_3_frucht(frucht_light_report):
    with criterion(3, "Frucht graph"):
        t0 = time.monotonic()
        records = frucht_light_report.records
        assert len(records) == 4096
        assert frucht_light_report.group_order == 1
        assert all(r.aut_order == 1 for r in records)
        assert sorted(frucht_light_report.genus_histogram) == [0, 1, 2, 3]
        graph = frucht_light_report.graph
        tau = P(corpus.FRUCHT["tau"], 36)
        for idx, faces in ((0, 8), (1, 6), (2, 4), (3, 2)):
            pair = RotationPair(P(corpus.FRUCHT[f"sigma{idx}"], 36), tau, graph)
            inv = invariants(pair, with_monodromy=False)
            assert inv.genus == idx
            assert inv.face_count == faces
        elapsed = frucht_light_report.seconds + (time.monotonic() - t0)
        assert elapsed < 30.0


def test_criterion_4_k5(k5_report):
    with criterion(4, "complete graph on five vertices"):
        records = k5_report.records
        assert len(records) == 78
        genus1 = [r for r in records if r.invariants.genus == 1]
        assert len(genus1) == 9
        regular = [r for r in genus1 if r.invariants.regular]
        assert len(regular) == 2
        for rec in regular:
            assert str(rec.invariants.passport) == "(4^5;2^10;4^5)"
            assert rec.invariants.monodromy_order == 20
        a, b = regular
        assert a.mirror_status == b.mirror_status == "chiral"
        assert a.mirror_partner == b.orbit_id and b.mirror_partner == a.orbit_id
        tau = corpus.K5["tau"]
        d2 = record_for(k5_report, corpus.K5["sigmas"][2], tau)
        assert d2.invariants.monodromy_order == 26336378880000
        heavy = [r for r in genus1 if r.invariants.monodromy_order == 1857945600]
        assert len(heavy) == 5
        d4 = record_for(k5_report, corpus.K5["sigmas"][4], tau)
        assert d4.mirror_status == "reflexive"
        assert str(d4.invariants.passport) == "(4^5;2^10;3^2,4,5^2)"
        assert k5_report.seconds < 60.0


def _analyze(graph_file, sigma, tau):
    out, err = stdio.StringIO(), stdio.StringIO()
    code = main(
        ["analyze", fixture_path(graph_file), "--sigma", sigma, "--tau", tau],
        out=out, err=err,
    )
    assert code == 0, err.getvalue()
    values = {}
    for line in out.getvalue().splitlines():
        key, _, value = line.partition(": ")
        values[key] = value
    return values


def test_criterion_5_double_prism(dp_report):
    with criterion(5, "double prism census"):
        assert dp_report.seconds < 300.0
        special = [
            r for r in dp_report.records
            if r.invariants.genus == 1
            and tuple(r.invariants.passport.faces) == (3, 3, 4, 4, 5, 5)
        ]
        d1 = _analyze("double_prism.bg", corpus.DOUBLE_PRISM["sigma1"],
                      corpus.DOUBLE_PRISM["tau"])
        d2 = _analyze("double_prism.bg", corpus.DOUBLE_PRISM["sigma2"],
                      corpus.DOUBLE_PRISM["tau"])
        actual = {
            "orbits": len(dp_report.records),
            "genus_histogram": dp_report.genus_histogram,
            "dualizable_histogram": dp_report.dualizable_histogram,
            "special_passport_classes": len(special),
            "special_monodromy_orders": sorted(
                {r.invariants.monodromy_order for r in special}
            ),
            "special_reflexive": sum(
                1 for r in special if r.mirror_status == "reflexive"
            ),
            "d1": (d1["mirror"], int(d1["aut_order"])),
            "d2": (d2["mirror"], int(d2["aut_order"])),
        }
        expected = {
            "orbits": 5946,
            "genus_histogram": {0: 2, 1: 79, 2: 1849, 3: 4016},
            "dualizable_histogram": {0: 2, 1: 22, 2: 121, 3: 33},
            "special_passport_classes": 13,
            "special_monodromy_orders": [980995276800],
            "special_reflexive": 3,
            "d1": ("chiral", 2),
            "d2": ("reflexive", 1),
        }
        assert actual == expected, (
            "reference census was taken over the order-8 drawing symmetry "
            "group, not the full order-48 automorphism group; "
            f"see test_classify.py::test_double_prism_drawing_subgroup. "
            f"actual={actual}"
        )


def test_criterion_6_nine_edge_graphs(k33_report, d33_report, c33_report):
    with criterion(6, "nine-edge graphs"):
        t0 = time.monotonic()
        # complete bipartite graph
        records = k33_report.records
        assert len(records) == 4
        assert sorted(r.orbit_length for r in records) == [4, 12, 12, 36]
        graph = k33_report.graph
        pair = RotationPair(P(corpus.K33["sigma1"], 9), P(corpus.K33["tau1"], 9), graph)
        assert compose(pair.tau, pair.sigma) == P(corpus.K33["faces11"], 9)
        e1 = record_for(k33_report, corpus.K33["sigma1"], corpus.K33["tau1"])
        e2 = record_for(k33_report, corpus.K33["sigma1"], corpus.K33["tau2"])
        e3 = record_for(k33_report, corpus.K33["sigma2"], corpus.K33["tau1"])
        e4 = record_for(k33_report, corpus.K33["sigma2"], corpus.K33["tau2"])
        assert tuple(e1.invariants.passport.faces) == (3, 3, 3)
        assert tuple(e2.invariants.passport.faces) == (9,)
        assert tuple(e3.invariants.passport.faces) == (9,)
        assert tuple(e4.invariants.passport.faces) == (2, 2, 5)
        assert e1.invariants.regular
        assert e1.invariants.monodromy_order == 9
        assert e4.invariants.monodromy_order == 181440
        assert e1.mirror_status == "reflexive"
        assert e4.mirror_status == "reflexive"

        # ring of doubled edges
        lengths_genera = sorted(
            (r.orbit_length, r.invariants.genus) for r in d33_report.records
        )
        assert lengths_genera == [(8, 0), (8, 1), (24, 1), (24, 1)]

        # doubled-end chain
        records = c33_report.records
        assert len(records) == 8
        assert all(r.orbit_length == 8 for r in records)
        assert sorted(r.invariants.genus for r in records) == [0, 1, 1, 1, 1, 1, 2, 2]
        psl = [r for r in records if r.invariants.monodromy_order == 504]
        assert sorted(r.invariants.genus for r in psl) == [1, 2]
        elapsed = (
            k33_report.seconds + d33_report.seconds + c33_report.seconds
            + (time.monotonic() - t0)
        )
        assert elapsed < 5.0

        # checked last: everything above holds either way
        mirror_claim = {
            "e2": (e2.mirror_status, e2.mirror_partner),
            "e3": (e3.mirror_status, e3.mirror_partner),
        }
        assert mirror_claim == {
            "e2": ("chiral", e3.orbit_id),
            "e3": ("chiral", e2.orbit_id),
        }, (
            "each genus-2 class of this graph is isomorphic to its own "
            f"mirror; computed statuses: {mirror_claim}"
        )


def test_criterion_7_graph_genus():
    with criterion(7, "plain graph genus"):
        for name, mu in (("c5.g", 0), ("k5.g", 1), ("k33.g", 1)):
            plain = load_plain(name)
            result = genus_range(plain)
            assert result.mu == mu, name
            # witness reproduces the genus through the face-count route
            pair = RotationPair(result.witness_min, result.tau, result.clean)
            assert membership_failure(result.clean, pair.sigma, pair.tau) is None
            assert invariants(pair, with_monodromy=False).genus == mu
            # the Euler-consistent formula is the one that works; the
            # once-published display form 1 + e - (alpha + gamma)/2 is not
            e = len(plain.edges)
            alpha = len(plain.vertices)
            assert mu == 1 + (e - alpha - result.gamma_max) // 2
            display_form = 1 + e - (alpha + result.gamma_max) / 2
            assert display_form != mu


def _burnside_orbits(graph, theta):
    elems = list(theta.elements())
    pairs = [(p.sigma, p.tau) for p in enumerate_pairs(graph)]
    total = 0
    for g in elems:
        ginv = g.inverse()
        fixed = 0
        for s, t in pairs:
            if compose(compose(ginv, s), g) == s and compose(compose(ginv, t), g) == t:
                fixed += 1
        total += fixed
    assert total % len(elems) == 0
    return total // len(elems)


def closure_order(gens):
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
    return len(seen)


def test_criterion_8_property_suite(a4_report, k33_report, d33_report,
                                    c33_report, k33_clean_report, k5_report,
                                    frucht_light_report, dp_report):
    with criterion(8, "cross-cutting properties"):
        reports = {
            "a4_clean.bg": a4_report,
            "k33.bg": k33_report,
            "d33.bg": d33_report,
            "c33.bg": c33_report,
            "k33_clean.bg": k33_clean_report,
            "k5_clean.bg": k5_report,
            "frucht_clean.bg": frucht_light_report,
            "double_prism.bg": dp_report,
        }
        # orbit lengths tile the candidate family; orbit-stabilizer holds
        for name, rep in reports.items():
            assert sum(r.orbit_length for r in rep.records) == rep.candidate_count, name
            for rec in rep.records:
                assert rec.orbit_length * rec.aut_order == rep.group_order, name

        # stabilizers centralize their representatives
        for name, rep in reports.items():
            for rec in rep.records:
                s, t = rec.representative.sigma, rec.representative.tau
                for g in rec.aut_generators:
                    assert conjugate(s, g) == s and conjugate(t, g) == t

        # Burnside count agreement on every family of at most 10^4 pairs
        for name in ("a4_clean.bg", "k33.bg", "d33.bg", "c33.bg",
                     "k33_clean.bg", "k5_clean.bg"):
            rep = reports[name]
            assert len(rep.records) == _burnside_orbits(rep.graph, rep.theta), name

        # two-coloring duality matches the group-enumeration oracle on
        # every candidate pair of the odd-degree corpora
        for name in ("k33.bg", "d33.bg", "c33.bg", "a4_clean.bg"):
            graph = reports[name].graph
            for pair in enumerate_pairs(graph):
                fast = is_dualizable(pair)
                assert fast == dualizable_oracle(pair)
                assert fast is False  # odd black degree forbids duality

        # genus is a non-negative integer everywhere (invariants would raise)
        for name in ("k33.bg", "d33.bg", "c33.bg", "a4_clean.bg"):
            graph = reports[name].graph
            for pair in enumerate_pairs(graph):
                assert invariants(pair, with_monodromy=False).genus >= 0

        # deterministic order: exhaustive closure confirms every group of
        # order at most 5000 that the pipeline produced
        checked = 0
        for name, rep in reports.items():
            theta = rep.theta
            if 1 < theta.order() <= 5000:
                assert theta.order() == closure_order(list(theta.generators)), name
                checked += 1
        for rep in (k33_report, d33_report, c33_report, a4_report):
            for rec in rep.records:
                order = rec.invariants.monodromy_order
                if order <= 5000:
                    gens = [rec.representative.sigma, rec.representative.tau]
                    assert order == closure_order(gens)
                    checked += 1
        assert checked >= 10

        # thread count does not leak into the bytes of a report
        graph = load_bipartite("k33_clean.bg")
        solo = serialize_report(classify(graph, threads=1), "json")
        multi = serialize_report(classify(graph, threads=4), "json")
        assert solo == multi
