import pytest

from dessins import (
    enumerate_pairs,
    local_rotations,
    parse_bipartite,
    parse_cycles,
    group_from_generators,
)
from dessins.rotation import _Radix, chunk_bounds, membership_failure

import corpus
from conftest import load_bipartite


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


def chunk(radix, chunk_index, chunk_count):
    """The table pairs of the chunk_index-th of chunk_count slices of the stream."""
    return [radix.unrank(i) for i in range(*chunk_bounds(radix.total, chunk_index, chunk_count))]


def test_chunks_partition_the_stream():
    g = load_bipartite("a4_clean.bg")
    radix = _Radix(g)
    whole = [(p.sigma._table[:g.e], p.tau._table[:g.e]) for p in enumerate_pairs(g)]
    assert chunk(radix, 0, 1) == whole
    rejoined = []
    for i in range(4):
        rejoined.extend(chunk(radix, i, 4))
    assert rejoined == whole


def test_chunk_sizes_balanced():
    radix = _Radix(load_bipartite("k5_clean.bg"))
    sizes = [len(chunk(radix, i, 6)) for i in range(6)]
    assert sizes == [1296] * 6


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
