import random

import pytest

from dessins import (
    CycleParseError,
    Permutation,
    compose,
    conjugate,
    cycle_type,
    format_cycles,
    identity,
    is_even,
    parse_cycles,
)
from dessins.perm import MAX_DEGREE, _IDENT256, _invert, random_permutation


def P(s, n):
    return parse_cycles(s, n)


def test_compose_identity_neutral():
    tau1 = P("(1,4,7)(2,5,8)(3,6,9)", 9)
    assert compose(identity(9), tau1) == tau1
    assert compose(tau1, identity(9)) == tau1


def test_compose_is_left_to_right():
    # the juxtaposition "tau sigma" means: apply tau first, then sigma
    sigma1 = P("(1,2,3)(4,5,6)(7,8,9)", 9)
    tau1 = P("(1,4,7)(2,5,8)(3,6,9)", 9)
    assert compose(tau1, sigma1) == P("(1,5,9)(2,6,7)(3,4,8)", 9)


def test_compose_pointwise_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 12)
        p = random_permutation(n, rng)
        q = random_permutation(n, rng)
        r = compose(p, q)
        for i in range(1, n + 1):
            assert r(i) == q(p(i))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse():
    assert identity(5).inverse() == identity(5)
    assert P("(1,2,3)", 3).inverse() == P("(1,3,2)", 3)
    sigma2 = P("(1,2,3)(4,5,6)(7,9,8)", 9)
    assert sigma2.inverse().inverse() == sigma2
    rng = random.Random(11)
    for _ in range(50):
        p = random_permutation(rng.randint(1, 15), rng)
        assert compose(p, p.inverse()).is_identity()


def invert_by_loop(table, degree):
    """The inverse table one label at a time, as ``_invert`` once built it."""
    out = bytearray(_IDENT256)
    for i in range(degree):
        out[table[i]] = i
    return bytes(out)


@pytest.mark.parametrize("degree", [1, 2, 36, 255])
def test_invert_matches_the_label_loop(degree):
    rng = random.Random(degree)
    for _ in range(30):
        p = random_permutation(degree, rng)
        expected = invert_by_loop(p._table, degree)
        assert len(expected) == 256 and expected[degree:] == _IDENT256[degree:]
        # padded or cut to the degree, the table gives the same padded inverse
        assert _invert(p._table, degree) == expected
        assert _invert(p._table[:degree], degree) == expected
        assert p.inverse()._table == expected


def test_conjugate():
    p = P("(1,2)", 3)
    assert conjugate(p, identity(3)) == p
    assert conjugate(p, P("(1,3)", 3)) == P("(2,3)", 3)
    rng = random.Random(3)
    for _ in range(200):
        p = random_permutation(9, rng)
        g = random_permutation(9, rng)
        assert cycle_type(conjugate(p, g)) == cycle_type(p)


def test_conjugate_definition():
    # conjugate(p, g) applies g^-1, then p, then g
    rng = random.Random(5)
    for _ in range(100):
        p = random_permutation(8, rng)
        g = random_permutation(8, rng)
        assert conjugate(p, g) == compose(compose(g.inverse(), p), g)


def test_cycle_type():
    assert list(cycle_type(identity(5))) == [1, 1, 1, 1, 1]
    assert list(cycle_type(P("(1,5,2)(3,9,4,6,8)", 9))) == [1, 3, 5]
    assert list(cycle_type(P("(1,3,6,7)(2,5,8,4)", 9))) == [1, 4, 4]
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(1, 20)
        p = random_permutation(n, rng)
        assert sum(cycle_type(p)) == n


def test_parse_identity_and_fixture_tau():
    assert parse_cycles("()", 9) == identity(9)
    tau = parse_cycles("(1,4)(2,5)(3,6)(7,10)(8,11)(9,12)", 12)
    assert tau(1) == 4 and tau(4) == 1 and tau(9) == 12


def test_parse_format_round_trip():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randint(1, 30)
        p = random_permutation(n, rng)
        assert parse_cycles(format_cycles(p), n) == p


def test_parse_format_round_trip_at_every_degree():
    rng = random.Random(29)
    for n in range(1, MAX_DEGREE + 1):
        for p in (identity(n), random_permutation(n, rng)):
            assert parse_cycles(format_cycles(p), n) == p
    full = Permutation([*range(2, MAX_DEGREE + 1), 1])
    assert format_cycles(full).count(",") == MAX_DEGREE - 1
    assert parse_cycles(format_cycles(full), MAX_DEGREE) == full


def test_format_is_canonical():
    assert format_cycles(P("(2,1)", 4)) == "(1,2)"
    assert format_cycles(P("(3,1,2)(6,5)", 6)) == "(1,2,3)(5,6)"
    assert format_cycles(identity(4)) == "()"
    # whitespace is insignificant
    assert P(" (1, 2) ( 3 ,4) ", 4) == P("(1,2)(3,4)", 4)


def test_parse_errors_carry_position():
    with pytest.raises(CycleParseError) as exc:
        parse_cycles("(1,2)(3,10)", 9)
    assert exc.value.position == 8
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2)(2,3)", 9)  # repeated label
    with pytest.raises(CycleParseError):
        parse_cycles("(1,2", 9)  # unterminated
    with pytest.raises(CycleParseError):
        parse_cycles("(1,,2)", 9)
    with pytest.raises(CycleParseError):
        parse_cycles("1,2", 9)
    with pytest.raises(CycleParseError):
        parse_cycles("()(1,2)", 9)
    with pytest.raises(CycleParseError):
        parse_cycles("", 9)


def test_is_even():
    assert is_even(identity(4))
    assert not is_even(P("(1,2)", 4))
    assert not is_even(P("(1,2,3)(4,5)", 5))
    assert is_even(P("(1,2,3)", 5))


def test_parity_is_multiplicative():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 12)
        p = random_permutation(n, rng)
        q = random_permutation(n, rng)
        assert is_even(compose(p, q)) == (is_even(p) == is_even(q))


def test_compose_associative():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 12)
        p, q, r = (random_permutation(n, rng) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation([0, 1])
    with pytest.raises(ValueError):
        Permutation([2, 3, 4])


def test_power():
    c = P("(1,2,3)", 3)
    assert c**0 == identity(3)
    assert c**3 == identity(3)
    assert c**2 == c.inverse()
    assert c**-1 == c.inverse()
    assert c**4 == c


def test_images_is_read_only():
    p = P("(1,2,3)", 3)
    with pytest.raises(AttributeError):
        p.images = (1, 2, 3)
    assert p.images == (2, 3, 1)


def test_identities_of_different_degree_differ():
    assert identity(3) != identity(4)


def test_equal_permutations_from_every_constructor():
    a = Permutation([2, 3, 1, 5, 4])
    b = P("(1,2,3)(4,5)", 5)
    c = compose(P("(1,2)", 5), P("(1,3)(4,5)", 5))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_sort_order_is_image_order():
    rng = random.Random(41)
    perms = [random_permutation(5, rng) for _ in range(60)]
    assert [p.images for p in sorted(perms)] == sorted(p.images for p in perms)
