"""Invariants of a single dessin given by a rotation pair (sigma, tau).

Faces are the cycles of ``compose(tau, sigma)`` (apply tau, then sigma),
fixed points counting as faces of degree 1.  The genus comes from Euler's
formula g = 1 + (e - alpha - beta - gamma) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .bgraph import _format_passport
from .perm import compose, cycle_type
from .permgroup import PermGroup, CapExceededError, DEFAULT_ELEMENTS_CAP
from .rotation import RotationPair


class NonTransitiveError(ValueError):
    """The pair does not generate a transitive group (disconnected input)."""


@dataclass(frozen=True)
class DessinPassport:
    black: tuple
    white: tuple
    faces: tuple

    def __str__(self):
        return _format_passport(self.black, self.white, self.faces)


@dataclass(frozen=True)
class MonodromyFingerprint:
    """Cheap isomorphism invariants of the monodromy group.

    Structural identification is out of reach here; equal fingerprints do
    not prove isomorphic groups.
    """

    order: int
    all_generators_even: bool
    point_stabilizer_order: int
    odd_generators: int


@dataclass(frozen=True)
class DessinInvariants:
    genus: int
    passport: DessinPassport
    face_count: int
    monodromy_order: int | None
    monodromy_fingerprint: MonodromyFingerprint | None
    regular: bool | None
    uniform: bool
    dualizable: bool


def face_permutation(pair):
    """tau then sigma; its cycles, fixed points included, are the faces."""
    return compose(pair.tau, pair.sigma)


def monodromy_group(pair):
    return PermGroup([pair.sigma, pair.tau])


def invariants(pair, with_monodromy=True):
    """The invariant bundle of one rotation pair.

    ``with_monodromy=False`` skips the monodromy group entirely; the
    corresponding fields come back None.
    """
    sigma, tau = pair.sigma, pair.tau
    e = sigma.degree
    group = monodromy_group(pair)
    if not group.is_transitive():
        raise NonTransitiveError(
            "sigma and tau do not generate a transitive group; "
            "the underlying graph is disconnected"
        )
    black = cycle_type(sigma)
    white = cycle_type(tau)
    faces = cycle_type(face_permutation(pair))
    alpha, beta, gamma = len(black), len(white), len(faces)
    euler = e - alpha - beta - gamma
    if euler % 2:
        raise AssertionError(f"odd Euler defect {euler} for e={e}")
    genus = 1 + euler // 2
    if genus < 0:
        raise AssertionError(f"negative genus {genus}")
    order = fingerprint = regular = None
    if with_monodromy:
        order = group.order()
        # a permutation of e points with c cycles has parity e - c; the group
        # is transitive, so a point's stabilizer has index e
        odd = (e - alpha) % 2 + (e - beta) % 2
        fingerprint = MonodromyFingerprint(
            order=order,
            all_generators_even=odd == 0,
            point_stabilizer_order=order // e,
            odd_generators=odd,
        )
        regular = order == e
    return DessinInvariants(
        genus=genus,
        passport=DessinPassport(black, white, faces),
        face_count=gamma,
        monodromy_order=order,
        monodromy_fingerprint=fingerprint,
        regular=regular,
        uniform=len(set(black)) == 1 and len(set(white)) == 1 and len(set(faces)) == 1,
        dualizable=is_dualizable(pair),
    )


def is_dualizable(pair):
    """Whether the faces admit a proper 2-coloring (dual graph bipartite).

    Equivalent to the existence of a homomorphism rho from the monodromy
    group onto {+1,-1} with rho(sigma) = rho(tau) = -1 that is trivial on
    the stabilizer of label 1.  Proof of equivalence: consider the graph on
    labels with edges {i, sigma(i)} and {i, tau(i)}; it is connected by
    transitivity.  A 2-coloring c flipped by every edge gives, for any word
    w of length L in sigma and tau, c(w(i)) = c(i) + L mod 2, so all words
    representing the same group element share one parity: rho(g) := that
    parity is a well-defined homomorphism, odd on both generators and even
    on any element fixing a label.  Conversely such a rho colors label i by
    the parity of any word carrying 1 to i, and adjacent labels get opposite
    colors.  Breadth-first 2-coloring decides this in O(e).
    """
    sigma, tau = pair.sigma, pair.tau
    ts, tt = sigma._table, tau._table
    e = sigma.degree
    color = [-1] * e
    color[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in (ts[x], tt[x]):
            if y == x:
                return False
            if color[y] == -1:
                color[y] = color[x] ^ 1
                stack.append(y)
            elif color[y] == color[x]:
                return False
    return all(c >= 0 for c in color)


def dualizable_oracle(pair):
    """Literal check of the sign-character criterion by group enumeration.

    Breadth-first closure of {sigma, tau} assigns each monodromy element the
    parity of the first word reaching it; any element reached with both
    parities kills the character.  Accept when the parity map is consistent,
    odd on the generators, and even on the whole stabilizer of label 1.
    """
    sigma, tau = pair.sigma, pair.tau
    e = sigma.degree
    ident = bytes(range(e))
    gens = [sigma._table, tau._table]
    parity = {ident: 0}
    frontier = [ident]
    while frontier:
        if len(parity) > DEFAULT_ELEMENTS_CAP:
            raise CapExceededError(
                f"monodromy group exceeds oracle cap {DEFAULT_ELEMENTS_CAP}"
            )
        nxt = []
        for g in frontier:
            p = parity[g]
            for t in gens:
                h = g.translate(t)
                q = parity.get(h)
                if q is None:
                    parity[h] = p ^ 1
                    nxt.append(h)
                elif q != p ^ 1:
                    return False
        frontier = nxt
    # identity has even parity by construction; generators odd likewise
    return all(p == 0 for g, p in parity.items() if g[0] == 0)


def mirror(pair):
    """The conjugated dessin (sigma^-1, tau^-1); reflexive dessins are isomorphic to it."""
    return RotationPair(pair.sigma.inverse(), pair.tau.inverse(), pair.graph)


def wilson(pair, r, s):
    """The pair (sigma^r, tau^s); r and s must be coprime to every degree on their side."""
    if r < 1 or s < 1:
        raise ValueError("wilson exponents must be positive")
    for n in cycle_type(pair.sigma):
        if gcd(r, n) != 1:
            raise ValueError(f"r={r} shares a factor with black degree {n}")
    for n in cycle_type(pair.tau):
        if gcd(s, n) != 1:
            raise ValueError(f"s={s} shares a factor with white degree {n}")
    return RotationPair(pair.sigma**r, pair.tau**s, pair.graph)
