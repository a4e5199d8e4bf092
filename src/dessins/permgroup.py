"""Permutation groups with a deterministic base and strong generating set.

Internally elements are 0-based image tables stored as ``bytes`` padded to
256 entries (``Permutation._table``), so composition is one
``bytes.translate`` call and every product is again 256 bytes long.  Base
points are always the smallest labels not fixed so far, which makes orders,
transversals and element streams reproducible run to run.

``PermGroup.order`` first tries to certify that the group is a giant, the
alternating or symmetric group on all points: a transitive group of degree
n in which a fixed word has a cycle of prime length p, n/2 < p <= n - 3,
is primitive, so Jordan's theorem applies (see ``_jordan_order``).  Only
groups it does not certify get a Schreier-Sims build.  A caller that can
prove an upper bound on the order passes it as ``order_bound``; the build
then stops verifying once the bound is reached, and a bound below n!/2
skips the certificate.
"""

from __future__ import annotations

from math import factorial, prod

from .perm import Permutation, _IDENT256, _invert, is_even

DEFAULT_ELEMENTS_CAP = 10**6

# the giant certificate tries this many words in the generators, built by
# product replacement over at least this many slots
CERTIFICATE_WORDS = 64
CERTIFICATE_SLOTS = 5


class CapExceededError(RuntimeError):
    """Refusal to enumerate a group larger than the requested cap."""


# -- giant certificate ------------------------------------------------------

def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _certificate_words(generators):
    """A fixed list of ``CERTIFICATE_WORDS`` words in the generators, as tables.

    Product replacement on a fixed schedule: the slots start as the
    generators' tables, repeated cyclically; step j replaces slot i by the
    product of slots i and l for the j-th pair of a fixed cycle through the
    ordered pairs of distinct slots, then multiplies the word by the new slot.
    With n slots, the cycle lists (i, i + 1), then (i, i + 2), ... modulo n,
    i running over all slots each time; its j-th pair is computed on demand.
    """
    slots = [generators[i % len(generators)]._table
             for i in range(max(CERTIFICATE_SLOTS, len(generators)))]
    n = len(slots)
    word = _IDENT256
    for j in range(CERTIFICATE_WORDS):
        d, i = divmod(j % (n * (n - 1)), n)
        l = (i + d + 1) % n
        slots[i] = slots[i].translate(slots[l])
        word = word.translate(slots[i])
        yield word


def _has_cycle_of_length(table, degree, lengths):
    """Whether the permutation ``table`` has a cycle with length in ``lengths``."""
    shortest = min(lengths)
    seen = bytearray(degree)
    unseen = degree
    for i in range(degree):
        if unseen < shortest:
            break
        length = 0
        j = i
        while not seen[j]:
            seen[j] = 1
            j = table[j]
            length += 1
        if length in lengths:
            return True
        unseen -= length
    return False


def _jordan_order(group):
    """The order of a certified giant: n! or n!/2; None when not certified.

    Jordan's theorem: a primitive group of degree n that contains a p-cycle,
    p prime and p <= n - 3, contains the alternating group A_n.  The
    certificate asks for a transitive group and a word, from a fixed list,
    with a cycle whose length is a prime p with n/2 < p <= n - 3 (Seress,
    *Permutation Group Algorithms*, CUP 2003, 10.2).  Since 2p > n, that is
    the word's only cycle with length divisible by p, so the word raised to
    the lcm of its other cycle lengths is a p-cycle c.  The group is then
    primitive: if c moves some block of a block system, it permutes the
    blocks in a p-cycle, so there are more than n/2 blocks of one point
    each; otherwise its support lies in one block, which has more than n/2
    points and so is the whole set.  The order is n! when some generator is
    odd and n!/2 otherwise.  No prime lies in that range below n = 8.  Any
    check that fails declines, never guesses.
    """
    n = group.degree
    primes = {p for p in range(n // 2 + 1, n - 2) if _is_prime(p)}
    if not primes or not group.is_transitive():
        return None
    words = _certificate_words(group.generators)
    if any(_has_cycle_of_length(w, n, primes) for w in words):
        return factorial(n) // (2 if group.all_generators_even() else 1)
    return None


class _Level:
    __slots__ = ("base", "gens", "orbit")

    def __init__(self, base):
        self.base = base
        self.gens = []    # strong generators fixing all earlier base points
        self.orbit = {}   # point -> (u, u_inv), u maps base to point


class PermGroup:
    """Group generated by permutations of a common degree.

    The BSGS is built lazily on the first query that needs it; afterwards
    the group is read-only.  The base is not a parameter: each base point is
    the smallest label moved by a generator fixing the points before it.

    ``order_bound``, when given, must be proven >= |G| by the caller.  The
    build stops verifying Schreier generators once the basic orbit lengths
    multiply to it, and ``order`` skips the giant certificate when twice
    the bound is below n!, since then the group cannot hold A_n.  Proof that
    the partial BSGS is then complete (Seress, *Permutation Group
    Algorithms*, ch. 4): let G^(i) fix the base points before level i
    pointwise and H_i be generated by level i's strong generators.  The
    build keeps H_i <= G^(i) and H_(i+1) <= H_i, so the basic orbit
    Delta_i of H_i has |Delta_i| <= |G^(i) : G^(i+1)|, and the product of
    the |Delta_i| is at most |G| / |G^(k)| <= |G| <= bound, G^(k) fixing
    the whole base.  Equality with the bound makes every step equal:
    G^(k) = 1 and |Delta_i| = |G^(i) : G^(i+1)|.  Going up from H_k = 1 =
    G^(k), if H_(i+1) = G^(i+1), then the stabilizer of base point i in
    H_i contains it, so |H_i| >= |Delta_i| |G^(i+1)| = |G^(i)| and H_i =
    G^(i).  Every remaining
    Schreier generator then sifts to the identity and would add no strong
    generator, so the base, the transversals and the ``elements`` order
    are those of the full verification.  A bound that is never reached
    lets the verification run to the end, giving the true order.

    The verification strips each Schreier generator at most once per level
    until it fails, though a new strong generator makes it rescan a level
    from its first point.  Proof that skipping the ones already stripped
    to the identity changes nothing: whenever level i is scanned, the
    deeper levels are a complete BSGS of H_(i+1), since the scan goes
    bottom-up and a residue registered down to level j sends it back to
    level j.  A Schreier generator that stripped to the identity is a
    product of transversal elements of the deeper levels, so it lies in
    H_(i+1), which only grows, and a later strip through a complete BSGS
    of H_(i+1) ends at the identity again.  So the first generator that
    fails, its residue, and with them every base point, strong generator
    and transversal are those of the scan without the skip.
    """

    def __init__(self, generators, degree=None, order_bound=None):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generating set")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError(
                    f"mixed degrees: expected {degree}, found {g.degree}"
                )
        self.degree = degree
        self.generators = tuple(generators)
        self._order_bound = order_bound
        self._levels = None
        self._order = None

    # -- BSGS construction -------------------------------------------------

    def _build(self):
        if self._levels is not None:
            return
        degree = self.degree
        ident = _IDENT256
        levels = []

        def smallest_moved(t):
            for i in range(degree):
                if t[i] != i:
                    return i
            raise AssertionError("identity cannot extend the base")

        def update_orbit(level):
            lv = levels[level]
            lv.orbit.clear()
            lv.orbit[lv.base] = (ident, ident)
            queue = [lv.base]
            qi = 0
            while qi < len(queue):
                pt = queue[qi]
                qi += 1
                u, _ = lv.orbit[pt]
                for s in lv.gens:
                    np = s[pt]
                    if np not in lv.orbit:
                        v = u.translate(s)
                        lv.orbit[np] = (v, _invert(v, degree))
                        queue.append(np)

        def strip(t, start):
            for j in range(start, len(levels)):
                lv = levels[j]
                entry = lv.orbit.get(t[lv.base])
                if entry is None:
                    return t, j
                t = t.translate(entry[1])
            return t, len(levels)

        # first occurrences, in order, by hashing the tables
        gens0 = [t for t in dict.fromkeys(g._table for g in self.generators)
                 if t != ident]
        for t in gens0:
            if all(t[lv.base] == lv.base for lv in levels):
                levels.append(_Level(smallest_moved(t)))
        # a generator joins every level whose base prefix it fixes
        for t in gens0:
            for lv in levels:
                lv.gens.append(t)
                if t[lv.base] != lv.base:
                    break
        for i in range(len(levels)):
            update_orbit(i)

        # bottom-up verification: at each level every Schreier generator must
        # strip through the (already complete) deeper levels; residues become
        # strong generators exactly at the levels they fix into.  Reaching
        # the order bound proves the rest would add none, and a Schreier
        # generator once stripped to the identity at a level would strip
        # there again (class docstring), so ``proven`` skips it.
        proven = [set() for _ in levels]
        order = prod(len(lv.orbit) for lv in levels)
        i = len(levels) - 1
        while i >= 0 and order != self._order_bound:
            lv = levels[i]
            known = proven[i]
            registered = None
            for pt in sorted(lv.orbit):
                u, _ = lv.orbit[pt]
                for s in lv.gens:
                    _, w_inv = lv.orbit[s[pt]]
                    sg = u.translate(s).translate(w_inv)
                    if sg == ident or sg in known:
                        continue
                    residue, j = strip(sg, i + 1)
                    if residue == ident:
                        known.add(sg)
                        continue
                    if j == len(levels):
                        levels.append(_Level(smallest_moved(residue)))
                        proven.append(set())
                    for l in range(i + 1, j + 1):
                        levels[l].gens.append(residue)
                        update_orbit(l)
                    order = prod(len(lv.orbit) for lv in levels)
                    registered = j
                    break
                if registered is not None:
                    break
            i = registered if registered is not None else i - 1

        self._levels = levels
        self._order = order

    # -- queries ------------------------------------------------------------

    def order(self):
        bound = self._order_bound
        if self._order is None and (bound is None or 2 * bound >= factorial(self.degree)):
            self._order = _jordan_order(self)
        if self._order is None:
            self._build()
        return self._order

    def base(self):
        self._build()
        return tuple(lv.base + 1 for lv in self._levels)

    def contains(self, p):
        if p.degree != self.degree:
            raise ValueError(f"degree mismatch: {p.degree} != {self.degree}")
        self._build()
        t = p._table
        for lv in self._levels:
            entry = lv.orbit.get(t[lv.base])
            if entry is None:
                return False
            t = t.translate(entry[1])
        return t[: self.degree] == _IDENT256[: self.degree]

    def orbit(self, point):
        """Orbit of a 1-based point under the generators, as a sorted tuple."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        seen = {point - 1}
        queue = [point - 1]
        tables = [g._table for g in self.generators]
        while queue:
            x = queue.pop()
            for t in tables:
                y = t[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return tuple(sorted(p + 1 for p in seen))

    def is_transitive(self):
        if self.degree == 0:
            return True
        return len(self.orbit(1)) == self.degree

    def point_stabilizer_order(self, point):
        return self.order() // len(self.orbit(point))

    def elements(self):
        """Every element exactly once; refuses more than ``DEFAULT_ELEMENTS_CAP``."""
        n = self.order()
        if n > DEFAULT_ELEMENTS_CAP:
            raise CapExceededError(
                f"group order {n} exceeds enumeration cap {DEFAULT_ELEMENTS_CAP}"
            )
        self._build()
        degree = self.degree
        levels = self._levels

        def rec(i, acc):
            if i < 0:
                yield Permutation._from_table(acc, degree)
                return
            for pt in sorted(levels[i].orbit):
                u, _ = levels[i].orbit[pt]
                yield from rec(i - 1, acc.translate(u))

        yield from rec(len(levels) - 1, _IDENT256)

    def all_generators_even(self):
        return all(map(is_even, self.generators))


def group_from_generators(generators):
    """Group handle from a non-empty generating set of uniform degree."""
    generators = list(generators)
    if not generators:
        raise ValueError("generator list must be non-empty")
    return PermGroup(generators)
