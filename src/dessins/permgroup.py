"""Permutation groups with a deterministic base and strong generating set.

Internally elements are 0-based image tables stored as ``bytes``, in two
forms, so that composition is one ``bytes.translate`` call.  A table that
something is translated by, a strong generator or the inverse of a
transversal element, is padded to 256 entries (``Permutation._table``), as
``translate`` needs.  The data translated, transversal elements, Schreier
generators and the residues being sifted, is the ``e`` image bytes alone,
and so is each of its products with a 256-byte table.  Base points are
always the smallest labels not fixed so far, which makes orders,
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

from itertools import repeat
from math import factorial, isqrt, prod

from .perm import MAX_DEGREE, Permutation, _IDENT256, _invert, is_even

DEFAULT_ELEMENTS_CAP = 10**6

# the giant certificate tries this many words in the generators, built by
# product replacement over at least this many slots
CERTIFICATE_WORDS = 64
CERTIFICATE_SLOTS = 5


class CapExceededError(RuntimeError):
    """Refusal to enumerate a group larger than the requested cap."""


# -- giant certificate ------------------------------------------------------

# the primes up to the largest degree, for the certificate's prime ranges
_PRIMES = tuple(p for p in range(2, MAX_DEGREE + 1)
                if all(p % d for d in range(2, isqrt(p) + 1)))


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
    primes = {p for p in _PRIMES if n // 2 < p <= n - 3}
    if not primes or not group.is_transitive():
        return None
    words = _certificate_words(group.generators)
    if any(_has_cycle_of_length(w, n, primes) for w in words):
        return factorial(n) // (2 if group.all_generators_even() else 1)
    return None


class _Level:
    """One level of the chain: a base point, the strong generators fixing
    every earlier base point, as 256-byte tables, and their basic orbit.

    ``orbit`` maps each orbit point to its transversal element u, the ``e``
    image bytes of an element sending the base point to it, and u's
    inverse padded to 256 bytes.  An entry, once set, is kept.
    ``points`` lists the orbit in the order it was reached, and
    ``cursors[k]`` counts the generators ``points[k]`` has been paired
    with; ``sifted`` holds the Schreier generators of this level that have
    been stripped.
    """

    __slots__ = ("base", "gens", "orbit", "points", "cursors", "sifted")

    def __init__(self, base, degree):
        self.base = base
        self.gens = []
        self.orbit = {base: (_IDENT256[:degree], _IDENT256)}
        self.points = [base]
        self.cursors = [0]
        self.sifted = set()

    def extend(self, s, degree):
        """Add the strong generator ``s`` and extend the basic orbit in place:
        ``s`` alone acts on the points already reached, every generator on
        the new ones, and each new point gets its one inverse."""
        gens = self.gens
        gens.append(s)
        orbit, points = self.orbit, self.points
        old = len(points)
        k = 0
        while k < len(points):
            pt = points[k]
            u = orbit[pt][0]
            for g in (gens if k >= old else (s,)):
                image = g[pt]
                if image not in orbit:
                    v = u.translate(g)
                    orbit[image] = (v, _invert(v, degree))
                    points.append(image)
            k += 1
        self.cursors += repeat(0, len(points) - old)


def _sift(levels, t, start=0):
    """Strip the ``e``-byte table ``t`` through ``levels[start:]``: the
    residue, and the first level whose basic orbit misses its base point's
    image, or ``len(levels)`` when ``t`` strips through them all."""
    for j in range(start, len(levels)):
        lv = levels[j]
        entry = lv.orbit.get(t[lv.base])
        if entry is None:
            return t, j
        t = t.translate(entry[1])
    return t, len(levels)


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

    The verification forms the Schreier generator of each pair of a basic
    orbit point and a strong generator of its level once.  A transversal
    entry, once set, is kept, and a new strong generator extends its level's
    basic orbit in place, so a pair's Schreier generator is fixed once
    formed.  Each orbit point keeps a cursor, the number of its level's
    strong generators it has been paired with, and a scan of the level
    resumes at the first pair past a cursor.  Proof that a pair passed need
    not be formed again: its Schreier generator g lies in H_(i+1) from the
    moment it is stripped through levels i+1 and on.  Either g strips to the
    identity, and is then a product of transversal elements of those levels,
    or it strips to a residue r at level j, and is then r times transversal
    elements of levels i+1 to j-1, where r joins levels i+1 to j.  H_(i+1)
    only grows, so g stays in it.  The scan goes bottom-up, and a residue
    registered down to level j sends it back to level j, so it moves on from
    level i to level i-1 only when every pair of every level from i on is
    passed.  It ends with every Schreier generator of each level in the next
    level's group, and by Schreier's lemma each H_(i+1) is then the
    stabilizer of base point i in H_i: the BSGS is complete.  Each level
    also keeps the Schreier generators it has stripped, so that an equal one
    formed from another pair, which lies in H_(i+1) as well, is not stripped
    again.
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
        ident = _IDENT256[:degree]
        pad = _IDENT256[degree:]
        levels = []

        def smallest_moved(t):
            for i in range(degree):
                if t[i] != i:
                    return i
            raise AssertionError("identity cannot extend the base")

        def register(t, start, stop):
            """The 256-byte ``t`` joins levels ``start..stop``, a new last
            one when ``stop`` is ``len(levels)``."""
            if stop == len(levels):
                levels.append(_Level(smallest_moved(t), degree))
            for lv in levels[start:stop + 1]:
                lv.extend(t, degree)

        # first occurrences, in order, by hashing the tables; a generator
        # joins every level whose base prefix it fixes
        for t in dict.fromkeys(g._table for g in self.generators):
            if t != _IDENT256:
                register(t, 0, next(
                    (j for j, lv in enumerate(levels) if t[lv.base] != lv.base),
                    len(levels)))

        # bottom-up verification: at each level every Schreier generator must
        # strip through the (already complete) deeper levels; residues become
        # strong generators exactly at the levels they fix into.  Reaching
        # the order bound proves the rest would add none, and a pair's
        # cursor passes it once its Schreier generator is stripped (class
        # docstring).
        order = prod(len(lv.orbit) for lv in levels)
        i = len(levels) - 1
        while i >= 0 and order != self._order_bound:
            lv = levels[i]
            gens, orbit, cursors, sifted = lv.gens, lv.orbit, lv.cursors, lv.sifted
            n = len(gens)
            registered = None
            for k, pt in enumerate(lv.points):
                c = cursors[k]
                u = orbit[pt][0]
                while c < n:
                    s = gens[c]
                    c += 1
                    sg = u.translate(s).translate(orbit[s[pt]][1])
                    if sg == ident or sg in sifted:
                        continue
                    sifted.add(sg)
                    residue, j = _sift(levels, sg, i + 1)
                    if residue != ident:
                        register(residue + pad, i + 1, j)
                        registered = j
                        break
                cursors[k] = c
                if registered is not None:
                    break
            if registered is None:
                i -= 1
            else:
                order = prod(len(lv.orbit) for lv in levels)
                i = registered

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
        residue, _ = _sift(self._levels, p._table[: self.degree])
        return residue == _IDENT256[: self.degree]

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

    def _tables(self):
        """The 256-byte table of every element exactly once; refuses more
        than ``DEFAULT_ELEMENTS_CAP`` at the first ``next``.

        Each table is the product of one transversal element per level,
        from the deepest level to the first.  The tables are listed by the
        basic orbit points of those elements, in increasing order, the
        deepest level's first, so siblings share the product of a prefix.
        """
        n = self.order()
        if n > DEFAULT_ELEMENTS_CAP:
            raise CapExceededError(
                f"group order {n} exceeds enumeration cap {DEFAULT_ELEMENTS_CAP}"
            )
        self._build()
        pad = _IDENT256[self.degree:]
        transversals = [[lv.orbit[pt][0] + pad for pt in sorted(lv.orbit)]
                        for lv in self._levels]

        def rec(i, acc):
            if i < 0:
                yield acc
                return
            for u in transversals[i]:
                yield from rec(i - 1, acc.translate(u))

        yield from rec(len(transversals) - 1, _IDENT256)

    def elements(self):
        """Every element exactly once, as a ``Permutation``, in ``_tables``
        order; refuses more than ``DEFAULT_ELEMENTS_CAP`` at the first ``next``."""
        return map(Permutation._from_table, self._tables(), repeat(self.degree))

    def all_generators_even(self):
        return all(map(is_even, self.generators))


def group_from_generators(generators):
    """Group handle from a non-empty generating set of uniform degree."""
    generators = list(generators)
    if not generators:
        raise ValueError("generator list must be non-empty")
    return PermGroup(generators)
