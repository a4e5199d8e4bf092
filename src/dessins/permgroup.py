"""Permutation groups with a deterministic base and strong generating set.

Internally elements are 0-based image tables stored as ``bytes`` padded to
256 entries (``Permutation._table``), so composition is one
``bytes.translate`` call and every product is again 256 bytes long.  Base
points are always the smallest labels not fixed so far, which makes orders,
transversals and element streams reproducible run to run.

``PermGroup.order`` first tries to certify that the group is a giant, the
alternating or symmetric group on all points, by Jordan's theorem (see
``_jordan_order``); only groups it does not certify get a Schreier-Sims
build.
"""

from __future__ import annotations

from math import factorial

from .perm import Permutation, _IDENT256, _invert, compose, cycle_type, identity

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


def _is_primitive(tables, degree):
    """Atkinson's minimal-block test for a transitive group.

    For each point beta other than 0, close {0, beta} under the generators
    with a union-find: whenever a and b are joined, g(a) and g(b) are joined
    for every generator g.  The result is the finest invariant partition
    with 0 and beta in one block, so the group is primitive exactly when
    every closure is the whole set (Atkinson, Math. Comp. 1975).
    """
    whole = degree - 1  # joins that leave a single block
    for beta in range(1, degree):
        parent = list(range(degree))
        parent[beta] = 0
        joins = 1
        pairs = [0, beta]
        qi = 0
        while joins < whole and qi < len(pairs):
            a, b = pairs[qi], pairs[qi + 1]
            qi += 2
            for t in tables:
                x = ta = t[a]
                while parent[x] != x:
                    x = parent[x]
                y = tb = t[b]
                while parent[y] != y:
                    y = parent[y]
                if x != y:
                    parent[y] = x
                    joins += 1
                    pairs += (ta, tb)
        if joins < whole:
            return False
    return True


def _certificate_words(generators):
    """A fixed list of ``CERTIFICATE_WORDS`` words in the generators.

    Product replacement on a fixed schedule: the slots start as the
    generators, repeated cyclically; step j replaces slot i by the product
    of slots i and l, for the j-th pair of a fixed cycle through the
    ordered pairs of distinct slots, and the word is a running product of
    the new slots.
    """
    slots = [generators[i % len(generators)]
             for i in range(max(CERTIFICATE_SLOTS, len(generators)))]
    n = len(slots)
    schedule = [(i, (i + d) % n) for d in range(1, n) for i in range(n)]
    word = identity(generators[0].degree)
    for j in range(CERTIFICATE_WORDS):
        i, l = schedule[j % len(schedule)]
        slots[i] = compose(slots[i], slots[l])
        word = compose(word, slots[i])
        yield word


def _has_prime_cycle_power(word):
    """Whether a power of ``word`` is a p-cycle with p prime and p <= n - 3.

    That holds when exactly one cycle length is divisible by p and that
    length is p: the word raised to the lcm of the other lengths, which is
    prime to p, is then the p-cycle.
    """
    lengths = cycle_type(word).lengths
    limit = word.degree - 3
    return any(
        p <= limit and _is_prime(p) and sum(1 for m in lengths if m % p == 0) == 1
        for p in set(lengths)
    )


def _jordan_order(group):
    """The order of a certified giant: n! or n!/2; None when not certified.

    Jordan's theorem: a primitive group of degree n that contains a p-cycle,
    p prime and p <= n - 3, contains the alternating group A_n.  The
    certificate checks transitivity, primitivity by Atkinson's test and
    searches a fixed list of words for a power that is such a p-cycle; the
    order is then n! when some generator is odd and n!/2 otherwise.  Any
    check that fails declines, never guesses.
    """
    n = group.degree
    if n < 5 or not group.is_transitive():
        return None
    if not _is_primitive([g._table for g in group.generators], n):
        return None
    if not any(_has_prime_cycle_power(w) for w in _certificate_words(group.generators)):
        return None
    return factorial(n) // (2 if group.all_generators_even() else 1)


class _Level:
    __slots__ = ("base", "gens", "orbit")

    def __init__(self, base):
        self.base = base
        self.gens = []    # strong generators fixing all earlier base points
        self.orbit = {}   # point -> (u, u_inv), u maps base to point


class PermGroup:
    """Group generated by permutations of a common degree.

    The BSGS is built lazily on the first query that needs it; afterwards
    the group is read-only.
    """

    def __init__(self, generators, degree=None, base=None):
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
        self._initial_base = tuple(b - 1 for b in base) if base else ()
        self._levels = None
        self._order = None

    # -- BSGS construction -------------------------------------------------

    def _build(self):
        if self._levels is not None:
            return
        degree = self.degree
        ident = _IDENT256
        iprefix = ident[:degree]
        levels = []

        def is_ident(t):
            return t[:degree] == iprefix

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

        gens0 = []
        for g in self.generators:
            t = g._table
            if not is_ident(t) and t not in gens0:
                gens0.append(t)
        for b in self._initial_base:
            levels.append(_Level(b))
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
        # strong generators exactly at the levels they fix into
        i = len(levels) - 1
        while i >= 0:
            lv = levels[i]
            registered = None
            for pt in sorted(lv.orbit):
                u, _ = lv.orbit[pt]
                for s in lv.gens:
                    _, w_inv = lv.orbit[s[pt]]
                    sg = u.translate(s).translate(w_inv)
                    if is_ident(sg):
                        continue
                    residue, j = strip(sg, i + 1)
                    if is_ident(residue):
                        continue
                    if j == len(levels):
                        levels.append(_Level(smallest_moved(residue)))
                    for l in range(i + 1, j + 1):
                        levels[l].gens.append(residue)
                        update_orbit(l)
                    registered = j
                    break
                if registered is not None:
                    break
            i = registered if registered is not None else i - 1

        order = 1
        for lv in levels:
            order *= max(1, len(lv.orbit))
        self._levels = levels
        self._order = order

    # -- queries ------------------------------------------------------------

    def order(self):
        if self._order is None:
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

    def __contains__(self, p):
        return self.contains(p)

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

    def elements(self, cap=DEFAULT_ELEMENTS_CAP):
        """Every element exactly once; refuses groups larger than ``cap``."""
        n = self.order()
        if n > cap:
            raise CapExceededError(
                f"group order {n} exceeds enumeration cap {cap}"
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
        return all(g.is_even() for g in self.generators)


def group_from_generators(generators):
    """Group handle from a non-empty generating set of uniform degree."""
    generators = list(generators)
    if not generators:
        raise ValueError("generator list must be non-empty")
    return PermGroup(generators)
