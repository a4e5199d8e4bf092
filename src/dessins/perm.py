"""Permutations of the edge-label set {1..e}.

Composition is left to right throughout: ``p * q`` (and ``compose(p, q)``)
applies ``p`` first, then ``q``.  The face permutation of a rotation pair
is therefore ``compose(tau, sigma)``.
"""

from __future__ import annotations

import re

_IDENT256 = bytes(range(256))

MAX_DEGREE = 255  # images are cached as bytes so labels must fit in one byte

# 1-based byte labels down to 0-based (0 never occurs)
_LOWER = bytes([255]) + _IDENT256[:255]
# the text of each 0-based label, and back to the 1-based label
_LABELS = tuple(str(i + 1) for i in range(256))
_VALUES = {text: i + 1 for i, text in enumerate(_LABELS[:MAX_DEGREE])}
_FIRSTS = re.compile(r"\(([0-9]+)")
_LASTS = re.compile(r"([0-9]+)\)")


class CycleParseError(ValueError):
    """Malformed cycle notation; ``position`` is the 0-based offset in the text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Permutation:
    """A bijection of {1..degree}, immutable.

    The only stored form is ``_table``: the 0-based image bytes padded with
    the identity to 256 entries, so that composition is a single
    ``bytes.translate``.  ``images[i]`` is the image of label ``i + 1``,
    derived from the table; all labels are 1-based at the interface.
    """

    __slots__ = ("degree", "_table")

    def __init__(self, images):
        images = tuple(images)
        degree = len(images)
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} exceeds supported maximum {MAX_DEGREE}")
        seen = [False] * degree
        for v in images:
            if not isinstance(v, int) or not 1 <= v <= degree:
                raise ValueError(f"image {v!r} outside 1..{degree}")
            if seen[v - 1]:
                raise ValueError(f"image {v} repeated; not a bijection")
            seen[v - 1] = True
        self.degree = degree
        self._table = bytes(v - 1 for v in images) + _IDENT256[degree:]

    @classmethod
    def _from_table(cls, table, degree):
        """Trusted constructor from 0-based bytes (no validation)."""
        p = object.__new__(cls)
        p.degree = degree
        p._table = bytes(table[:degree]) + _IDENT256[degree:]
        return p

    @property
    def images(self):
        return tuple(b + 1 for b in self._table[: self.degree])

    def __call__(self, label):
        if not 1 <= label <= self.degree:
            raise ValueError(f"label {label} outside 1..{self.degree}")
        return self._table[label - 1] + 1

    def __mul__(self, other):
        return compose(self, other)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        # identities of different degrees have equal padded tables
        return (
            isinstance(other, Permutation)
            and self.degree == other.degree
            and self._table == other._table
        )

    def __hash__(self):
        return hash(self._table)

    def __lt__(self, other):
        return self._table[: self.degree] < other._table[: other.degree]

    def __repr__(self):
        return f"Permutation({format_cycles(self)!r}, degree={self.degree})"

    def is_identity(self):
        return self._table == _IDENT256

    def inverse(self):
        return Permutation._from_table(_invert(self._table, self.degree), self.degree)

    def is_even(self):
        return is_even(self)


def _invert(table, degree):
    """The inverse of a 0-based image table, padded to 256 bytes."""
    out = bytearray(_IDENT256)
    for i in range(degree):
        out[table[i]] = i
    return bytes(out)


def identity(degree):
    return Permutation(range(1, degree + 1))


def compose(p, q):
    """Apply ``p`` first, then ``q`` (the juxtaposition "pq")."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation._from_table(p._table[: p.degree].translate(q._table), p.degree)


def conjugate(p, g):
    """g^-1 p g; same cycle type as ``p``."""
    if p.degree != g.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {g.degree}")
    return compose(compose(g.inverse(), p), g)


def cycle_type(p):
    """Disjoint-cycle lengths, fixed points included, as an ascending tuple."""
    seen = [False] * p.degree
    lengths = []
    for i in range(p.degree):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p._table[j]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths))


def is_even(p):
    return sum(n - 1 for n in cycle_type(p)) % 2 == 0


def parse_cycles(text, degree):
    """Parse disjoint-cycle notation like ``(1,2,3)(4,5)``; ``()`` is the identity.

    Labels omitted from the text are fixed points.  Whitespace is ignored.
    """
    if isinstance(text, str) and type(degree) is int and degree <= MAX_DEGREE:
        p = _parse_plain_cycles(text, degree)
        if p is not None:
            return p
    images = list(range(1, degree + 1))
    used = [False] * degree
    pos = 0
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos == n:
        raise CycleParseError("empty permutation text", pos)
    saw_cycle = False
    while pos < n:
        pos = skip_ws(pos)
        if pos == n:
            break
        if text[pos] != "(":
            raise CycleParseError(f"expected '(' but found {text[pos]!r}", pos)
        pos += 1
        cyc = []
        pos = skip_ws(pos)
        if pos < n and text[pos] == ")" and not cyc:
            if saw_cycle or cyc:
                raise CycleParseError("empty cycle", pos)
            # "()" must stand alone as the identity
            pos = skip_ws(pos + 1)
            if pos != n:
                raise CycleParseError("text after identity '()'", pos)
            return Permutation(images)
        while True:
            pos = skip_ws(pos)
            start = pos
            while pos < n and text[pos].isdecimal():
                pos += 1
            if pos == start:
                raise CycleParseError("expected a label", pos)
            label = int(text[start:pos])
            if not 1 <= label <= degree:
                raise CycleParseError(f"label {label} outside 1..{degree}", start)
            if used[label - 1]:
                raise CycleParseError(f"label {label} repeated", start)
            used[label - 1] = True
            cyc.append(label)
            pos = skip_ws(pos)
            if pos == n:
                raise CycleParseError("unterminated cycle", pos)
            if text[pos] == ",":
                pos += 1
                continue
            if text[pos] == ")":
                pos += 1
                break
            raise CycleParseError(f"expected ',' or ')' but found {text[pos]!r}", pos)
        saw_cycle = True
        for i, label in enumerate(cyc):
            images[label - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def _parse_plain_cycles(text, degree):
    """``parse_cycles`` of text as ``format_cycles`` writes it, or None.

    The text is "(", then labels joined by "," within a cycle and ")("
    between cycles, then ")"; each label is a key of ``_VALUES``, which
    leaves out "0", leading zeros and labels past a byte.  Every label maps
    to the next label in the text, except the last of each cycle, which
    maps to the first; so one ``bytes.maketrans`` of all labels followed by
    the (last, first) pairs builds the table, later pairs overriding
    earlier ones.  Other text (whitespace, "()", non-ASCII digits, errors)
    goes to the character walk, which owns every error message.
    """
    if text[:1] != "(" or text[-1:] != ")":
        return None
    value = _VALUES.__getitem__
    try:
        moved = bytes(map(value, text[1:-1].replace(")(", ",").split(",")))
    except KeyError:
        return None
    if len(set(moved)) != len(moved) or max(moved) > degree:
        return None
    firsts = bytes(map(value, _FIRSTS.findall(text)))
    lasts = bytes(map(value, _LASTS.findall(text)))
    table = bytes.maketrans(moved + lasts, moved[1:] + moved[:1] + firsts)
    return Permutation._from_table(table[1 : degree + 1].translate(_LOWER), degree)


def format_cycles(p):
    """Canonical text: cycles by least element, rotated to start there; identity is "()"."""
    table = p._table
    seen = bytearray(p.degree)
    parts = []
    for start in range(p.degree):
        if seen[start] or table[start] == start:
            continue
        cycle = [_LABELS[start]]
        nxt = table[start]
        while nxt != start:
            seen[nxt] = 1
            cycle.append(_LABELS[nxt])
            nxt = table[nxt]
        parts.append("(" + ",".join(cycle) + ")")
    return "".join(parts) or "()"


def random_permutation(degree, rng):
    """Uniform random permutation from an externally seeded ``random.Random``."""
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Permutation(images)
