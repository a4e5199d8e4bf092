"""Reference cycle notation for ``dessins.perm``: one character at a time.

``parse_cycles`` is a frozen copy of the library's character walk, the
oracle for every text, well formed or not, and for the plain-text
shortcut that ``parse_report`` takes before the walk.  ``format_cycles`` lists
the cycles, and ``cycle_lengths`` their lengths, by walking the images
label by label.
"""

from dessins import CycleParseError, Permutation


def parse_cycles(text, degree):
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


def format_cycles(p):
    images = p.images
    seen = [False] * p.degree
    cycles = []
    for start in range(1, p.degree + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = images[nxt - 1]
        if len(cyc) > 1:
            cycles.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(cycles) or "()"


def cycle_lengths(p):
    """The length of each cycle, fixed points included, by least label."""
    images = p.images
    seen = [False] * p.degree
    lengths = []
    for start in range(1, p.degree + 1):
        if seen[start - 1]:
            continue
        n = 0
        nxt = start
        while not seen[nxt - 1]:
            seen[nxt - 1] = True
            nxt = images[nxt - 1]
            n += 1
        lengths.append(n)
    return lengths
