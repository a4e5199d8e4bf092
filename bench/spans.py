"""Spans around the public functions of each dessins module.

``Tracer.install`` rebinds each public function in the module namespace
it is called through: ``classify`` binds ``automorphism_group``,
``invariants`` and ``dualizable_oracle`` at import, ``invariants`` calls
``is_dualizable`` through ``dessins.dessin``, and the benchmark calls the
rest through their own modules.  ``PermGroup.order`` is wrapped on the
class; its first call on an instance, tracked by identity, builds the
BSGS.  ``rotation`` and ``perm`` are reached only through private entry
points (``_pair_stream``, ``Permutation._from_table``), so they get no
spans: their time stays inside the self time of their callers.

A span is ``[name, start, end, parent index, input id, attrs]``; attrs
stay None when the call raised.  Spans are held in memory and written out
when the run ends.
"""

from __future__ import annotations

import statistics
import weakref
from time import perf_counter

from reference import is_giant

# highest percentile reported for a latency: the largest of these with at
# least ten samples beyond it
PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.input_id = None
        self._stack = []
        self._undo = []
        self._built = weakref.WeakSet()

    def _wrap(self, name, fn, pre=None, post=None):
        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.input_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if post:
                span[5] = post(args, result, state)
            return result

        return wrapper

    def _first_order_call(self, args):
        group = args[0]
        if group in self._built:
            return False
        self._built.add(group)
        return True

    def install(self, layers):
        def order_attrs(args, result, first):
            return {"build": first, "giant": first and is_giant(result, args[0].degree)}

        plan = [
            (layers.bgraph, "parse_bipartite", "bgraph.parse", None, None),
            (layers.bgraph, "parse_plain", "bgraph.parse", None, None),
            (layers.classify, "automorphism_group", "bgraph.automorphism_group", None,
             lambda a, r, s: {"group_order": r.group_order}),
            (layers.classify, "classify", "classify.classify", None,
             lambda a, r, s: {"candidates": r.candidate_count, "orbits": len(r.records),
                              "group_order": r.group_order}),
            (layers.classify, "invariants", "dessin.invariants", None, None),
            (layers.classify, "dualizable_oracle", "dessin.dualizable", None, None),
            (layers.dessin, "is_dualizable", "dessin.dualizable", None, None),
            (layers.permgroup.PermGroup, "order", "permgroup.order",
             self._first_order_call, order_attrs),
            (layers.io, "build_document", "io.serialize", None, None),
            (layers.io, "serialize_document", "io.serialize", None,
             lambda a, r, s: {"bytes": len(r.encode())}),
            (layers.io, "parse_report", "io.parse_report", None, None),
            (layers.graphgenus, "genus_range", "graphgenus.range", None,
             lambda a, r, s: {"systems": r.clean.candidate_count()}),
            (layers.graphgenus, "genus_histogram", "graphgenus.histogram", None,
             lambda a, r, s: {"systems": sum(r.values())}),
        ]
        for owner, attr, name, pre, post in plan:
            original = vars(owner)[attr]
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, pre, post))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "input": i, "attrs": a}
                for n, s, e, p, i, a in self.spans]


def tail(samples):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            return pct, ordered[min(n - 1, int(n * pct / 100))]
    return 100.0, ordered[-1] if ordered else 0.0


def layer_metrics(spans, passes, traced_wall):
    """Per-pass layer metrics; a layer's time is its spans' self time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_time, calls, attrs = {}, {}, {}
    top = 0.0
    for k, (name, start, end, parent, _, a) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child[k]
        calls.setdefault(name, []).append(end - start)
        for key, value in (a or {}).items():
            attrs[(name, key)] = attrs.get((name, key), 0) + value
        if parent is None:
            top += end - start

    def t(*names):
        return sum(self_time.get(n, 0.0) for n in names) / passes

    def count(name, key):
        return attrs.get((name, key), 0) / passes

    # a span whose call raised has no attrs
    giant_s = sum(e - s for n, s, e, _, _, a in spans
                  if n == "permgroup.order" and a and a["giant"])
    inv_calls = calls.get("dessin.invariants", [])
    tail_pct, tail_s = tail(inv_calls)
    census_s = t("classify.classify")
    genus_s = t("graphgenus.range", "graphgenus.histogram")
    builds = count("permgroup.order", "build")
    candidates = count("classify.classify", "candidates")
    systems = count("graphgenus.range", "systems") + count("graphgenus.histogram", "systems")
    return {
        "bgraph.parse_s": (t("bgraph.parse"), "s"),
        "bgraph.aut_s": (t("bgraph.automorphism_group"), "s"),
        "bgraph.group_order": (count("bgraph.automorphism_group", "group_order"), "count"),
        "classify.census_s": (census_s, "s"),
        "classify.candidates": (candidates, "count"),
        "classify.orbits": (count("classify.classify", "orbits"), "count"),
        "classify.conjugations_naive": (
            sum(a["candidates"] * a["group_order"] for n, _, _, _, _, a in spans
                if n == "classify.classify" and a) / passes, "count"),
        "classify.pairs_per_s": (candidates / census_s if census_s else 0.0, "1/s"),
        "dessin.invariants_s": (t("dessin.invariants"), "s"),
        "dessin.invariants_calls": (len(inv_calls) / passes, "count"),
        "dessin.invariants_p50_ms": (
            1000 * statistics.median(inv_calls) if inv_calls else 0.0, "ms"),
        "dessin.invariants_tail_ms": (1000 * tail_s, "ms"),
        "dessin.invariants_tail_pct": (tail_pct, "%"),
        "dessin.dualizable_s": (t("dessin.dualizable"), "s"),
        "permgroup.order_s": (t("permgroup.order"), "s"),
        "permgroup.builds": (builds, "count"),
        "permgroup.giant_groups": (count("permgroup.order", "giant"), "count"),
        "permgroup.giant_s": (giant_s / passes, "s"),
        "permgroup.other_s": (t("permgroup.order") - giant_s / passes, "s"),
        "permgroup.giant_share": (
            count("permgroup.order", "giant") / builds if builds else 0.0, "ratio"),
        "io.serialize_s": (t("io.serialize"), "s"),
        "io.parse_report_s": (t("io.parse_report"), "s"),
        "io.report_bytes": (count("io.serialize", "bytes"), "bytes"),
        "graphgenus.range_s": (t("graphgenus.range"), "s"),
        "graphgenus.histogram_s": (t("graphgenus.histogram"), "s"),
        "graphgenus.systems": (systems, "count"),
        "graphgenus.systems_per_s": (systems / genus_s if genus_s else 0.0, "1/s"),
        "trace.coverage": (top / traced_wall if traced_wall else 0.0, "ratio"),
    }
