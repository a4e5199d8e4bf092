"""Report serialization: stable JSON, CSV, and aligned text tables.

Records are emitted sorted by (genus, passport, canonical representative);
``orbit_id`` keeps the classification's own ordering so mirror partners
stay resolvable.  Group-theoretic orders are serialized as decimal strings
(they overflow 64-bit consumers).

The JSON text is exactly ``json.dumps(data, indent=2)`` plus a newline, but
written by ``str.join`` over the document tree: with an indent, ``json``
falls back to its pure-Python encoder.  ``parse_report`` checks every
permutation string, once per distinct string: records of a clean graph all
share one ``tau``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bgraph import _format_passport
from .perm import MAX_DEGREE, format_cycles, parse_cycles

SCHEMA_VERSION = "1"


class ReportFormatError(ValueError):
    """Malformed or version-incompatible report document."""


@dataclass
class ReportDocument:
    """Parsed report; ``data`` is the canonical JSON object structure."""

    data: dict

    @property
    def records(self):
        return self.data["records"]

    @property
    def graph(self):
        return self.data["graph"]


def _record_sort_key(rec):
    inv = rec.invariants
    return (
        inv.genus,
        inv.passport.black,
        inv.passport.white,
        inv.passport.faces,
        rec.representative.sigma,
        rec.representative.tau,
    )


def _record_to_json(rec, wilson_targets=None):
    inv = rec.invariants
    fp = inv.monodromy_fingerprint
    mirror = {"status": rec.mirror_status}
    if rec.mirror_partner is not None:
        mirror["partner_orbit_id"] = rec.mirror_partner
    out = {
        "orbit_id": rec.orbit_id,
        "sigma": format_cycles(rec.representative.sigma),
        "tau": format_cycles(rec.representative.tau),
        "orbit_length": rec.orbit_length,
        "aut_order": rec.aut_order,
        "aut_generators": [format_cycles(g) for g in rec.aut_generators],
        "genus": inv.genus,
        "passport": {
            "black": list(inv.passport.black),
            "white": list(inv.passport.white),
            "faces": list(inv.passport.faces),
        },
        "face_count": inv.face_count,
        "monodromy_order": None if inv.monodromy_order is None else str(inv.monodromy_order),
        "fingerprint": None if fp is None else {
            "order": str(fp.order),
            "all_generators_even": fp.all_generators_even,
            "point_stabilizer_order": str(fp.point_stabilizer_order),
            "odd_generators": fp.odd_generators,
        },
        "regular": inv.regular,
        "uniform": inv.uniform,
        "dualizable": inv.dualizable,
        "mirror": mirror,
    }
    if wilson_targets is not None:
        r, s, targets = wilson_targets
        out["wilson"] = {"r": r, "s": s, "target_orbit_id": targets[rec.orbit_id]}
    return out


def build_document(report, wilson_targets=None):
    """Canonical document structure for a classification report."""
    graph = report.graph
    passport = graph.passport()
    ordered = sorted(report.records, key=_record_sort_key)
    data = {
        "schema_version": SCHEMA_VERSION,
        "graph": {
            "e": graph.e,
            "alpha": len(graph.blacks),
            "beta": len(graph.whites),
            "black_degrees": list(passport.black_degrees),
            "white_degrees": list(passport.white_degrees),
            "aut_group_order": report.group_order,
            "candidate_count": str(report.candidate_count),
        },
        "records": [_record_to_json(r, wilson_targets) for r in ordered],
        "genus_histogram": {str(k): v for k, v in sorted(report.genus_histogram.items())},
        "dualizable_histogram": {
            str(k): v for k, v in sorted(report.dualizable_histogram.items())
        },
    }
    return ReportDocument(data)


_STR = json.encoder.encode_basestring_ascii
_INTS = {int}


def _to_json(value, pad=""):
    """``json.dumps(value, indent=2)``, nested ``pad`` deep, by ``str.join``.

    Takes dicts with string keys, lists, strings, ints, booleans and None;
    anything else goes to ``json.dumps`` itself.  A list of ints is one join.
    """
    kind = type(value)
    if kind is str:
        return _STR(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is list:
        if not value:
            return "[]"
        if set(map(type, value)) == _INTS:
            body = sep.join(map(str, value))
        else:
            body = sep.join([_to_json(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    if kind is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        body = sep.join([_STR(k) + ": " + _to_json(v, inner) for k, v in value.items()])
        return "{\n" + inner + body + "\n" + pad + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def serialize_document(doc, fmt="json"):
    if fmt == "json":
        return _to_json(doc.data) + "\n"
    if fmt == "csv":
        return _to_csv(doc)
    if fmt == "table":
        return _to_table(doc)
    raise ValueError(f"unknown format {fmt!r}")


def serialize_report(report, fmt="json", wilson_targets=None):
    return serialize_document(build_document(report, wilson_targets), fmt)


def _passport_str(rec):
    p = rec["passport"]
    return _format_passport(p["black"], p["white"], p["faces"])


def _mirror_str(rec):
    m = rec["mirror"]
    if m["status"] == "reflexive":
        return "reflexive"
    return f"chiral->{m['partner_orbit_id']}"


def _to_csv(doc):
    cols = [
        "orbit_id", "genus", "orbit_length", "aut_order", "monodromy_order",
        "passport", "regular", "uniform", "dualizable", "mirror", "sigma", "tau",
    ]
    lines = [",".join(cols)]
    for rec in doc.records:
        lines.append(",".join([
            str(rec["orbit_id"]),
            str(rec["genus"]),
            str(rec["orbit_length"]),
            str(rec["aut_order"]),
            rec["monodromy_order"] or "",
            '"' + _passport_str(rec) + '"',
            str(rec["regular"]).lower(),
            str(rec["uniform"]).lower(),
            str(rec["dualizable"]).lower(),
            _mirror_str(rec),
            '"' + rec["sigma"] + '"',
            '"' + rec["tau"] + '"',
        ]))
    return "\n".join(lines) + "\n"


def _to_table(doc):
    g = doc.graph
    graph_str = _format_passport(g["black_degrees"], g["white_degrees"])
    header = [
        "Graph", "Genus", "MonodromyOrder", "AutOrder",
        "Passport", "Regular", "Mirror", "Dualizable",
    ]
    rows = [header]
    for rec in doc.records:
        rows.append([
            graph_str,
            str(rec["genus"]),
            rec["monodromy_order"] or "?",
            str(rec["aut_order"]),
            _passport_str(rec),
            "Y" if rec["regular"] else "N",
            _mirror_str(rec),
            "Y" if rec["dualizable"] else "N",
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    out = [
        "# e={e} alpha={alpha} beta={beta} |G|={aut} N={n} records={k}".format(
            e=g["e"], alpha=g["alpha"], beta=g["beta"],
            aut=g["aut_group_order"], n=g["candidate_count"], k=len(doc.records),
        )
    ]
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def parse_report(text):
    """Parse a JSON report, validating schema version and permutations."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReportFormatError("top level must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ReportFormatError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION!r}"
        )
    graph = data.get("graph")
    if not isinstance(graph, dict):
        raise ReportFormatError("missing graph section")
    for field in ("e", "alpha", "beta", "black_degrees", "white_degrees",
                  "aut_group_order", "candidate_count"):
        if field not in graph:
            raise ReportFormatError(f"graph section missing {field!r}")
    records = data.get("records")
    if not isinstance(records, list):
        raise ReportFormatError("missing records list")
    e = graph["e"]
    e_ok = type(e) is int and 1 <= e <= MAX_DEGREE
    if not records and not e_ok:
        raise ReportFormatError(f"graph e {e!r} is not in 1..{MAX_DEGREE}")
    # every string is checked once per report: records share strings
    checked = set()

    def check_cycles(i, field, text):
        if type(text) is not str:
            raise ReportFormatError(f"record {i}: bad {field} cycle string: not a string")
        if text in checked:
            return
        try:
            parse_cycles(text, e)
        except ValueError as exc:
            raise ReportFormatError(
                f"record {i}: bad {field} cycle string: {exc}"
            ) from exc
        checked.add(text)

    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ReportFormatError(f"record {i} is not an object")
        for field in ("orbit_id", "sigma", "tau", "orbit_length", "aut_order",
                      "genus", "passport", "monodromy_order", "mirror"):
            if field not in rec:
                raise ReportFormatError(f"record {i} missing {field!r}")
        if not e_ok:
            raise ReportFormatError(f"record {i}: graph e {e!r} is not in 1..{MAX_DEGREE}")
        check_cycles(i, "sigma", rec["sigma"])
        check_cycles(i, "tau", rec["tau"])
        generators = rec.get("aut_generators", [])
        if type(generators) is not list:
            raise ReportFormatError(f"record {i}: aut_generators is not a list")
        for g in generators:
            check_cycles(i, "automorphism", g)
        try:
            if rec["monodromy_order"] is not None:
                int(rec["monodromy_order"])
        except (ValueError, TypeError) as exc:
            raise ReportFormatError(
                f"record {i}: bad monodromy_order {rec['monodromy_order']!r}"
            ) from exc
    for field in ("genus_histogram", "dualizable_histogram"):
        if not isinstance(data.get(field), dict):
            raise ReportFormatError(f"missing {field}")
    return ReportDocument(data)
