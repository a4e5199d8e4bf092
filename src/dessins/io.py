"""Report serialization: stable JSON, CSV, and aligned text tables.

Records are emitted sorted by (genus, passport, canonical representative);
``orbit_id`` keeps the classification's own ordering so mirror partners
stay resolvable.  Group-theoretic orders are serialized as decimal strings
(they overflow 64-bit consumers).

``build_document`` writes sigma and tau from the vertex cycles of the
graph (``rotation.CycleText``): one walk per distinct rotation of a vertex,
not one per record; stabilizer generators, few per record, go through
``format_cycles``.  The JSON text is exactly ``json.dumps(data, indent=2)``
plus a newline, but written by ``str.join`` and one ``%`` format per record
shape: with an indent, ``json`` falls back to its pure-Python encoder.
``parse_report`` checks every permutation string once per distinct string,
by its label set: plain cycle text on distinct labels of 1..e is valid, and
any other text goes to ``parse_cycles``, which accepts it or names the fault.
It also checks the shape of every field the CSV and table writers read, so
a report it accepts can be written in each format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bgraph import _format_passport
from .perm import MAX_DEGREE, _plain_labels, format_cycles, parse_cycles
from .rotation import CycleText

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


def _record_to_json(rec, wilson_targets, sigmas, taus):
    inv = rec.invariants
    fp = inv.monodromy_fingerprint
    mirror = {"status": rec.mirror_status}
    if rec.mirror_partner is not None:
        mirror["partner_orbit_id"] = rec.mirror_partner
    out = {
        "orbit_id": rec.orbit_id,
        "sigma": sigmas(rec.representative.sigma),
        "tau": taus(rec.representative.tau),
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
    sigmas, taus = CycleText(graph, 0), CycleText(graph, 1)
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
        "records": [_record_to_json(r, wilson_targets, sigmas, taus) for r in ordered],
        "genus_histogram": {str(k): v for k, v in sorted(report.genus_histogram.items())},
        "dualizable_histogram": {
            str(k): v for k, v in sorted(report.dualizable_histogram.items())
        },
    }
    return ReportDocument(data)


_STR = json.encoder.encode_basestring_ascii
_INTS = {int}


def _to_json(value):
    """``json.dumps(value, indent=2)`` by ``str.join`` and ``%`` formats.

    Takes dicts with string keys, lists, strings, ints, booleans and None;
    anything else goes to ``json.dumps`` itself.  Within one call, a list
    of ints is joined once per distinct (indent, values), and a dict with
    string keys renders through one ``%`` format per (indent, keys), built
    the first time; records of one report repeat both.
    """
    lists = {}  # (pad, ints) -> text
    formats = {}  # (pad, keys) -> format, or None when a key is not a str

    def encode(value, pad):
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
        if kind is list:
            if not value:
                return "[]"
            if set(map(type, value)) == _INTS:  # no bool: True would hash as 1
                key = (pad, tuple(value))
                text = lists.get(key)
                if text is None:
                    text = lists[key] = _wrap("[", map(str, value), pad, "]")
                return text
            return _wrap("[", [encode(v, inner) for v in value], pad, "]")
        if kind is dict:
            key = (pad, tuple(value))
            fmt = formats.get(key, False)
            if fmt is False:
                fmt = formats[key] = _dict_format(key[1], pad)
            if fmt is not None:
                return fmt % tuple([encode(v, inner) for v in value.values()])
        return json.dumps(value, indent=2).replace("\n", "\n" + pad)

    return encode(value, "")


def _wrap(open_, items, pad, close):
    """Items one per line, two spaces deeper than ``pad``, between brackets."""
    inner = pad + "  "
    return open_ + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + close


def _dict_format(keys, pad):
    """The ``%`` format of a dict with these keys at this indent, or None
    if a key is not a string."""
    if not all(type(k) is str for k in keys):
        return None
    if not keys:
        return "{}"
    return _wrap("{", [_STR(k).replace("%", "%%") + ": %s" for k in keys], pad, "}")


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
    for field in ("black_degrees", "white_degrees"):
        if type(graph[field]) is not list:
            raise ReportFormatError(f"graph {field} is not a list")
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
        if _plain_labels(text, e) is None:
            try:
                parse_cycles(text, e)
            except ValueError as exc:
                raise ReportFormatError(
                    f"record {i}: bad {field} cycle string: {exc}"
                ) from exc
        checked.add(text)

    ids = {}  # orbit_id -> record index
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ReportFormatError(f"record {i} is not an object")
        for field in ("orbit_id", "sigma", "tau", "orbit_length", "aut_order", "genus",
                      "passport", "monodromy_order", "regular", "uniform", "dualizable",
                      "mirror"):
            if field not in rec:
                raise ReportFormatError(f"record {i} missing {field!r}")
        # the shapes the CSV and table writers read, checked field by field
        passport, mirror = rec["passport"], rec["mirror"]
        if type(passport) is not dict or not (
                type(passport.get("black")) is type(passport.get("white"))
                is type(passport.get("faces")) is list):
            raise ReportFormatError(f"record {i}: passport is not three lists of degrees")
        status = mirror.get("status") if type(mirror) is dict else None
        if status != "reflexive" and (status != "chiral" or "partner_orbit_id" not in mirror):
            raise ReportFormatError(f"record {i}: mirror is not reflexive or chiral with a partner")
        orbit_id = rec["orbit_id"]
        if type(orbit_id) is not int:
            raise ReportFormatError(f"record {i}: orbit_id {orbit_id!r} is not an int")
        if ids.setdefault(orbit_id, i) != i:
            raise ReportFormatError(
                f"record {i}: orbit_id {orbit_id} is also that of record {ids[orbit_id]}"
            )
        if not e_ok:
            raise ReportFormatError(f"record {i}: graph e {e!r} is not in 1..{MAX_DEGREE}")
        check_cycles(i, "sigma", rec["sigma"])
        check_cycles(i, "tau", rec["tau"])
        generators = rec.get("aut_generators", [])
        if type(generators) is not list:
            raise ReportFormatError(f"record {i}: aut_generators is not a list")
        for g in generators:
            check_cycles(i, "automorphism", g)
        order = rec["monodromy_order"]
        if order is not None and (type(order) is not str or not order.isdecimal()):
            raise ReportFormatError(f"record {i}: bad monodromy_order {order!r}")
    # chiral partners come in pairs: each names another chiral record, which
    # names it back
    for i, rec in enumerate(records):
        mirror = rec["mirror"]
        if mirror["status"] == "chiral":
            partner = mirror["partner_orbit_id"]
            # i itself when the partner names no other record
            j = ids.get(partner, i) if type(partner) is int else i
            back = records[j]["mirror"]
            if j == i or back["status"] != "chiral" or back["partner_orbit_id"] != rec["orbit_id"]:
                raise ReportFormatError(
                    f"record {i}: partner_orbit_id {partner!r} names no other chiral "
                    f"record whose partner is this one"
                )
    for field in ("genus_histogram", "dualizable_histogram"):
        if not isinstance(data.get(field), dict):
            raise ReportFormatError(f"missing {field}")
    return ReportDocument(data)
