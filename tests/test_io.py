import json
import time

import pytest

from dessins import (
    ReportFormatError,
    build_document,
    classify,
    parse_report,
    serialize_report,
    wilson_orbit_targets,
)
from dessins.classify import ClassificationReport
from dessins.io import ReportDocument, serialize_document

from conftest import load_bipartite


def test_json_round_trip(a4_report):
    text = serialize_report(a4_report.report, "json")
    doc = parse_report(text)
    assert serialize_document(doc, "json") == text
    again = parse_report(serialize_document(doc, "json"))
    assert again == doc


# one report per fixtures/*.bg; Frucht without monodromy leaves it None
EVERY_BG_REPORT = [
    "a4_report", "c33_report", "d33_report", "dp_report",
    "frucht_light_report", "k33_report", "k33_clean_report", "k5_report",
]


def test_json_writer_equals_json_dumps_on_every_fixture(request):
    chiral = unknown_order = 0
    for name in EVERY_BG_REPORT:
        report = request.getfixturevalue(name).report
        for targets in (None, (1, 1, wilson_orbit_targets(report, 1, 1))):
            doc = build_document(report, targets)
            assert serialize_document(doc, "json") == json.dumps(doc.data, indent=2) + "\n"
        chiral += sum(r.mirror_partner is not None for r in report.records)
        unknown_order += sum(r.invariants.monodromy_order is None for r in report.records)
    assert chiral and unknown_order


@pytest.mark.parametrize("data", [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    {"ints": [1, -2, 10**30], "mixed": [1, True, None, "x"], "bools": [True, False]},
    {"text": "quote\" back\\ tab\t nl\n \u00e9 \U0001f600 \x00", "\u00e9": "key"},
    {"float": 1.5, "tuple": (1, 2), "nested": {"deep": [0.25, {"k": (None,)}]}},
    {1: "int key", None: "none key"},
    [{"int key below": {2: [3]}}, "after"],
])
def test_json_writer_equals_json_dumps_on_any_value(data):
    assert serialize_document(ReportDocument(data), "json") == json.dumps(data, indent=2) + "\n"


def test_record_order_is_total(k33_report):
    doc = parse_report(serialize_report(k33_report.report, "json"))
    keys = [
        (r["genus"], r["passport"]["faces"], r["sigma"], r["tau"])
        for r in doc.records
    ]
    assert keys == sorted(keys)


def test_empty_records_serialize():
    base = classify(load_bipartite("k33.bg"))
    empty = ClassificationReport(
        graph=base.graph,
        group=base.group,
        theta=base.theta,
        group_order=base.group_order,
        candidate_count=base.candidate_count,
        records=(),
        genus_histogram={},
        dualizable_histogram={},
    )
    doc = parse_report(serialize_report(empty, "json"))
    assert doc.records == []


def test_k33_table_rows(k33_report):
    text = serialize_report(k33_report.report, "table")
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header, *rows = lines
    assert header.split()[:2] == ["Graph", "Genus"]
    assert len(rows) == 4
    genera = [int(r.split()[1]) for r in rows]
    assert genera == [1, 1, 2, 2]


def test_csv_and_table_counts_match_json(k5_report):
    doc = parse_report(serialize_report(k5_report.report, "json"))
    csv = serialize_report(k5_report.report, "csv")
    table = serialize_report(k5_report.report, "table")
    assert len(csv.splitlines()) - 1 == len(doc.records)  # header row
    table_rows = [l for l in table.splitlines() if l and not l.startswith("#")]
    assert len(table_rows) - 1 == len(doc.records)


def test_distinct_reports_distinct_bytes(a4_report, k33_report):
    assert serialize_report(a4_report.report, "json") != serialize_report(
        k33_report.report, "json"
    )


def test_monodromy_orders_are_strings(k5_report):
    doc = json.loads(serialize_report(k5_report.report, "json"))
    orders = {r["monodromy_order"] for r in doc["records"]}
    assert all(isinstance(o, str) for o in orders)
    assert "26336378880000" in orders
    assert doc["graph"]["candidate_count"] == "7776"


def test_parse_rejects_bad_version(a4_report):
    doc = json.loads(serialize_report(a4_report.report, "json"))
    doc["schema_version"] = "99"
    with pytest.raises(ReportFormatError, match="schema_version"):
        parse_report(json.dumps(doc))


def test_parse_rejects_corrupt_cycles(a4_report):
    doc = json.loads(serialize_report(a4_report.report, "json"))
    doc["records"][1]["sigma"] = "(1,99)"
    with pytest.raises(ReportFormatError, match="record 1"):
        parse_report(json.dumps(doc))


def test_parse_rejects_missing_fields(a4_report):
    doc = json.loads(serialize_report(a4_report.report, "json"))
    del doc["records"][0]["tau"]
    with pytest.raises(ReportFormatError, match="record 0.*tau"):
        parse_report(json.dumps(doc))
    with pytest.raises(ReportFormatError, match="not valid JSON"):
        parse_report("{nope")


def _set_monodromy_order(doc, value):
    doc["records"][0]["monodromy_order"] = value


def _set_graph_e(doc, value):
    doc["graph"]["e"] = value


def _set_record(doc, value):
    doc["records"][0] = value


def _set_sigma(doc, value):
    doc["records"][0]["sigma"] = value


def _set_tau(doc, value):
    doc["records"][0]["tau"] = value


def _set_aut_generators(doc, value):
    doc["records"][0]["aut_generators"] = value


@pytest.mark.parametrize("corrupt, value", [
    (_set_monodromy_order, "abc"),
    (_set_monodromy_order, [6]),
    (_set_graph_e, "9"),
    (_set_graph_e, 300),
    (_set_graph_e, True),
    (_set_record, ["not", "an", "object"]),
    (_set_record, 7),
    (_set_sigma, 5),
    (_set_sigma, None),
    (_set_sigma, ["(", ")"]),
    (_set_tau, {"a": 1}),
    (_set_aut_generators, [[6]]),
    (_set_aut_generators, 6),
])
def test_parse_rejects_malformed_values_with_record_index(k33_report, corrupt, value):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    corrupt(doc, value)
    with pytest.raises(ReportFormatError, match="^record 0"):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("path, message", [
    (None, "top level must be an object"),
    (("graph",), "missing graph section"),
    (("graph", "alpha"), "graph section missing 'alpha'"),
    (("records",), "missing records list"),
    (("genus_histogram",), "missing genus_histogram"),
    (("dualizable_histogram",), "missing dualizable_histogram"),
])
def test_parse_rejects_missing_sections(k33_report, path, message):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    if path is None:
        doc = [doc]
    else:
        *parents, last = path
        section = doc
        for key in parents:
            section = section[key]
        del section[last]
    with pytest.raises(ReportFormatError, match=f"^{message}$"):
        parse_report(json.dumps(doc))


def test_serialize_rejects_unknown_format(k33_report):
    doc = build_document(k33_report.report)
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        serialize_document(doc, "xml")


def test_parse_rejects_bad_graph_e_without_records(k33_report):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    doc["records"] = []
    assert parse_report(json.dumps(doc)).records == []
    for value in ("zz", 0, 256, None):
        doc["graph"]["e"] = value
        with pytest.raises(ReportFormatError, match=r"^graph e .* is not in 1\.\.255$"):
            parse_report(json.dumps(doc))


def test_parse_checks_a_repeated_string_in_every_record(frucht_light_report):
    doc = json.loads(serialize_report(frucht_light_report.report, "json"))
    # a clean graph has one tau, which every record repeats
    assert len({r["tau"] for r in doc["records"]}) == 1
    doc["records"][5]["sigma"] = doc["records"][3]["sigma"]
    parse_report(json.dumps(doc))
    doc["records"][7]["tau"] = doc["records"][3]["sigma"] + "(1,2)"
    with pytest.raises(ReportFormatError, match="^record 7: bad tau cycle string"):
        parse_report(json.dumps(doc))


def test_large_report_parses_quickly(dp_drawing_report):
    text = serialize_report(dp_drawing_report.report, "json")
    t0 = time.monotonic()
    doc = parse_report(text)
    elapsed = time.monotonic() - t0
    assert len(doc.records) == 5946
    assert elapsed < 5.0


def test_wilson_field_serialized(k33_report):
    from dessins import wilson_orbit_targets

    targets = wilson_orbit_targets(k33_report.report, 2, 2)
    text = serialize_report(k33_report.report, "json", wilson_targets=(2, 2, targets))
    doc = json.loads(text)
    for rec in doc["records"]:
        assert rec["wilson"]["r"] == 2
        assert rec["wilson"]["target_orbit_id"] == rec["orbit_id"]
