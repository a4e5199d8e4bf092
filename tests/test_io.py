import json
import re
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

import cycles_oracle
from conftest import EVERY_BG_REPORT, load_bipartite


def parse_and_write(text):
    """``parse_report`` of ``text``, once its document writes as CSV and table."""
    doc = parse_report(text)
    serialize_document(doc, "csv")
    serialize_document(doc, "table")
    return doc


def test_json_round_trip(request):
    # every fixture's report, chiral partners among them
    for name in EVERY_BG_REPORT:
        text = serialize_report(request.getfixturevalue(name).report, "json")
        doc = parse_report(text)
        assert serialize_document(doc, "json") == text
        again = parse_report(serialize_document(doc, "json"))
        assert again == doc


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
    # keys that a % format would read as conversions
    {"%": 1, "%s": "%s", "a%%b": {"%(x)s": [1, 2]}, "%d": [{"%": None}]},
    # dicts in one list with different key sets and orders, and empty ones
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1}, {}, {"a": 1, "b": 2, "c": {}}, {}],
    [{}, {}],
    # one key set at three depths
    {"a": {"a": {"a": 1}}, "b": [{"a": 2}, [{"a": 3}]]},
    # one int list at two depths, and beside bools that hash like ints
    {"x": [1, 2, 3], "y": {"x": [1, 2, 3]}, "z": [[1, 2, 3], [1, 2, 3]]},
    [[1, 0], [True, False], [1, False], [True, 0], [1, 0]],
    {"a": [1], "b": [True], "c": {"a": [True], "b": [1]}},
    # non-string keys that hash alike: 1, True and 1.0
    [{1: "a"}, {True: "a"}, {1.0: "a"}, {"1": "a"}],
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


def _del_record_field(field):
    def corrupt(doc, value):
        del doc["records"][0][field]
    return corrupt


def _set_record_field(field):
    def corrupt(doc, value):
        doc["records"][0][field] = value
    return corrupt


def _set_graph_field(field):
    def corrupt(doc, value):
        doc["graph"][field] = value
    return corrupt


PASSPORT = "^record 0: passport is not three lists of degrees$"
MIRROR = "^record 0: mirror is not reflexive or chiral with a partner$"


# each of these parsed before, and then made the CSV or the table writer raise
@pytest.mark.parametrize("corrupt, value, message", [
    (_del_record_field("regular"), None, "^record 0 missing 'regular'$"),
    (_del_record_field("uniform"), None, "^record 0 missing 'uniform'$"),
    (_del_record_field("dualizable"), None, "^record 0 missing 'dualizable'$"),
    (_set_record_field("passport"), "(2^3;3^2;6)", PASSPORT),
    (_set_record_field("passport"), {"black": [2, 2, 2], "white": [3, 3]}, PASSPORT),
    (_set_record_field("passport"), {"black": 2, "white": [3, 3], "faces": [6]}, PASSPORT),
    (_set_record_field("mirror"), {}, MIRROR),
    (_set_record_field("mirror"), "reflexive", MIRROR),
    (_set_record_field("mirror"), {"status": "chiral"}, MIRROR),
    (_set_record_field("mirror"), {"status": "twisted", "partner_orbit_id": 1}, MIRROR),
    (_set_record_field("monodromy_order"), 12, "^record 0: bad monodromy_order 12$"),
    (_set_record_field("monodromy_order"), "", "^record 0: bad monodromy_order ''$"),
    (_set_graph_field("black_degrees"), 3, "^graph black_degrees is not a list$"),
    (_set_graph_field("white_degrees"), "3,3", "^graph white_degrees is not a list$"),
], ids=[
    "no-regular", "no-uniform", "no-dualizable", "passport-text", "passport-without-faces",
    "passport-int-list", "mirror-empty", "mirror-text", "chiral-without-partner",
    "mirror-unknown-status", "monodromy-order-int", "monodromy-order-empty",
    "black-degrees-int", "white-degrees-text",
])
def test_parse_rejects_what_the_writers_cannot_write(k33_report, corrupt, value, message):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    corrupt(doc, value)
    with pytest.raises(ReportFormatError, match=message):
        parse_report(json.dumps(doc))
    # a report without records reads no record field
    if message.startswith("^graph"):
        doc["records"] = []
        with pytest.raises(ReportFormatError, match=message):
            parse_report(json.dumps(doc))


def test_parse_accepts_what_the_writers_can_write(k33_report):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    rec = doc["records"][0]
    rec["mirror"] = {"status": "chiral", "partner_orbit_id": 1}
    rec["monodromy_order"] = None
    rec["passport"] = {"black": [], "white": ["x"], "faces": [[1]]}
    doc["records"][1]["mirror"] = {"status": "reflexive", "partner_orbit_id": 0}
    # record 0's partner, orbit 1, names it back
    doc["records"][2]["mirror"] = {"status": "chiral", "partner_orbit_id": 3}
    doc["graph"]["black_degrees"] = []
    row = serialize_document(parse_and_write(json.dumps(doc)), "csv").splitlines()[1].split(",")
    assert (row[4], row[5], row[9]) == ("", '"(;x;[1])"', "chiral->1")


def test_parse_refuses_repeated_ids_and_unpaired_partners(k33_report):
    # k33's records 0, 1 and 2 hold orbits 3, 0 and 1, all reflexive
    doc = json.loads(serialize_report(k33_report.report, "json"))
    records = doc["records"]
    records[0]["mirror"] = {"status": "chiral", "partner_orbit_id": 999}
    records[1]["orbit_id"] = records[2]["orbit_id"]
    with pytest.raises(ReportFormatError, match="^record 2: orbit_id 1 is also that of record 1$"):
        parse_report(json.dumps(doc))
    records[1]["orbit_id"] = 0
    with pytest.raises(ReportFormatError, match="^record 0: partner_orbit_id 999 names no other"):
        parse_report(json.dumps(doc))


UNPAIRED = "names no other chiral record whose partner is this one$"


@pytest.mark.parametrize("mirrors, message", [
    # record 0 names itself
    ({0: ("chiral", 3)}, f"^record 0: partner_orbit_id 3 {UNPAIRED}"),
    # record 0 names orbit 1, which is reflexive
    ({0: ("chiral", 1)}, f"^record 0: partner_orbit_id 1 {UNPAIRED}"),
    # record 0 names orbit 0, whose partner is orbit 1
    ({0: ("chiral", 0), 1: ("chiral", 1), 2: ("chiral", 0)},
     f"^record 0: partner_orbit_id 0 {UNPAIRED}"),
    # orbit 0 names record 0 back with an id that is not an int
    ({0: ("chiral", 0), 1: ("chiral", 3.0)}, f"^record 1: partner_orbit_id 3.0 {UNPAIRED}"),
    ({0: ("chiral", True), 2: ("chiral", 3)}, f"^record 0: partner_orbit_id True {UNPAIRED}"),
    ({0: ("chiral", "1"), 2: ("chiral", 3)}, f"^record 0: partner_orbit_id '1' {UNPAIRED}"),
    ({0: ("chiral", [1])}, rf"^record 0: partner_orbit_id \[1\] {UNPAIRED}"),
])
def test_parse_refuses_chiral_partners_that_do_not_pair(k33_report, mirrors, message):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    for i, (status, partner) in mirrors.items():
        doc["records"][i]["mirror"] = {"status": status, "partner_orbit_id": partner}
    with pytest.raises(ReportFormatError, match=message):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None, [1]])
def test_parse_refuses_an_orbit_id_that_is_not_an_int(k33_report, value):
    doc = json.loads(serialize_report(k33_report.report, "json"))
    doc["records"][0]["orbit_id"] = value
    message = f"^record 0: orbit_id {re.escape(repr(value))} is not an int$"
    with pytest.raises(ReportFormatError, match=message):
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
    assert parse_and_write(json.dumps(doc)).records == []
    for value in ("zz", 0, 257, None):
        doc["graph"]["e"] = value
        with pytest.raises(ReportFormatError, match=r"^graph e .* is not in 1\.\.256$"):
            parse_report(json.dumps(doc))


def test_parse_checks_a_repeated_string_in_every_record(frucht_light_report):
    doc = json.loads(serialize_report(frucht_light_report.report, "json"))
    # a clean graph has one tau, which every record repeats
    assert len({r["tau"] for r in doc["records"]}) == 1
    doc["records"][5]["sigma"] = doc["records"][3]["sigma"]
    parse_and_write(json.dumps(doc))
    doc["records"][7]["tau"] = doc["records"][3]["sigma"] + "(1,2)"
    with pytest.raises(ReportFormatError, match="^record 7: bad tau cycle string"):
        parse_report(json.dumps(doc))


# plain text, text only the character walk reads, and text it refuses
CYCLE_CORPUS = [
    "()", "(1)", "(1)(2)", "(1,2)(3,4,5)", "(9,1)", "(1,2,3,4,5,6,7,8,9)",
    " (1,2)", "(1,2) ", "( 1,2)", "(1 ,2)", "(1, 2)", "(1,2 )", "(1,2)\t(3,4)",
    "(01,2)", "(0,1)", "(1,10)", "(1,1)", "(1,2)(2,3)", "(\u0661,\u0662)", "(1,\uff12)",
    "(1,,2)", "((1,2))", "(1,2)(", "(1,2)3(4)", "", " ", "(", ")", "()()", "(1)()",
    "(,)", "(1,2)(3,4)(", "1,2", "(-1,2)", "(+1,2)", "(1.0,2)", "(256,1)",
]


@pytest.mark.parametrize("text", CYCLE_CORPUS)
def test_parse_report_checks_a_cycle_string_as_the_character_walk(k33_report, text):
    # e = 9: accepted or refused as the character walk would, with its message
    doc = json.loads(serialize_report(k33_report.report, "json"))
    doc["records"][0]["sigma"] = text
    doc["records"][1]["tau"] = text
    try:
        cycles_oracle.parse_cycles(text, 9)
        expected = None
    except ValueError as exc:
        expected = f"record 0: bad sigma cycle string: {exc}"
    try:
        parse_and_write(json.dumps(doc))
        outcome = None
    except ReportFormatError as exc:
        outcome = str(exc)
    assert outcome == expected


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
