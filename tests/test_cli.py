import importlib
import io
import json
import time

import pytest

from dessins.cli import main
from dessins.perm import format_cycles

from conftest import complete_bipartite_text, fixture_path, run_capped, star_text

import corpus


def run(argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def kv(text):
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def test_classify_table_a4():
    code, out, err = run(["classify", fixture_path("a4_clean.bg"), "--emit", "table"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 1 + 3  # header + one row per class


def test_classify_json_k33():
    code, out, _ = run(["classify", fixture_path("k33.bg"), "--emit", "json", "--threads", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["records"]) == 4
    assert doc["graph"]["aut_group_order"] == 36


def test_classify_refuses_a_negative_thread_count():
    code, out, err = run(["classify", fixture_path("k33.bg"), "--threads", "-2"])
    assert (code, out, err) == (2, "", "error: --threads -2 is negative\n")


def test_classify_threads_passed_through(monkeypatch):
    # the library owns the thread count; the command line hands it on as given
    import dessins.cli

    seen = []
    real = dessins.cli.classify

    def recording(*args, **kwargs):
        seen.append(kwargs["threads"])
        return real(*args, **kwargs)

    monkeypatch.setattr(dessins.cli, "classify", recording)
    for threads in ("0", "2", "1"):
        code, _, err = run(["classify", fixture_path("k33.bg"), "--emit", "json",
                            "--threads", threads])
        assert (code, err) == (0, "")
    assert seen == [0, 2, 1]


def test_classify_any_thread_count_gives_the_same_bytes():
    outs = []
    for threads in ("0", "1", "2"):
        code, out, err = run(["classify", fixture_path("k33.bg"), "--emit", "json",
                              "--threads", threads])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("name", ["k5_clean.bg", "double_prism.bg"])
def test_duality_oracle_refuses_past_its_cap(name):
    # the oracle lists each monodromy group; these reach more than 10^6
    # elements, so the run is refused, not shortened by skipping records
    code, out, err = run(["classify", fixture_path(name), "--duality"])
    assert (code, out, err) == (3, "", "error: monodromy group exceeds oracle cap 1000000\n")


def test_classify_csv_counts():
    code, out, _ = run(["classify", fixture_path("d33.bg"), "--emit", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 4


def test_classify_threads_byte_identical():
    base = None
    for threads in ("1", "4"):
        code, out, _ = run(["classify", fixture_path("k33.bg"),
                            "--emit", "json", "--threads", threads])
        assert code == 0
        if base is None:
            base = out
        else:
            assert out == base


def test_classify_budget_exit_code():
    code, _, err = run(["classify", fixture_path("k5_clean.bg"), "--budget", "100"])
    assert code == 3
    assert "7776" in err


def test_classify_budget_env(monkeypatch):
    code, _, err = run(["classify", fixture_path("k5_clean.bg")],
                       env={"DESSIN_BUDGET": "100"}, monkeypatch=monkeypatch)
    assert code == 3


def test_classify_wilson_needs_two_exponents():
    code, out, err = run(["classify", fixture_path("k33.bg"), "--wilson", "1"])
    assert (code, out) == (2, "")
    assert err == "error: --wilson expects 'r,s', got '1'\n"


def test_classify_budget_env_not_an_integer(monkeypatch):
    code, out, err = run(["classify", fixture_path("k33.bg")],
                         env={"DESSIN_BUDGET": "abc"}, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: DESSIN_BUDGET is not an integer: 'abc'\n"


def test_negative_budget_is_refused_as_invalid(monkeypatch):
    # a negative budget is bad input (exit 2), not a refused search (exit 3)
    for argv, flag in ((["genus-range", fixture_path("k5.g"), "--budget", "-5"], "--budget -5"),
                       (["classify", fixture_path("k33.bg"), "--budget", "-1"], "--budget -1")):
        assert run(argv) == (2, "", f"error: {flag} is negative\n")
    for argv in (["genus-range", fixture_path("k5.g")], ["classify", fixture_path("k33.bg")]):
        assert run(argv, env={"DESSIN_BUDGET": "-1"}, monkeypatch=monkeypatch) == (
            2, "", "error: DESSIN_BUDGET -1 is negative\n")
    # zero still refuses every search
    code, out, err = run(["genus-range", fixture_path("k5.g"), "--budget", "0"])
    assert (code, out) == (3, "")
    assert err == "error: 1 search nodes exceed budget 0; exact search refused\n"


def test_classify_wilson_flag():
    code, out, _ = run(["classify", fixture_path("k33.bg"),
                        "--emit", "json", "--wilson", "2,2"])
    assert code == 0
    doc = json.loads(out)
    for rec in doc["records"]:
        assert rec["wilson"] == {"r": 2, "s": 2, "target_orbit_id": rec["orbit_id"]}


def test_classify_wilson_targets_computed_only_for_json(monkeypatch):
    # CSV and table carry no target, so they are not computed for them
    import dessins.cli

    emitted = []
    original = dessins.cli.wilson_orbit_targets

    def counted(report, r, s):
        emitted.append(emit)
        return original(report, r, s)

    monkeypatch.setattr(dessins.cli, "wilson_orbit_targets", counted)
    for emit in ("json", "csv", "table"):
        code, _, _ = run(["classify", fixture_path("k33.bg"), "--emit", emit, "--wilson", "2,2"])
        assert code == 0
    assert emitted == ["json"]


def test_classify_wilson_exponents_checked_before_classifying():
    # a4_clean has white degree 2, so s = 2 is not coprime to it, and an
    # exponent below 1 is no power operation; a budget that classify would
    # refuse (exit 3) shows that the exponents are checked first
    for exponents, fault in (("2,2", "2 is not a positive exponent prime to every white"),
                             ("0,1", "0 is not a positive exponent prime to every black")):
        code, out, err = run(["classify", fixture_path("a4_clean.bg"),
                              "--wilson", exponents, "--budget", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --wilson {exponents}: ")
        assert fault in err
        assert err.count("\n") == 1


def test_classify_duality_flag():
    code, out, err = run(["classify", fixture_path("d33.bg"), "--duality"])
    assert code == 0
    assert "duality oracle agreed" in err


def test_classify_unreadable_file():
    code, _, err = run(["classify", fixture_path("no_such_file.bg")])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["classify"],
    ["analyze", "--sigma", "()", "--tau", "()"],
    ["autgroup"],
    ["genus-range"],
])
def test_file_that_is_not_utf8_is_refused_as_bad_input(tmp_path, argv):
    bad = tmp_path / "bad.bg"
    bad.write_bytes(b"black a\nwhite b\nedge a b \xff\n")
    code, out, err = run([argv[0], str(bad), *argv[1:]])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_classify_malformed_file(tmp_path):
    bad = tmp_path / "bad.bg"
    bad.write_text("black a\nwhite w\nedge a a\n")
    code, _, err = run(["classify", str(bad)])
    assert code == 2


def test_analyze_a4_regular():
    code, out, _ = run([
        "analyze", fixture_path("a4_clean.bg"),
        "--sigma", corpus.A4["sigma3"], "--tau", corpus.A4["tau"],
    ])
    assert code == 0
    values = kv(out)
    assert values["genus"] == "0"
    assert values["regular"] == "true"
    assert values["monodromy_order"] == "12"
    assert values["aut_order"] == "12"
    assert values["mirror"] == "reflexive"


def test_analyze_k33_regular_class():
    code, out, _ = run([
        "analyze", fixture_path("k33.bg"),
        "--sigma", corpus.K33["sigma1"], "--tau", corpus.K33["tau1"],
    ])
    assert code == 0
    values = kv(out)
    assert values["genus"] == "1"
    assert values["aut_order"] == "9"
    assert values["face_permutation"] == corpus.K33["faces11"]


def test_analyze_single_edge(tmp_path):
    path = tmp_path / "edge.bg"
    path.write_text("black a\nwhite w\nedge 1 a w\n")
    code, out, _ = run(["analyze", str(path), "--sigma", "()", "--tau", "()"])
    assert code == 0
    values = kv(out)
    assert values["genus"] == "0"
    assert values["face_count"] == "1"


def test_analyze_builds_the_action_once(monkeypatch, c33_report):
    # one _Action answers the stabilizer and both least conjugates
    classify_module = importlib.import_module("dessins.classify")
    built = []
    real = classify_module._Action

    def counted(group, e):
        built.append(e)
        return real(group, e)

    monkeypatch.setattr(classify_module, "_Action", counted)
    assert {rec.mirror_status for rec in c33_report.records} == {"reflexive", "chiral"}
    for rec in c33_report.records:
        built.clear()
        code, out, _ = run([
            "analyze", fixture_path("c33.bg"),
            "--sigma", format_cycles(rec.representative.sigma),
            "--tau", format_cycles(rec.representative.tau),
        ])
        assert code == 0 and built == [9]
        values = kv(out)
        assert values["mirror"] == rec.mirror_status
        assert values["aut_order"] == str(rec.aut_order)


def test_analyze_rejects_foreign_pair():
    code, _, err = run([
        "analyze", fixture_path("k33.bg"),
        "--sigma", "(1,2,4)(3,5,6)(7,8,9)", "--tau", corpus.K33["tau1"],
    ])
    assert code == 2
    assert "vertex" in err


def test_analyze_rejects_bad_cycles():
    code, _, err = run([
        "analyze", fixture_path("k33.bg"), "--sigma", "(1,", "--tau", "()",
    ])
    assert code == 2


def test_autgroup():
    code, out, _ = run(["autgroup", fixture_path("frucht_clean.bg")])
    assert code == 0
    assert kv(out)["order"] == "1"
    code, out, _ = run(["autgroup", fixture_path("k5_clean.bg")])
    assert kv(out)["order"] == "120"
    code, out, _ = run(["autgroup", fixture_path("a4_clean.bg")])
    assert kv(out)["order"] == "24"


def run_cli_capped(argv, cpu_seconds=20):
    """``dessins`` in a capped child: exit code, stdout, stderr and wall seconds."""
    start = time.monotonic()
    code, out, err = run_capped(
        f"import sys\nfrom dessins.cli import main\nsys.exit(main({argv!r}))\n",
        cpu_seconds=cpu_seconds,
    )
    return code, out, err, time.monotonic() - start


def test_ten_leaf_star_refused_in_milliseconds(tmp_path):
    # |G| = 10! is over the element cap; the search counts it off 9
    # generators, so classify refuses before it lists an automorphism
    path = tmp_path / "star10.bg"
    path.write_text(star_text(10))
    code, out, err, seconds = run_cli_capped(["classify", str(path)])
    assert (code, out) == (3, "")
    assert err == "error: group order 3628800 exceeds enumeration cap 1000000\n"
    assert seconds < 2


@pytest.mark.parametrize("m, order, most", [(4, 576, 7), (5, 14400, 9)])
def test_autgroup_of_complete_bipartite_graphs_by_few_generators(tmp_path, m, order, most):
    # at most V - 1 generators, where every automorphism but the identity
    # would be |G| - 1 of them
    path = tmp_path / f"k{m}{m}.bg"
    path.write_text(complete_bipartite_text(m, m))
    code, out, err, _ = run_cli_capped(["autgroup", str(path)])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == [f"order: {order}", "generators:"]
    assert 0 < len(lines) - 2 <= most


def test_genus_range_cli():
    code, out, _ = run(["genus-range", fixture_path("k5.g")])
    assert code == 0
    assert kv(out)["mu"] == "1"
    code, out, _ = run(["genus-range", fixture_path("k33.g")])
    assert kv(out)["mu"] == "1"


def test_genus_range_histogram_flag():
    code, out, _ = run(["genus-range", fixture_path("frucht.g"), "--histogram"])
    assert code == 0
    keys = [l for l in out.splitlines() if l.startswith("genus[")]
    assert [k.split(":")[0] for k in keys] == [
        "genus[0]", "genus[1]", "genus[2]", "genus[3]"
    ]


def test_genus_range_budget_exit():
    code, _, _ = run(["genus-range", fixture_path("k5.g"), "--budget", "10"])
    assert code == 3


def test_genus_range_k6_and_refused_histogram():
    code, out, err = run(["genus-range", fixture_path("k6.g")])
    assert code == 0
    assert (kv(out)["mu"], kv(out)["nu"]) == ("1", "5")
    # the range is admitted, the histogram's 24^6 systems are not; nothing
    # of the range is printed then
    code, out, err = run(["genus-range", fixture_path("k6.g"), "--histogram"])
    assert code == 3
    assert out == ""
    assert "rotation systems exceed budget" in err
    code, out, err = run(["genus-range", fixture_path("k5.g"), "--budget", "10"])
    assert "search nodes exceed budget 10" in err


def test_python_m_dessins():
    import os
    import subprocess
    import sys

    import dessins

    src = os.path.dirname(os.path.dirname(dessins.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "dessins", "genus-range", fixture_path("k5.g")],
        capture_output=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert kv(proc.stdout.decode())["mu"] == "1"


def test_output_stable_across_hash_seeds():
    # report bytes must not depend on interpreter hash randomization
    import os
    import subprocess
    import sys

    import dessins

    # the child imports the package this process imported, also when only
    # pytest's own path setting points at it
    src = os.path.dirname(os.path.dirname(dessins.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # c33 is the small fixture with chiral mirror partners, and the (2, 2)
    # power operation moves some of its orbits
    for args in (["d33.bg"], ["c33.bg", "--wilson", "2,2"]):
        outputs = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-m", "dessins.cli", "classify",
                 fixture_path(args[0]), *args[1:], "--emit", "json", "--threads", "2"],
                capture_output=True, env=env, check=True,
            )
            outputs.add(proc.stdout)
        assert len(outputs) == 1


# '²' passes str.isdigit() but int() refuses it


def test_non_ascii_digit_refused_as_edge_label(tmp_path):
    path = tmp_path / "sq.bg"
    path.write_text("black a\nwhite w\nedge ² a w\n")
    code, out, err = run(["classify", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: line 3: edge label '²' is not an integer\n"


def test_non_ascii_digit_refused_in_cycle_notation(tmp_path):
    path = tmp_path / "cherry.bg"
    path.write_text("black a\nwhite w x\nedge 1 a w\nedge 2 a x\n")
    code, out, err = run(["analyze", str(path), "--sigma", "(1,²)", "--tau", "()"])
    assert (code, out) == (2, "")
    assert err == "error: bad permutation: expected a label (at position 3)\n"


def path_file(tmp_path, edges, bipartite):
    """A path with ``edges`` edges, as a .bg file or a .g file."""
    ids = [f"v{i}" for i in range(edges + 1)]
    if bipartite:
        lines = ["black " + " ".join(ids[0::2]), "white " + " ".join(ids[1::2])]
        ends = [(ids[i], ids[i + 1])[:: -1 if i % 2 else 1] for i in range(edges)]
    else:
        lines = ["vertex " + " ".join(ids)]
        ends = [(ids[i], ids[i + 1]) for i in range(edges)]
    lines += [f"edge {i} {u} {v}" for i, (u, v) in enumerate(ends, 1)]
    path = tmp_path / f"path{edges}.{'bg' if bipartite else 'g'}"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_label_limit_of_bipartite_graphs(tmp_path):
    for command in (["classify"], ["autgroup"]):
        code, out, err = run(command + [path_file(tmp_path, 256, True)])
        assert code == 0 and out and err == ""
        code, out, err = run(command + [path_file(tmp_path, 257, True)])
        assert (code, out) == (2, "")
        assert err == "error: 257 edges exceed the limit of 256 labels\n"


def test_edge_limit_of_genus_range(tmp_path):
    code, out, err = run(["genus-range", path_file(tmp_path, 128, False), "--histogram"])
    assert code == 0
    assert (kv(out)["mu"], kv(out)["nu"], kv(out)["genus[0]"]) == ("0", "0", "1")
    for flags in ([], ["--histogram"]):
        code, out, err = run(["genus-range", path_file(tmp_path, 129, False), *flags])
        assert (code, out) == (2, "")
        assert err.startswith("error: 129 edges exceed the limit of 128 ")
        assert err.count("\n") == 1
