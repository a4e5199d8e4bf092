"""Tests of the benchmark: smoke runs of every workload and the steadiness comparison."""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import steadiness  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_smoke_sets_are_correct_and_complete():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "steadiness.py"), "--smoke"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    result = steadiness.run_once(workload, seed=3, seconds=0.2, smoke=True, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def _runs(values, setup=0.2):
    return [{"correct": True, "failed": 0,
             "metrics": {"wall_s": {"value": v}, "setup_s": {"value": setup}}}
            for v in values]


SPEC_TWO = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def test_compare_accepts_steady_sets():
    sets = [{"w": _runs([1.0, 1.01, 0.99, 1.0, 1.02])},
            {"w": _runs([1.01, 1.0, 0.98, 1.02, 1.0])}]
    rows, problems = steadiness.compare(sets, SPEC_TWO)
    assert problems == []
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_compare_rejects_wide_spread_but_not_for_setup():
    sets = [{"w": _runs([1.0, 1.5, 0.7, 1.2, 0.9], setup=0.2)},
            {"w": _runs([1.0, 1.5, 0.7, 1.2, 0.9], setup=0.2)}]
    sets[0]["w"][0]["metrics"]["setup_s"]["value"] = 0.9
    _, problems = steadiness.compare(sets, SPEC_TWO)
    assert problems and all(p.startswith("w/wall_s: spread") for p in problems)


def test_compare_rejects_a_slower_second_set_and_incorrect_runs():
    sets = [{"w": _runs([1.0, 1.0, 1.01, 0.99])}, {"w": _runs([1.2, 1.2, 1.21, 1.19])}]
    sets[1]["w"][0]["correct"] = False
    del sets[1]["w"][1]["metrics"]["setup_s"]
    _, problems = steadiness.compare(sets, SPEC_TWO)
    assert any("w/wall_s: medians differ by +0.2" in p for p in problems)
    assert any("incorrect run" in p for p in problems)
    assert any("missing metrics ['setup_s']" in p for p in problems)


def test_compare_rejects_a_faster_second_set():
    sets = [{"w": _runs([1.0, 1.0, 1.01, 0.99], setup=0.2)},
            {"w": _runs([0.8, 0.8, 0.81, 0.79], setup=0.1)}]
    _, problems = steadiness.compare(sets, SPEC_TWO)
    assert sorted(problems) == ["w/setup_s: medians differ by -0.500",
                                "w/wall_s: medians differ by -0.200"]


def test_traced_run_counts_a_raising_call_as_failed(monkeypatch, capsys):
    import run

    def order(self):
        raise RuntimeError("order refused")

    monkeypatch.setattr(run.load_layers().permgroup.PermGroup, "order", order)
    run.main(["--workload", "monodromy", "--seed", "1", "--seconds", "0.2",
              "--trace", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["fail_ratio"]["value"] == 1.0
