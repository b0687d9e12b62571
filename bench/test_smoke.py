"""Smoke tests for the benchmark: every workload runs at minimal size and emits
every metric ``BENCHMARK.json`` declares, with its unit; the output checks
reject a forged table and a failed suite report; a step's time is its
fastest repeat; and the benchmark refuses to run without the sources.

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import mathref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(cwd, workload, trace, *extra):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_declared_metric(workload, trace):
    proc = _bench(ROOT, workload, trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def _g2(reflections, order3):
    """The G2 table (dihedral of order 12), optionally with counts moved about."""
    return {"type": "G2", "group_order": "12", "entries": [
        {"exps": {"1": 2}, "count": "1"},
        {"exps": {"1": 1, "2": 1}, "count": str(reflections)},
        {"exps": {"2": 2}, "count": "1"},
        {"exps": {"3": 1}, "count": str(order3)},
        {"exps": {"6": 1}, "count": "2"},
    ]}


def test_table_checks_reject_a_forged_table():
    assert mathref.table_problems((("G", 2),), _g2(6, 2)) == []
    assert "Shephard-Todd identity fails" in mathref.table_problems((("G", 2),), _g2(5, 3))


def test_suite_check_rejects_a_failed_report():
    types = len(mathref.semisimple_types(4, "ABDGFE"))
    assert workloads.check_determination_suite({"rank": 4}, {"ok": True, "types_checked": types}) == []
    assert workloads.check_determination_suite({"rank": 4}, {"ok": False, "types_checked": types})


def test_a_verify_that_exits_1_with_a_report_is_checked_not_failed():
    op = {"kind": "cli", "check": "determination_suite", "rank": 4, "items": 1}
    types = len(mathref.semisimple_types(4, "ABDGFE"))
    report = json.dumps({"ok": False, "types_checked": types})
    wrong = run.Pass()
    run._settle(wrong, op, run._cli_output(wrong, ["verify"], 1, report))
    assert wrong.problems and wrong.failed == 0
    rejected = run.Pass()
    run._settle(rejected, op, run._cli_output(rejected, ["verify"], 1, ""))
    assert rejected.failed == 1 and not rejected.problems


def test_fastest_steps_take_each_steps_minimum():
    a, b = run.Pass(), run.Pass()
    a.steps, b.steps = {"op0": 2.0, "op0.setup": 0.3}, {"op0": 1.5, "op0.setup": 0.4}
    assert run.fastest_steps([a, b]) == {"op0": 1.5, "op0.setup": 0.3}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
