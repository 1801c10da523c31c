"""Smoke test of the benchmark itself: python3 -m pytest perfbench/test_run.py

Runs every workload at the tiny smoke size, untraced and traced, and checks
the result line against BENCHMARK.json; also checks that the output checker
catches corrupted outputs and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import Audit, Instance, check_mms_exact, check_report  # noqa: E402
from run import _tail  # noqa: E402
from workloads import WORKLOADS, build_pool  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "1":  # the layers' self times add up to the traced wall time
        assert 0.9 < result["metrics"]["trace.accounted_ratio"]["value"] <= 1.0


def test_tail_has_ten_samples_beyond_it_or_is_the_maximum():
    assert _tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    assert _tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_same_seed_same_pool():
    for workload in WORKLOADS:
        assert build_pool(workload, 9, "smoke") == build_pool(workload, 9, "smoke")
        assert build_pool(workload, 9, "smoke") != build_pool(workload, 10, "smoke")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


INSTANCE = json.dumps({
    "version": 1, "kind": "additive-goods", "n": 2, "m": 3,
    "values": [[4, "3/2", 1], [2, 2, 2]],
})


def _report(values, mms, satisfied, bundles=([0], [1, 2])):
    return {
        "kind": "additive-goods", "ok": False not in satisfied, "bundles": list(bundles),
        "agents": [
            {"agent": i, "value": values[i], "mms": mms[i], "mms_source": "exact",
             "ratio": None, "satisfied": satisfied[i]}
            for i in range(2)
        ],
    }


def test_checker_accepts_a_sound_report():
    inst = Instance(INSTANCE)
    report = _report(["4", "4"], ["5/2", "2"], [True, True])
    assert check_report(inst, report, 0, Audit()) == []


@pytest.mark.parametrize("report, rc", [
    (_report(["4", "5"], ["5/2", "2"], [True, True]), 0),  # wrong value
    (_report(["4", "4"], ["5/2", "2"], [True, True], ([0], [1])), 0),  # good 2 unassigned
    (_report(["4", "4"], ["4", "2"], [True, True]), 0),  # share above v(all)/n
    (_report(["4", "4"], ["5/2", "2"], [False, True]), 0),  # 'false' yet it holds
    (_report(["4", "4"], ["5/2", "2"], [True, True]), 2),  # exit code
])
def test_checker_catches_corrupted_reports(report, rc):
    assert check_report(Instance(INSTANCE), report, rc, Audit())


def test_checker_catches_a_witness_below_its_share():
    doc = {"agents": [
        {"agent": 0, "mms": "5/2", "witness": [[0], [1, 2]]},
        {"agent": 1, "mms": "7/2", "witness": [[0], [1, 2]]},
    ]}
    problems = check_mms_exact(Instance(INSTANCE), doc, 0)
    assert problems == ["agent 1 witness: reaches 2, reported share 7/2",
                        "agent 1: share 7/2 above the v(all)/n cap"]
