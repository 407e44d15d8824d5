"""Smoke test: the whole harness on 1/20 of the work.

Collected by the existing ``pytest benchmarks -q --benchmark-disable`` CI
step (tier-1's ``testpaths = tests`` never sees it).  It checks that
every workload runs both passes, answers correctly, and reports exactly
the metrics ``BENCHMARK.json`` names — not how fast anything is.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_quick_suite_reports_every_metric_of_every_workload():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = json.loads((HERE / "results" / "latest.json").read_text(encoding="utf-8"))
    wanted = {
        "end_to_end": {metric["name"] for metric in spec["end_to_end"]},
        "trace": {metric["name"] for metric in spec["per_layer"]},
    }
    for workload in spec["workloads"]:
        passes = report["workloads"][workload["name"]]
        for which, names in wanted.items():
            result = passes[which]
            assert set(result["metrics"]) == names
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 10
        for name, cell in passes["end_to_end"]["metrics"].items():
            assert cell["value"] > 0, (workload["name"], name)
    served = report["workloads"]["served_closed"]["trace"]["metrics"]
    assert served["serving.server.overhead_us"]["value"] > 0
    assert served["serving.server.ping_rtt_us"]["value"] > 0


def test_single_pass_prints_the_result_object_last():
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick",
            "--workload", "churn_mix", "--seed", "7", "--seconds", "0", "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
