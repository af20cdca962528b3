"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

Runs each workload once for a short time and checks the shape of its result,
and checks that the seeded inputs are reproducible.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["corpus", "tower", "completion"])
def test_same_seed_same_fingerprint(workload):
    first = inputs.fingerprint(inputs.make_inputs(workload, 7))
    assert inputs.fingerprint(inputs.make_inputs(workload, 7)) == first
    assert inputs.fingerprint(inputs.make_inputs(workload, 8)) != first


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("detail: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):]), proc.stdout


@pytest.mark.parametrize("workload", ["corpus", "tower", "completion"])
def test_workload_runs_clean(workload):
    result, detail, text = run_bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
        assert f"{spec['name']}: " in text
    assert result["failed"] == 0 and result["correct"] is True
    assert detail["failed_frac"] == 0 and "failed_frac: 0 ratio" in text
    assert detail["inputs_fingerprint"] == inputs.fingerprint(inputs.make_inputs(workload, 3))
    if workload == "completion":
        # The recursive dyadic routines fail past about 490 constructors: the
        # probe must show that, and only as RecursionError.
        probe = detail["deep_dyadic_probe"]
        assert probe["recursion_failed"] and min(probe["recursion_failed"]) >= 400
        assert probe["wrong"] == []


def test_traced_run_reports_every_layer_metric():
    result, detail, _ = run_bench("corpus", 1)
    assert [m for m in result["metrics"]] == [s["name"] for s in SPEC["per_layer"]]
    assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9
    assert result["metrics"]["waybelow.way_below.enumerated.calls"]["value"] > 0
