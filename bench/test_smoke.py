"""Smoke test of the benchmark: every workload, check and metric at toy sizes.

Keeps the harness from rotting: the commands below are the ones a full run
uses, only the sizes shrink (run.py --smoke).
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    result = _run("all", 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"]:
            got = result["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer_metric_and_repeatable_counts():
    first = _run("all", 1)
    assert first["correct"]
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in SPEC["workloads"]:
        got = {k.split(".", 1)[1]: v["unit"] for k, v in first["metrics"].items()
               if k.startswith(w["name"] + ".")}
        assert got == names
    again = _run("deep_orbits", 1)
    for name, unit in names.items():
        if unit == "count":
            assert again["metrics"][name] == first["metrics"][f"deep_orbits.{name}"], name
