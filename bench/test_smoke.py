"""Smoke test of the benchmark harness at a tiny scene size.

Every workload runs through the gate, the kernel oracle, the setup probes
and the traced run in a few seconds. Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spec  # noqa: E402

run.import_package(ROOT)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_tiny_workload_is_correct_and_complete(name, trace):
    result = run.run(name, seed=3, seconds=0.2, trace=trace, root=ROOT, tiny=True,
                     log=lambda msg: None)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= spec.POOL_SIZE
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m["name"] for m in table]
    for m in table:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    for w in doc["workloads"]:
        assert f"n={spec.WORKLOADS[w['name']]['points']}" in w["why"]
    assert doc["end_to_end"] == spec.END_TO_END
    assert doc["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in spec.PER_LAYER
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
