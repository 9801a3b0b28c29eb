"""Self-test of the benchmark: result schema, metric names and units.

Runs every workload in smoke mode, untraced and traced, and checks the
last output line against ``BENCHMARK.json``.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_spec():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200

    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    assert e2e == spec.END_TO_END
    assert e2e["setup_s"][:2] == ("s", "lower")
    assert max(b for _, _, b in e2e.values()) == e2e["setup_s"][2] <= 0.25
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layers == {name: (unit, better) for name, (unit, better, _) in spec.PER_LAYER.items()}

    names = [w["name"] for w in bench["workloads"]] + list(e2e) + list(layers)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u, _, _ in e2e.values())
    assert all(UNIT.match(u) for u, _ in layers.values())


def parse_result(proc):
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["ring", "tfim", "entropy"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"
    )
    result = parse_result(proc)
    bench = load_benchmark()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], float) and math.isfinite(reported["value"])
    assert proc.stdout.startswith("env {")
    env = json.loads(proc.stdout.splitlines()[0][4:])
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "commit", "seed"} <= set(env)
    assert env["seed"] == 3

    if trace:
        with np.load(BENCH / "out" / f"trace-{workload}-seed3.npz") as spans:
            assert {"names", "name", "start", "end", "parent", "run"} <= set(spans.files)
            assert np.all(spans["end"] >= spans["start"])
            assert np.all(spans["parent"] < np.arange(spans["parent"].size))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if workload == "entropy":
            assert metrics["transport.sinkhorn_ms"] == 0.0
        else:
            assert metrics["transport.sinkhorn_iters_p50"] >= 1
        assert metrics["generator.gate_calls"] > 0


def test_same_seed_gives_same_outputs():
    first = run_bench("--workload", "tfim", "--seed", "5", "--seconds", "1", "--smoke")
    second = run_bench("--workload", "tfim", "--seed", "5", "--seconds", "1", "--smoke")
    fit = [line for line in first.stdout.splitlines() if "fit_error" in line]
    assert fit and fit == [line for line in second.stdout.splitlines() if "fit_error" in line]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "ring", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
