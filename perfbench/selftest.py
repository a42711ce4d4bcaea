"""Smoke test of the benchmark itself (about a minute on 2 CPUs).

    python3 perfbench/selftest.py

From the repository root.  For each workload it makes a short untraced and a
short traced run and asserts that the last line carries exactly the metrics
``BENCHMARK.json`` names, each with its unit, and that every op passed.  It
then runs each workload with one coefficient of every op's result perturbed
and asserts the perturbation is counted as a failed op.  Last, it checks that
the benchmark refuses to run where there are no liefact sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SMOKE_SECONDS = "2"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert spec["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
    for m in layers:
        assert set(m["on"] + m["unchanged_on"]) <= set(bench.WORKLOADS), m["name"]
        assert set(m["moves"]) <= set(bench.END_TO_END) | set(bench.REPORTED), m["name"]
    return spec


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], float) and math.isfinite(value["value"]), m["name"]
        if not trace:
            assert value["value"] > 0, m["name"]
    print(f"ok  {workload} trace={trace}: {result['attempted']} ops, {len(got)} metrics")


def check_corruption(workload: str) -> None:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--corrupt"],
                          cwd=ROOT, env=bench.worker_env(), capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["failed"] >= 1, result
    print(f"ok  {workload} corrupted: {result['failed']} of {result['attempted']} ops failed")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               bench.WORKLOADS[0], "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without liefact sources")


def main() -> int:
    spec = check_spec()
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
        check_corruption(workload)
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
