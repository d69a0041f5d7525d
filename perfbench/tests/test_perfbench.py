"""Tests of the benchmark itself, on the seconds-long ``smoke`` workload.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import checks, harness, tracer  # noqa: E402


def _run_cli(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_declared_workloads_are_the_harness_workloads():
    declared = [(w["name"], w["why"]) for w in _declared()["workloads"]]
    assert declared == [(n, harness.WORKLOADS[n].why) for n in harness.BENCHMARK_WORKLOADS]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_declared_metric(trace, section):
    done = _run_cli(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1",
                    "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        line = next(l for l in lines if l.startswith(f"{name} = "))
        assert line.split()[3] == unit
        if trace == 0:
            assert "n=" in line, line
    assert any(l.startswith("failed_frac = 0.0") for l in lines)
    assert any(l.startswith("machine ") for l in lines)


def _drop_one_element(warm: str) -> None:
    (name,) = os.listdir(warm)
    path = os.path.join(warm, name)
    with open(path) as handle:
        body = json.load(handle)
    body["buckets"]["2"] = body["buckets"]["2"][1:]
    with open(path, "w") as handle:
        json.dump(body, handle, indent=2, sort_keys=True)


def _corrupt(warm: str) -> None:
    (name,) = os.listdir(warm)
    with open(os.path.join(warm, name), "w") as handle:
        handle.write("{not json")


@pytest.mark.parametrize("tamper", [_drop_one_element, _corrupt])
def test_tampered_cache_fails_the_session(tamper):
    result = harness.run_workload(ROOT, "smoke", 1, 1, False, after_setup=tamper)
    assert result.failed / result.attempted > 0
    assert any("cache file" in p for p in result.problems), result.problems


def test_wrong_pinned_value_fails_the_session(monkeypatch):
    monkeypatch.setitem(checks.PINNED_U, 2, {0: "1", 2: "5/4"})
    result = harness.run_workload(ROOT, "smoke", 1, 1, False)
    assert result.failed / result.attempted > 0
    assert any("U_2" in p for p in result.problems), result.problems


def test_traced_counts_repeat_exactly():
    runs = [harness.run_workload(ROOT, "smoke", seed, 1, True) for seed in (1, 2)]
    counts = [
        {n: v for n, (v, unit) in r.metrics.items() if unit in ("count", "bytes")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["sl2.translate_vertex_calls"] > 0
    assert counts[0]["spheres.poly_xgcd_calls"] == 63  # (2^3)^2 - 1 first rows at N = 2
    assert all(r.failed == 0 and not r.missing_targets for r in runs)


def test_checkout_without_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli(str(tmp_path), "--workload", "probes", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_growth_is_recomputed_not_trusted():
    assert checks.growth_problems([1, 2, 4, 8, 16], "x") == []
    assert checks.growth_problems([1, 1, 4, 8, 16], "x") == ["x: |B(1)| = 1 < 2^1"]
    assert checks.growth_problems([1, 2, 4, 8, 3], "x") == ["x: |B(4)| = 3 < 2^2"]


def test_self_time_subtracts_direct_children():
    lines = [
        {"name": "criterion.compression", "start": 0.0, "end": 10.0, "parent": None,
         "id": 0, "run": "a", "attrs": {"iterations": 5, "converged": False}},
        {"name": "sl2.translate_vertex", "start": 1.0, "end": 4.0, "parent": 0,
         "id": 1, "run": "a", "attrs": None},
        {"name": "sl2.locate", "start": 5.0, "end": 6.0, "parent": 0,
         "id": 2, "run": "a", "attrs": None},
        {"counter": "algebra.poly_gcd", "value": 7, "run": "a"},
    ]
    metrics, missing = tracer.reduce_spans(json.dumps(line) for line in lines)
    assert metrics["criterion.compression_s"] == 10.0
    assert metrics["criterion.compression_self_s"] == 6.0
    assert metrics["criterion.compression_power_iters"] == 5
    assert metrics["criterion.compression_unconverged"] == 1
    assert metrics["sl2.translate_vertex_calls"] == 1
    assert metrics["algebra.poly_gcd_calls"] == 7
    assert missing == []
