"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root: python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

GOLDEN = json.loads(bench.GOLDEN.read_text())
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_spans_leave_digests_unchanged(name, tmp_path):
    wl = bench.WORKLOADS[name]
    argv = bench.cli_argv(wl.variant(smoke=True, setup=False), 0)
    deadline = perf_counter() + 120
    plain = bench.invoke(argv, tmp_path, wl.artifacts, deadline)
    traced = bench.invoke(argv, tmp_path, wl.artifacts, deadline, traced=True)
    assert plain.rc == traced.rc == 0
    assert plain.digest == traced.digest == GOLDEN[name]["smoke"]
    spans = traced.spans
    assert spans["calls"]["cli.main"] == 1
    # self times partition the root span
    assert sum(spans["self_s"].values()) == pytest.approx(spans["total_s"]["cli.main"])


def test_forced_nonzero_exit_counts_as_failure():
    wl = bench.WORKLOADS["mc-verify"]
    broken = dataclasses.replace(wl, args=bench.with_flags(wl.args, {"--d": "0"}))
    out = bench.measure(broken, seed=0, seconds=0.1, trace=False, smoke=True, golden=None)
    checker = out["checker"]
    assert checker.attempted >= 7
    assert len(checker.failures) == checker.attempted
    assert all("exit code 2 (error: need d, width" in f for f in checker.failures)
    assert out["detail"]["fail_ratio"] == 1.0


def test_forced_traced_failure_still_prints_result(monkeypatch, capsys):
    wl = bench.WORKLOADS["mc-verify"]
    broken = dataclasses.replace(wl, args=bench.with_flags(wl.args, {"--d": "0"}))
    monkeypatch.setitem(bench.WORKLOADS, "mc-verify", broken)
    rc = bench.main(["--workload", "mc-verify", "--seed", "0", "--seconds", "0.1",
                     "--trace", "1", "--smoke"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert {k: v["value"] for k, v in result["metrics"].items()} == \
        {m["name"]: None for m in SPEC["per_layer"]}


def test_forced_digest_mismatch_counts_as_failure():
    golden = {"full": "0" * 64, "setup": GOLDEN["mc-verify"]["smoke-setup"]}
    out = bench.measure(bench.WORKLOADS["mc-verify"], seed=0, seconds=0.1, trace=False,
                        smoke=True, golden=golden)
    checker = out["checker"]
    fulls = out["detail"]["samples"]["wall_s"]["n"]
    assert checker.failures == [f"full: digest {GOLDEN['mc-verify']['smoke'][:12]} != 000000000000"] * fulls
    assert out["detail"]["fail_ratio"] == fulls / checker.attempted


@pytest.mark.parametrize("trace,seed", [(0, 0), (1, 7)])
def test_result_line_follows_benchmark_json(trace, seed):
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "estimate-replace",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    detail = json.loads(detail)["detail"]
    assert detail["fail_ratio"] == 0.0
    assert (detail["digests"]["full"] == GOLDEN["estimate-replace"]["smoke"]) == (seed == 0)
    if trace:
        assert result["metrics"]["data.neighbors.capped"]["value"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc-verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
