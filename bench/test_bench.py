"""Tests of the benchmark itself.  They run traced passes, so they are slow
(about a minute) and live apart from the package's test suite:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from tracer import LAYERS
from workloads import WORKLOADS, check_outputs, ks_statistic

BENCH = Path(bench.__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced passes of every workload at seed 0, each in its own interpreter."""
    runs = {}
    for name in WORKLOADS:
        run = bench.Run(name, 0, tmp_path_factory.mktemp(name))
        run.run_pass(traced=True)
        run.run_pass(traced=True)
        runs[name] = run
    return runs


def _counts(record: dict) -> dict:
    values = {k: v for k, v in record["layers"].items() if k.endswith(".calls")}
    values.update(record["counts"])
    values.update(csv_rows=record["csv_rows"], csv_bytes=record["csv_bytes"], spans=record["spans"])
    return values


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_across_traced_runs(traced_runs, name):
    first, second = traced_runs[name].passes
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_sum_to_traced_pass_time(traced_runs, name):
    for record in traced_runs[name].passes:
        pass_time = sum(c["wall_s"] for c in record["commands"])
        self_total = math.fsum(record["layers"][f"{layer}.self_s"] for layer in LAYERS)
        assert self_total == pytest.approx(pass_time, rel=1e-9)
        assert record["layers"]["cli.busy_s"] == pytest.approx(pass_time, rel=1e-9)


@pytest.mark.parametrize("name", WORKLOADS)
def test_rng_sites_equal_env_sites(traced_runs, name):
    for record in traced_runs[name].passes:
        assert record["counts"]["rng.sites"] == record["counts"]["env.sites"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_failures_at_seed(traced_runs, name):
    run = traced_runs[name]
    assert run.attempted == 2 * len(run.workload.commands)
    assert run.failed == 0, run.problems
    assert run.correct, run.problems


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "env-average", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 3 and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)
    for name, unit in bench.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk-long", "--seed", "0",
         "--seconds", "10", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_ks_statistic_with_ties():
    assert ks_statistic([1, 1, 3], [1, 3, 3]) == pytest.approx(1.0 / 3.0)
    assert ks_statistic([1, 2], [3, 4]) == 1.0
    assert ks_statistic([5, 7, 9], [9, 7, 5]) == 0.0


def _row(quantity, value="", std_error="", **extra):
    row = dict(quantity=quantity, param="", value=value, std_error=std_error, error_budget="",
               remainder_heuristic="", converged="", n="", method="", seed="")
    row.update(extra)
    return row


def test_checks_reject_a_wrong_speed():
    good = {"speed_fixa": [_row("speed", repr(13 / 35), "0.001")],
            "speed_const": [_row("speed", "0.4003", "0.0003")]}
    assert check_outputs("walk-long", good) == {"speed_fixa": [], "speed_const": []}
    bad = dict(good, speed_const=[_row("speed", "0.402", "0.0003")])
    assert check_outputs("walk-long", bad)["speed_const"]
