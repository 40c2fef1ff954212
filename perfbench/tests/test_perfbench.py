"""Smoke-size tests of the benchmark itself.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import stabcert.runner
from perfbench import worker
from perfbench.check import RunChecker
from perfbench.tracing import TARGETS, _original
from perfbench.workloads import WORKLOADS, run_one

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _measure(name: str, trace: bool) -> dict:
    wl = WORKLOADS[name]
    return worker.measure(wl, wl.load(), 7, 0.0, trace, min_runs=1)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_streams_are_seeded():
    wl = WORKLOADS["interactive_n6"]
    tpl = wl.load()
    first = list(itertools.islice(wl.stream(tpl, 3), 12))
    assert first == list(itertools.islice(wl.stream(tpl, 3), 12))
    assert first != list(itertools.islice(wl.stream(tpl, 4), 12))
    assert first != list(itertools.islice(wl.stream(tpl, -3), 12))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    plain = _measure(name, trace=False)
    assert plain["correct"] and plain["failed"] == 0
    got = {k: v["unit"] for k, v in plain["metrics"].items()}
    # setup_s is measured by the launcher around the whole worker.
    assert got == {k: u for k, u in _units("end_to_end").items() if k != "setup_s"}
    traced = _measure(name, trace=True)
    assert traced["correct"]
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == _units("per_layer")
    # The layer self times account for the traced loop's wall time.
    assert 0.9 < traced["metrics"]["trace.self_sum_frac"]["value"] <= 1.0


def test_launcher_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive_n6",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name, unit in _units("end_to_end").items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)


def test_launcher_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive_n6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_rejects_an_endpoint_moved_by_a_tenth():
    cfg = WORKLOADS["interactive_n6"].load()[0]
    trace = run_one(replace(cfg, seed=5))
    checker = RunChecker()
    assert checker.problems(trace) == []
    trace.rounds[-1].upper += 0.1
    assert checker.problems(trace)


def test_corrupted_solver_makes_the_benchmark_fail(monkeypatch):
    wl = WORKLOADS["interactive_n6"]
    templates = worker.set_up(wl)
    solve = stabcert.runner.solve_endpoints

    def corrupt(*args, **kwargs):
        res = solve(*args, **kwargs)
        return replace(res, upper=res.upper + 0.1)

    monkeypatch.setattr(stabcert.runner, "solve_endpoints", corrupt)
    result = worker.measure(wl, templates, 1, 0.0, False, min_runs=4)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 4


def test_traced_run_restores_the_originals():
    before = [_original(t) for t in TARGETS]
    result = _measure("interactive_n6", trace=True)
    assert result["metrics"]["polytope.solve.calls"]["value"] > 0
    assert all(_original(t) is fn for t, fn in zip(TARGETS, before))
