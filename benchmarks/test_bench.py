"""Tests of the benchmark's own logic: self times, checks, smoke runs.

Run from the root of the repository:  python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import child
import itkrm
import run
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _tree(*rows):
    return [spans.Span(name, start, end, parent) for name, start, end, parent in rows]


def test_self_time_subtracts_children_once():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping) and [8, 9];
    # the second child has a grandchild [4, 5].
    tree = _tree(("root", 0.0, 10.0, None), ("a", 1.0, 3.0, 0),
                 ("b", 2.0, 6.0, 0), ("c", 8.0, 9.0, 0), ("g", 4.0, 5.0, 2))
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 2, 3, 1, 1])


def test_pass_metrics_shares_and_ratios():
    tree = _tree((spans.ROOT, 0.0, 4.0, None),
                 ("engine.run_iteration", 0.0, 3.0, 0),
                 ("engine.top_s_indices", 0.5, 1.5, 1),
                 ("linalg.solve_normal_equations", 2.0, 2.5, 1),
                 ("candidates.draw_candidates", 3.0, 3.5, 0))
    tree[1].counts = {"d": 2, "K": 3, "N": 4}
    tree[4].counts = {"drawn": 5}
    metrics = spans.pass_metrics(tree, lambda d, k, n: 0.25)
    assert metrics["engine.run_iteration.self_s"] == pytest.approx(1.5)
    assert metrics["engine.run_iteration.share"] == pytest.approx(1.5 / 4)
    assert metrics["engine.run_iteration.gemm_equiv"] == pytest.approx(6.0)
    assert metrics["engine.run_iteration.solve_fallbacks"] == 1
    assert metrics["candidates.installed_per_drawn"] == 0.0
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5 / 4)
    assert set(metrics) | {"trace.overhead_frac"} == set(spans.per_layer_units())


def test_rebinding_traces_nested_calls_and_restores():
    original = itkrm.engine.top_s_indices
    tracer = spans.Tracer()
    with spans.rebound(tracer):
        assert itkrm.engine.top_s_indices is not original
        dico = itkrm.make_random_sphere(4, 6, itkrm.rng_from_seed(0))
        itkrm.threshold_support(dico, np.ones(4), 2)
    assert itkrm.engine.top_s_indices is original
    assert [s.name for s in tracer.spans] == ["engine.top_s_indices"]


def test_checks_reject_bad_atoms_and_error_curves():
    good = np.eye(3)
    assert checks.dictionary_problems(good) == []
    bad = good.copy()
    bad[0, 1] = 1e-4
    assert checks.dictionary_problems(bad)
    nan = good.copy()
    nan[2, 2] = np.nan
    assert checks.dictionary_problems(nan)
    assert checks.error_curve_problems([0.5, 0.3, 0.3, 0.1]) == []
    assert checks.error_curve_problems([0.5, 0.3, 0.31])
    assert checks.error_curve_problems([1.2, 0.3])


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    workload = WORKLOADS[name](3, tmp_path, tiny=True)
    result = child.measure(workload, 0.0, trace, tmp_path / "spans.jsonl" if trace else None)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == workload.operations * (2 if trace else 1)
    assert set(result["metrics"]) | {"setup_s"} == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in result["metrics"].values())
    if trace:
        assert set(result["per_layer"]) == set(spans.per_layer_units())
        assert not hasattr(itkrm.run_adaptive, "__wrapped__")
        assert not hasattr(itkrm.engine.run_iteration, "__wrapped__")


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "image_pipeline", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
