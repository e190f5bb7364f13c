"""Tests of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import (  # noqa: E402
    LAYER_UNITS,
    OTHER_SELF_METRIC,
    SELF_METRICS,
    Tracer,
    traced_targets,
)
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = {
    "mps": Workload(
        name="tiny_mps",
        config={"np": 120, "j_sub": 4, "halo": 2, "length_scale": 2.0,
                "sigma_o": 0.1, "method": "mps"},
        max_ref_linf=4.0, max_truth_ratio=0.9,
    ),
    "ddda": Workload(
        name="tiny_ddda",
        config={"np": 120, "j_sub": 4, "halo": 2, "length_scale": 2.0,
                "sigma_o": 0.1, "method": "ddda"},
        max_ref_linf=4.0, max_truth_ratio=0.9,
    ),
    "compare": Workload(
        name="tiny_compare",
        config={"np": 120, "j_sub": 8, "halo": 2, "length_scale": 2.0,
                "sigma_o": 1.0, "method": "compare"},
    ),
}
SELF_TIME_METRICS = set(SELF_METRICS.values()) | {OTHER_SELF_METRIC}


def test_benchmark_json_lists_what_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS


def test_oracle_agrees_with_the_global_method():
    ddvar = worker.import_ddvar()
    grid = ddvar.Grid1D.uniform(150)
    cov = ddvar.build_gaussian_covariance(grid, 2.0, 1.0)
    inst = ddvar.synthesize(grid, cov, 30, 0.1, seed=5)
    result = ddvar.assimilate(inst, ddvar.decompose_uniform(grid, 1, 0),
                              "global")
    u_ref, j_min = oracle.exact_analysis(
        np.arange(150, dtype=float), 2.0, 1.0, inst.obs.obs_indices,
        inst.obs.values, inst.obs.r_cov.r_diag, inst.u_background,
    )
    assert np.max(np.abs(result.u_analysis - u_ref)) <= 1e-10
    w_star = result.per_subdomain_w[0]
    assert ddvar.cost_w(inst, w_star) == pytest.approx(j_min, rel=1e-10)


@pytest.mark.parametrize("method", sorted(TINY))
def test_traced_run_emits_every_layer_metric(method, tmp_path, monkeypatch):
    workload = TINY[method]
    # Two subdomain threads, so the spans must also add up with the pool.
    monkeypatch.setenv("DDVAR_THREADS", "2")
    record = worker.run_once(workload, 3, True, tmp_path)
    assert record["failures"] == []
    layers = record["layers"]
    assert set(layers) == set(LAYER_UNITS) - {"trace.overhead_s"}
    assert all(math.isfinite(v) for v in layers.values())

    self_sum = sum(layers[name] for name in SELF_TIME_METRICS)
    assert self_sum + layers["trace.unattributed_s"] == \
        pytest.approx(layers["trace.run_s"], abs=1e-9)
    assert layers["trace.run_s"] == record["run_s"]

    j_sub = workload.config["j_sub"]
    if method == "ddda":
        assert layers["solvers.sweep_iters"] == 0
        assert layers["analysis.cost_diag_s"] == 0.0
        assert layers["assembly.local_calls"] == j_sub
    else:
        assert layers["solvers.sweep_iters"] > 0
        assert layers["analysis.cost_diag_s"] > 0.0
        assert layers["solvers.residual_calls"] >= layers["solvers.sweep_iters"]
        expected_local = 2 * j_sub if method == "compare" else j_sub
        assert layers["assembly.local_calls"] == expected_local


@pytest.mark.parametrize("trace", [False, True])
def test_summary_has_every_metric_with_its_unit(trace, tmp_path):
    workload = TINY["mps"]
    records = [worker.run_once(workload, 4, False, tmp_path),
               worker.run_once(workload, 4, True, tmp_path)]
    metrics, reason = run.summarize(records, trace)
    assert reason is None
    expected = LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: unit for name, (unit, _) in metrics.items()} == expected
    assert all(samples for _, samples in metrics.values())


def test_tracer_restores_the_library():
    worker.import_ddvar()
    before = [(m, a, getattr(m, a)) for m, a, _ in traced_targets()]
    with Tracer().installed():
        assert all(getattr(m, a) is not f for m, a, f in before)
    assert all(getattr(m, a) is f for m, a, f in before)


def test_a_wrong_answer_fails_the_run(tmp_path):
    strict = Workload(
        name="tiny_strict", config=TINY["mps"].config,
        max_ref_linf=1e-12, max_truth_ratio=0.9,
    )
    record = worker.run_once(strict, 3, False, tmp_path)
    assert any("u_ref" in f for f in record["failures"])
    metrics, reason = run.summarize([record], False)
    assert metrics is None and reason


def test_every_run_line_names_metric_and_unit(tmp_path):
    record = worker.run_once(TINY["compare"], 2, False, tmp_path)
    record["failures"] = ["example"]
    lines = []
    run.emit_run(lines.append, 1, record)
    assert lines
    assert all(" metric=" in line and " unit=" in line for line in lines)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mps_4k", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
