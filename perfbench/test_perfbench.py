"""Self-tests of the benchmark: checks catch perturbed results, spans add up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from sphsolve import _kernels, experiments, mz, solver, sphere  # noqa: E402


@pytest.fixture(scope="module")
def td10():
    return workloads.design_rule(10)


@pytest.fixture(scope="module")
def record(td10):
    grid = sphere.uniform_random_points(500, seed=3)
    return experiments.run_experiment(3, 5, td10, grid=grid)


@pytest.fixture(scope="module")
def report(td10):
    return mz.mz_constant(td10, 5, probe=sphere.uniform_random_points(2000, seed=3))


def test_unperturbed_results_pass(record, report) -> None:
    assert workloads.check_solve(record, 1e-10, design=True) is None
    assert workloads.check_mz(report) is None


@pytest.mark.parametrize("change, design", [
    ({"uniform_error": 1e-3}, False),
    ({"uniform_error": math.nan}, False),
    ({"residual": 1e-6}, False),
    ({"condition_estimate": math.inf}, False),
    ({"eta": 1e-8}, True),
])
def test_perturbed_solve_fails(record, change, design) -> None:
    bad = dataclasses.replace(record, **change)
    assert workloads.check_solve(bad, 1e-10, design=design) is not None


@pytest.mark.parametrize("change", [{"eta": 1e-8}, {"mesh_norm": math.nan},
                                    {"lambda_max": math.inf}])
def test_perturbed_mz_report_fails(report, change) -> None:
    assert workloads.check_mz(dataclasses.replace(report, **change)) is not None


def test_ladder_bound_is_criterion_2(record) -> None:
    assert workloads.ladder_bound(1, 10, {}) == math.inf
    previous = dataclasses.replace(record, uniform_error=1e-3)
    assert workloads.ladder_bound(1, 15, {(1, 10): previous}) == 2e-3
    assert workloads.ladder_bound(2, 20, {(2, 15): previous}) == 1e-4


def test_failed_ops_are_counted(record) -> None:
    def boom():
        raise FloatingPointError("perturbed")

    def check(rec, passed):
        return workloads.check_solve(rec, 1e-10, design=True)

    ops = [workloads.Op("ok", "ok", lambda: record, check),
           workloads.Op("raises", "raises", boom, check),
           workloads.Op("off", "off",
                        lambda: dataclasses.replace(record, uniform_error=0.5),
                        check)]
    results, failures = run.run_ops(ops)
    assert len(results) == 2
    assert [f.split(":")[0] for f in failures] == ["raises", "off"]


def test_spans_nest_and_self_times_sum_to_the_root(td10) -> None:
    grid = sphere.uniform_random_points(300, seed=5)
    tracer = tracer_mod.Tracer()
    original = solver.lu_factor
    tracer.install()
    try:
        tracer.call(tracer_mod.PASS_SPAN, experiments.run_experiment, 1, 5,
                    td10, grid=grid)
    finally:
        tracer.uninstall()
    assert solver.lu_factor is original
    root = tracer.spans[0]
    assert root.name == tracer_mod.PASS_SPAN
    assert sum(tracer.self_times()) == pytest.approx(root.end - root.start,
                                                     rel=1e-9)
    names = {s.name for s in tracer.spans}
    assert {"experiments.run_experiment", "solver.solve_stage1",
            "solver.assemble_system", "solver.lu_factor",
            "solver.evaluate_stage2", "kernels.product_weight_matrix",
            "mz.gram_matrix", "numpy.eigvalsh"} <= names
    # assembly is m x m, stage 2 is T x m, both over n + 1 Legendre terms
    m, t, n = td10.m, len(grid), 5
    assert tracer.counts["kernels.entries"] == m * m + t * m
    assert tracer.counts["kernels.legendre_terms"] == (m * m + t * m) * (n + 1)


def test_micro_check_catches_a_perturbed_kernel() -> None:
    dots = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    w = np.full(4, 0.5)
    coeffs = np.array([1.0, 0.5, 0.25])
    fused = _kernels.product_weight_matrix(dots, w, coeffs, _kernels.K_SIN, 10.0)
    zs = _kernels.zonal_sum(coeffs, dots)
    check = workloads.micro_check(dots, w)
    outputs = {"zonal_sum": zs, "product_weight_matrix": fused}
    assert check(outputs) is None
    outputs["product_weight_matrix"] = fused * (1.0 + 1e-9)
    assert check(outputs) is not None


def test_metrics_match_benchmark_json() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    loop = {"walls": [1.0], "ops": 1, "loop_s": 1.0, "failures": []}
    end_to_end = run.end_to_end_metrics(0.5, loop)
    assert {k: m["unit"] for k, m in end_to_end.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}

    tracer = tracer_mod.Tracer()
    tracer.call(tracer_mod.PASS_SPAN, time.sleep, 0.001)
    per_layer, _ = run.per_layer_metrics({"tracer": tracer, "pass_root": 0},
                                         0.0, [], 0, 1)
    cases, _ = workloads.micro_cases(0)
    per_layer |= {f"micro.{case}_s": {"unit": "s"} for case, _ in cases}
    assert {k: m["unit"] for k, m in per_layer.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}
