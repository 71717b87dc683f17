"""Tests for the benchmark's own checks, references and tracer.

Small systems keep these fast; the workloads themselves run at benchmark
scale only through ``perfbench/run.py``.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg as sla

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bench_checks as checks  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as wls  # noqa: E402
from expmrect import bounds, cli, expmv  # noqa: E402

SMALL = ("square", 8, 1e-1)


def _small_case(tf=1):
    S = wls.build(*SMALL)
    h = S.mesh.h_bar
    ref = checks.expm_multiply_reference(S.M, S.K, S.b0, h, [tf])[tf]
    return S, h, ref


def test_reference_matches_dense_expm():
    S, h, ref = _small_case(tf=10)
    A = 10 * h * np.linalg.solve(S.M.toarray(), S.K.toarray())
    assert checks.relative_error(ref, sla.expm(A) @ S.b0, S.b0) < 1e-12


def test_oracle_agrees_with_reference():
    S, h, ref = _small_case()
    A = h * np.linalg.solve(S.M.toarray(), S.K.toarray())
    assert checks.oracle_problems(expmv.expm_dense_oracle(A) @ S.b0, ref, S.b0, "small") == []
    assert checks.oracle_problems(ref * (1 + 1e-9), ref, S.b0, "small")


def test_perturbed_x_is_counted_as_failed():
    S, _, ref = _small_case()
    eps = 1e-6
    bump = np.zeros_like(ref)
    bump[0] = 10 * eps * np.linalg.norm(S.b0)
    results = [wls.OpResult(("good",), 0.1), wls.OpResult(("bad",), 0.1)]
    problems = [checks.vector_problems(ref, ref, S.b0, eps),
                checks.vector_problems(ref + bump, ref, S.b0, eps)]
    failed, unexpected = wls.tally(results, problems, known_fault=None)
    assert [r.op for r, _ in failed] == [("bad",)] and unexpected == failed
    assert checks.vector_problems(np.full_like(ref, np.nan), ref, S.b0, eps)


def _sweep_rows():
    rows = cli.run_sweep(wls.SweepRef().config(SMALL, seed=0))
    assert wls.SweepRef().op_problems(rows) == []
    return rows


def test_sweep_row_above_eps_is_counted_as_failed():
    rows = _sweep_rows()
    rows[1]["certified_bound"] = repr(2 * float(rows[1]["eps"]))
    rows[1]["measured_error"] = "0.0"
    problems = [wls.SweepRef().op_problems(rows)]
    failed, _ = wls.tally([wls.OpResult(SMALL, 1.0, rows)], problems, known_fault=None)
    assert len(failed) == 1 and "exceeds eps" in failed[0][1][0]


def test_sweep_row_not_ok_is_counted_as_failed():
    rows = _sweep_rows()
    rows[0].update(status="RefitFailed", degree="--", certified_bound="--", measured_error="")
    problems = [wls.SweepRef().op_problems(rows)]
    failed, _ = wls.tally([wls.OpResult(SMALL, 1.0, rows)], problems, known_fault=None)
    assert len(failed) == 1 and "RefitFailed" in failed[0][1][0]


def test_measured_error_above_bound_is_a_problem():
    rows = _sweep_rows()
    rows[0]["measured_error"] = repr(2 * float(rows[0]["certified_bound"]))
    assert wls.SweepRef().op_problems(rows)


def test_certificate_problems_and_known_fault():
    assert checks.certificate_problems(1e-9, 2e-9, 3e-9) == []
    assert checks.certificate_problems(2.4e-9, 2e-9, 3e-9)
    assert checks.certificate_problems(1e-9, 4e-9, 3e-9)
    fault = wls.ApproxApply.known_fault
    results = [wls.OpResult(fault, 0.1), wls.OpResult(("other",), 0.1)]
    failed, unexpected = wls.tally(results, [["x1.2"], []], known_fault=fault)
    assert len(failed) == 1 and unexpected == []


def test_dense_boundary_points_lie_on_the_boundary():
    rect = bounds.BoundingRectangle(mu_min=-3.0, mu_max=-1.0, nu_min=-2.0, nu_max=2.0)
    z = checks.dense_boundary_points(rect, 50)
    assert z.size == 4 * 100
    on_vertical = np.isclose(z.real, -3.0) | np.isclose(z.real, -1.0)
    on_horizontal = np.isclose(z.imag, -2.0) | np.isclose(z.imag, 2.0)
    assert np.all(on_vertical | on_horizontal)
    assert np.all((z.real >= -3.0) & (z.real <= -1.0) & (np.abs(z.imag) <= 2.0))


def test_tracer_sees_calls_inside_the_driver_and_restores():
    S = wls.build(*SMALL)
    req = expmv.ExpmvRequest(pencil=bounds.Pencil(S.mesh.h_bar, S.M, S.K), b=S.b0, eps=1e-6)
    original = expmv.bounding_rectangle
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        expmv.expmv_controlled(req)
    finally:
        tracer.uninstall()
    assert expmv.bounding_rectangle is original
    names = {span[1] for span in tracer.spans}
    assert {"expmv.controlled", "bounds.enclose", "bounds.kappa", "rational.scaling",
            "expmv.apply", "linalg.lu"} <= names
    m = tracer.layer_metrics()
    assert m["bounds.enclose_calls"] == 1 and m["bounds.kappa_calls"] == 1
    assert m["linalg.lu_calls"] >= 1 and m["linalg.solve_calls"] >= 1
    root = next(s for s in tracer.spans if s[1] == "expmv.controlled")
    assert 0.0 <= m["expmv.controlled_self_s"] <= root[4] - root[3]
    assert set(m) == set(bench_trace.SELF_TIME_METRICS.values()) | set(bench_trace.COUNT_METRICS)


def test_run_refuses_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sweep-ref", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
