"""The benchmark's closed-loop workloads.

Each workload has a set-up, a fixed list of operations that makes one
round, the timed call for one operation, and a check that runs after the
timed section against references computed apart from the package. Timed
code calls only the package's public functions, looked up on their modules
at call time so that the traced run sees them.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from expmrect import aaa, bounds, cli, expmv, fem, linalg, rational

import bench_checks as checks

_DEFAULTS = {f.name: f.default for f in dataclasses.fields(expmv.ExpmvRequest)}
N_PER_SIDE = _DEFAULTS["n_per_side"]
S_MAX = _DEFAULTS["s_max"]
M_MAX = _DEFAULTS["m_max"]
KAPPA_POWER = _DEFAULTS["kappa_power"]


def build(domain: str, size: int, d: float):
    """Mesh and assemble a system the way ``expmrect`` command line does."""
    mesh = fem.mesh_square(size) if domain == "square" else fem.mesh_star(refine=size)
    return fem.assemble_p1(mesh, d=d, c=(1.0, 1.0), domain=domain)


def system_label(system) -> str:
    domain, size, d = system
    return f"{domain}/{size} d={d:g}"


@dataclasses.dataclass
class OpResult:
    op: tuple
    seconds: float
    output: object = None
    error: str | None = None


# --------------------------------------------------------------------------
# sweep-ref: the paper's tables, one sweep per reference system
# --------------------------------------------------------------------------

class SweepRef:
    name = "sweep-ref"
    setup_repeats = 5  # set-up is the imports, about 0.4 s
    SYSTEMS = [("square", 32, 1e-1), ("square", 32, 1e-3), ("star", 4, 1e-1), ("star", 4, 1e-3)]
    TAU_FACTORS = (1.0,)
    EPS = (1e-6,)
    METHODS = ("sub-pade", "rat-interp")
    known_fault = None

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def round_ops(self, state) -> list:
        return list(self.SYSTEMS)

    def config(self, system, seed: int) -> dict:
        domain, size, d = system
        spec = {"domain": domain, "d": d, ("divisions" if domain == "square" else "refine"): size}
        return {
            "systems": [spec],
            "tau_factors": list(self.TAU_FACTORS),
            "eps": list(self.EPS),
            "methods": list(self.METHODS),
            "modes": ["ii"],
            "verify": True,
            "seed": seed,
        }

    def run(self, state, op):
        return cli.run_sweep(self.config(op, state["seed"]))

    def label(self, op) -> str:
        return system_label(op)

    def cells(self, rows) -> int:
        return sum(row["status"] == "ok" for row in rows)

    def op_problems(self, rows) -> list[str]:
        expected = len(self.TAU_FACTORS) * len(self.EPS) * len(self.METHODS)
        problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
        return problems + [p for row in rows for p in checks.sweep_row_problems(row)]

    def check(self, state, results):
        per_op = [self.op_problems(r.output) for r in results if r.error is None]
        # confirm the oracle behind measured_error on every (system, tau)
        extra = []
        for system in dict.fromkeys(r.op for r in results):
            S = build(*system)
            h = S.mesh.h_bar
            refs = checks.expm_multiply_reference(S.M, S.K, S.b0, h, [int(t) for t in self.TAU_FACTORS])
            for tf in self.TAU_FACTORS:
                A = tf * h * linalg.lu_factor(S.M).solve(S.K.toarray())
                oracle_x = expmv.expm_dense_oracle(A) @ S.b0
                extra += checks.oracle_problems(
                    oracle_x, refs[int(tf)], S.b0, f"{system_label(system)} tau={tf:g}h"
                )
        return _align(results, per_op), extra


# --------------------------------------------------------------------------
# approx-apply: certify one approximant and apply it, enclosure done in set-up
# --------------------------------------------------------------------------

class ApproxApply:
    name = "approx-apply"
    setup_repeats = 3  # set-up encloses three systems, 10-15 s
    SYSTEMS = [("square", 64, 1e-1), ("square", 64, 1e-3)]
    TAU_FACTORS = (1, 10, 30)
    EPS = (1e-2, 1e-6)
    METHODS = ("sub-pade", "rat-interp")
    # sub-pade at tau = 30h, eps = 1e-6 ends in an honest ScalingExhausted
    EXCLUDED = {(30, 1e-6, "sub-pade")}
    # Densely resampled |r - exp| beats sup_error_estimate on this cell by
    # about x1.3, and its inputs do not depend on the seed (dense enclosure).
    known_fault = (("square", 32, 1e-3), 10, 1e-8, "rat-interp")
    KNOWN_FAULT_NAME = "rational._sup_on_samples: sampled max x SAMPLING_SAFETY is not an upper bound"

    def setup(self, seed: int) -> dict:
        cells = [
            (system, tf, eps, method)
            for system in self.SYSTEMS
            for tf in self.TAU_FACTORS
            for eps in self.EPS
            for method in self.METHODS
            if (tf, eps, method) not in self.EXCLUDED
        ] + [self.known_fault]
        pencils = {}
        for system, tf, _, _ in cells:
            if system not in pencils:
                S = build(*system)
                ext = bounds.raw_extremes(S.M, S.K, seed=seed)
                est = bounds.cond_estimate(S.M, seed=seed)
                pencils[system] = {"S": S, "ext": ext, "kappa_safe": est.kappa_safe}
            entry = pencils[system]
            tau = tf * entry["S"].mesh.h_bar
            if tf not in entry:
                entry[tf] = (
                    bounds.Pencil(tau=tau, M=entry["S"].M, K=entry["S"].K),
                    bounds.rectangle_from_extremes(entry["ext"], tau),
                )
        return {"cells": cells, "pencils": pencils}

    def round_ops(self, state) -> list:
        return state["cells"]

    def target(self, state, op) -> float:
        system, _, eps, _ = op
        kappa = state["pencils"][system]["kappa_safe"]
        return eps / (expmv.CROUZEIX_CONSTANT * kappa**KAPPA_POWER)

    def run(self, state, op):
        system, tf, _, method = op
        pencil, rect = state["pencils"][system][tf]
        b = state["pencils"][system]["S"].b0
        target = self.target(state, op)
        if method == "sub-pade":
            s = rational.select_scaling(rect, target, S_MAX, N_PER_SIDE)
            r = rational.pade45(scaling=s)
            estimate = rational.sup_error_on_rectangle(r, rect, N_PER_SIDE)
            x = expmv.apply_scaled_pade(r, pencil, b)
        else:
            poles = aaa.aaa_poles(
                rational.boundary_samples(rect, min(expmv.AAA_SAMPLES_PER_SIDE, N_PER_SIDE)),
                target, M_MAX,
            )
            cert = aaa.refit_partial_fractions(poles, rational.boundary_samples(rect, N_PER_SIDE), target)
            r, estimate = cert.form, cert.sup_error_estimate
            x = expmv.apply_partial_fraction(r, pencil, b)
            if np.iscomplexobj(x):
                x = x.real
        return {"x": x, "r": r, "estimate": estimate}

    def label(self, op) -> str:
        system, tf, eps, method = op
        return f"{system_label(system)} tau={tf}h eps={eps:g} {method}"

    def cells(self, output) -> int:
        return 1

    def check(self, state, results):
        refs = {}
        per_op = []
        for r in results:
            if r.error is not None:
                continue
            system, tf, eps, _ = r.op
            entry = state["pencils"][system]
            if system not in refs:
                factors = sorted({op[1] for op in state["cells"] if op[0] == system})
                refs[system] = checks.expm_multiply_reference(
                    entry["S"].M, entry["S"].K, entry["S"].b0, entry["S"].mesh.h_bar, factors
                )
            rect = entry[tf][1]
            z = checks.dense_boundary_points(rect, checks.DENSE_FACTOR * N_PER_SIDE)
            with np.errstate(over="ignore", invalid="ignore"):
                dense_sup = float(np.max(np.abs(rational.eval_rational(r.output["r"], z) - np.exp(z))))
            problems = checks.vector_problems(r.output["x"], refs[system][tf], entry["S"].b0, eps)
            problems += checks.certificate_problems(dense_sup, r.output["estimate"], self.target(state, r.op))
            if problems and r.op == self.known_fault:
                problems = [f"known fault {self.KNOWN_FAULT_NAME}: {p}" for p in problems]
            per_op.append(problems)
        return _align(results, per_op), []


def tally(results, problems, known_fault):
    """Failed operations, and those among them that are not the known fault."""
    failed = [(r, p) for r, p in zip(results, problems) if p]
    return failed, [(r, p) for r, p in failed if r.op != known_fault]


def _align(results, per_op):
    """Problems per result: the error for a raised call, else its check."""
    it = iter(per_op)
    return [[r.error] if r.error is not None else next(it) for r in results]


WORKLOADS = {w.name: w for w in (SweepRef, ApproxApply)}

