"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``expmrect`` package. Each wrapped
function object is replaced wherever a package module holds a reference to
it, so calls made inside ``cli.run_sweep`` and ``expmv.expmv_controlled``
are seen as well as the benchmark's own calls. A span records its name,
start, end and parent span; a layer's self time is the duration of its
spans minus the time their child spans cover. Spans stay in memory until
the benchmark writes them out at the end of the run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter


def _enclose_count(counts, _result):
    counts["bounds.enclose_calls"] += 1


def _kappa_count(counts, _result):
    counts["bounds.kappa_calls"] += 1


def _pade_degree(counts, scaling):
    # select_scaling returns s for the (4,5) Pade core, so the degree is 5 s
    counts["rational.pade_degree_sum"] += 5 * scaling


def _aaa_degree(counts, cert):
    counts["aaa.degree_sum"] += cert.degree


def _lu_fill(counts, fac):
    counts["linalg.lu_calls"] += 1
    if fac.kind == "sparse":
        counts["linalg.lu_fill_nnz"] += fac.lower.nnz + fac.upper.nnz
    else:
        counts["linalg.lu_fill_nnz"] += fac.shape[0] * fac.shape[1]


# (module, function) -> (span name, optional hook that counts from the result)
SPANNED = {
    ("fem", "mesh_square"): ("fem.mesh", None),
    ("fem", "mesh_star"): ("fem.mesh", None),
    ("fem", "assemble_p1"): ("fem.assemble", None),
    ("bounds", "bounding_rectangle"): ("bounds.enclose", None),
    ("bounds", "raw_extremes"): ("bounds.enclose", _enclose_count),
    ("bounds", "rectangle_from_extremes"): ("bounds.enclose", None),
    ("bounds", "cond_estimate"): ("bounds.kappa", _kappa_count),
    ("rational", "select_scaling"): ("rational.scaling", _pade_degree),
    ("rational", "sup_error_on_rectangle"): ("rational.certify", None),
    ("aaa", "aaa_poles"): ("aaa.poles", None),
    ("aaa", "refit_partial_fractions"): ("aaa.refit", _aaa_degree),
    ("expmv", "apply_partial_fraction"): ("expmv.apply", None),
    ("expmv", "apply_scaled_pade"): ("expmv.apply", None),
    ("expmv", "expmv_controlled"): ("expmv.controlled", None),
    ("expmv", "expm_dense_oracle"): ("expmv.oracle", None),
    ("linalg", "lu_factor"): ("linalg.lu", _lu_fill),
    ("cli", "run_sweep"): ("cli.sweep", None),
}

# span name -> per-layer metric holding the spans' self time
SELF_TIME_METRICS = {
    "fem.mesh": "fem.mesh_s",
    "fem.assemble": "fem.assemble_s",
    "bounds.enclose": "bounds.enclose_s",
    "bounds.kappa": "bounds.kappa_s",
    "rational.scaling": "rational.scaling_s",
    "rational.certify": "rational.certify_s",
    "aaa.poles": "aaa.poles_s",
    "aaa.refit": "aaa.refit_s",
    "expmv.apply": "expmv.apply_s",
    "expmv.controlled": "expmv.controlled_self_s",
    "expmv.oracle": "expmv.oracle_s",
    "linalg.lu": "linalg.lu_s",
    "cli.sweep": "cli.sweep_self_s",
}

COUNT_METRICS = (
    "bounds.enclose_calls",
    "bounds.kappa_calls",
    "rational.pade_degree_sum",
    "aaa.degree_sum",
    "linalg.lu_calls",
    "linalg.lu_fill_nnz",
    "linalg.solve_calls",
)


class Tracer:
    """Collects spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent id or None, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(self.spans), name, self._stack[-1] if self._stack else None,
                   time.perf_counter(), None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, out)
            return out

        return wrapper

    def install(self) -> None:
        """Replace every package reference to a traced function."""
        from expmrect import linalg

        modules = [m for k, m in sys.modules.items() if k == "expmrect" or k.startswith("expmrect.")]
        for (mod_name, fn_name), (span, hook) in SPANNED.items():
            original = getattr(sys.modules[f"expmrect.{mod_name}"], fn_name)
            wrapper = self._span_wrapper(original, span, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        solve = linalg.LuFactor.solve

        @functools.wraps(solve)
        def counted_solve(fac, b):
            self.counts["linalg.solve_calls"] += 1
            return solve(fac, b)

        self._patches.append((linalg.LuFactor, "solve", solve))
        linalg.LuFactor.solve = counted_solve

    def uninstall(self) -> None:
        """Put every replaced reference back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the children's durations."""
        child_time = Counter()
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for sid, name, _, start, end in self.spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric, 0 for layers this trace never entered."""
        selfs = self.self_times()
        metrics = {m: selfs.get(span, 0.0) for span, m in SELF_TIME_METRICS.items()}
        metrics.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return metrics

    def span_dicts(self) -> list[dict]:
        """Spans with ``time.perf_counter`` start and end, in seconds."""
        return [
            {"id": sid, "name": name, "parent": parent, "start": start, "end": end}
            for sid, name, parent, start, end in self.spans
        ]
