"""Benchmark for expmrect: one closed-loop workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-ref --seed 0 --seconds 16 --trace 0

Workloads are ``sweep-ref`` and ``approx-apply`` (see README.md beside
this file), or ``all`` to run both in turn. The
workload issues one operation at a time and attempts whole rounds of its
operations until ``--seconds`` have passed. Only calls into the package are
timed; checks against independent references run afterwards. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.
"""
import os
import time

# Set-up time counts from the first statement of the first process image.
# CLOCK_MONOTONIC is system-wide, so the start survives the re-exec below.
_T0 = float(os.environ.pop("PERFBENCH_T0", time.monotonic()))

import argparse
import collections
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# BLAS threads change the roundoff of the package's eigensolvers and SVDs,
# and with it the certificates; one thread fits any machine.
BLAS_THREADS = 1
# glibc raises its mmap threshold to the size of the largest block freed so
# far. How large the Lanczos bases grow depends on the seed, so without a
# fixed threshold peak RSS and allocation cost flip between two levels from
# run to run (280 vs 370 MB on approx-apply). 131072 is glibc's initial value.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "MALLOC_TRIM_THRESHOLD_": "131072",
    "PYTHONHASHSEED": "0",
}
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sweep-ref", "approx-apply")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="fed to the package's seed parameters")
    ap.add_argument("--seconds", type=float, default=16.0, help="minimum timed length of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, print the set-up time and exit (see repeat_setup)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def repeat_setup(args, times: int) -> list[float]:
    """Set-up times of ``times`` fresh processes, run one after another.

    Set-up of sweep-ref is the interpreter start and the imports, which
    cannot be repeated inside one process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return [float(subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout)
            for _ in range(times)]


def run_round(wl, state, results) -> float:
    """One closed-loop pass over the round's operations; returns its wall time."""
    from bench_workloads import OpResult

    start = time.perf_counter()
    for op in wl.round_ops(state):
        t0 = time.perf_counter()
        try:
            out = wl.run(state, op)
        except Exception as exc:  # counted as a failed operation and reported
            results.append(OpResult(op, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}"))
        else:
            results.append(OpResult(op, time.perf_counter() - t0, out))
    return time.perf_counter() - start


def op_geomean_s(results) -> float:
    """Geometric mean, over the round's operations, of each one's median time.

    A round mixes cells whose times differ tenfold, so the median of all
    times lands on whichever cell ranks in the middle, and a few percent of
    noise reorders the cells and moves it by tens of percent. Each cell
    counts here by its ratio, whatever its size.
    """
    per_op = collections.defaultdict(list)
    for r in results:
        per_op[r.op].append(r.seconds)
    return statistics.geometric_mean(statistics.median(v) for v in per_op.values())


def run_workload(args) -> dict:
    from bench_trace import COUNT_METRICS, Tracer
    from bench_workloads import WORKLOADS, tally

    wl = WORKLOADS[args.workload]()
    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install()
    state = wl.setup(args.seed)
    setup_s = time.monotonic() - _T0
    setup_tracer.uninstall()
    if args.setup_only:
        return {"setup_s": setup_s}

    results = []
    round_tracer = Tracer()
    untraced_round_s = run_round(wl, state, results) if args.trace else None
    if args.trace:
        round_tracer.install()
    round_walls, round_ends = [], []
    timed_from = len(results)
    loop_start = time.perf_counter()
    while not round_walls or time.perf_counter() - loop_start < args.seconds:
        round_walls.append(run_round(wl, state, results))
        round_ends.append(len(results))
    round_tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, global_problems = wl.check(state, results)
    failed, unexpected = tally(results, problems, wl.known_fault)
    for r, p in failed:
        print(f"FAILED {wl.label(r.op)}: {'; '.join(p)}")
    for p in global_problems:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        n = len(round_walls)
        setup_m = setup_tracer.layer_metrics()
        round_m = round_tracer.layer_metrics()
        # set-up once, plus the work of one traced round
        layer = {k: setup_m[k] + round_m[k] / n for k in setup_m}
        layer.update({k: round(layer[k]) for k in COUNT_METRICS if layer[k] == round(layer[k])})
        layer["trace.overhead_s"] = statistics.median(round_walls) - untraced_round_s
        metrics = {k: {"value": v, "unit": "count" if k in COUNT_METRICS else "s"} for k, v in layer.items()}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "blas_threads": BLAS_THREADS,
            "traced_rounds": n,
            "untraced_round_s": untraced_round_s,
            "traced_round_s": round_walls,
            "setup_spans": setup_tracer.span_dicts(),
            "round_spans": round_tracer.span_dicts(),
            "metrics": layer,
        }, indent=1) + "\n")
        print(f"wrote {len(setup_tracer.spans) + len(round_tracer.spans)} spans to "
              f"{trace_file.relative_to(HERE.parent)}")
    else:
        # certified cells per second of each round, the median over rounds
        round_rates = [
            sum(wl.cells(r.output) for r, p in zip(results[a:b], problems[a:b]) if not p) / wall
            for a, b, wall in zip([timed_from] + round_ends[:-1], round_ends, round_walls)
        ]
        setups = [setup_s] + repeat_setup(args, wl.setup_repeats - 1)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cells_per_s": {"value": statistics.median(round_rates), "unit": "1/s"},
            "op_geomean_s": {"value": op_geomean_s(results), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"workload={args.workload} seed={args.seed} blas_threads={BLAS_THREADS} "
          f"rounds={len(round_walls)} attempted={len(results)} failed={len(failed)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not unexpected and not global_problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in a process of its own, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expmrect" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # BLAS and malloc read these only at start-up: replace this process
        # image with one that starts under them (no child process is made)
        os.environ.update(PINNED_ENV, PERFBENCH_T0=repr(_T0))
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:])
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        result = run_workload(args)
    print(result["setup_s"] if args.setup_only else json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
