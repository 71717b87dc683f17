"""Command line front end.

Four subcommands: ``generate`` builds a finite element test system and
writes it to disk, ``bound`` reports the numerical-range rectangle and
condition bound for a pencil, ``expmv`` runs the certified driver once,
and ``sweep`` drives a grid of (system, method, mode, eps, tau) combinations
into a CSV table. All randomness is seeded, and outputs carry no timestamps,
so identical configurations reproduce byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from . import fem, mmio
from .bounds import MODES, Pencil, analyze_pencil, is_lhp_certified, rectangle_from_extremes
from .errors import ExpmrectError, ToleranceUnreachable
from .expmv import ExpmvRequest, expmv_controlled
from .linalg import lu_factor, norm2
from .rational import METHODS

FAILURE_MARK = "--"

SWEEP_COLUMNS = [
    "shape",
    "element",
    "d",
    "n",
    "h_bar",
    "kappa",
    "tau_factor",
    "method",
    "mode",
    "eps",
    "degree",
    "certified_bound",
    "measured_error",
    "status",
]

# the generator flags' defaults; bound and expmv parse them as None, so that
# a flag given next to file input can be refused
GENERATOR_DEFAULTS = {"domain": "square", "divisions": 32, "refine": 4, "d": 1e-1}

# the keys of a sweep config and of its systems, each with the (Python
# types, JSON name) its value needs
ARRAY, NUMBER = (list, "an array"), ((int, float), "a number")
SWEEP_KEYS = {"systems": ARRAY, "tau_factors": ARRAY, "eps": ARRAY, "methods": ARRAY,
              "modes": ARRAY, "verify": (bool, "a boolean"), "seed": (int, "an integer")}
SYSTEM_KEYS = {"domain": (str, "a string"), "divisions": NUMBER, "refine": NUMBER, "d": NUMBER}
REQUIRED_SYSTEM_KEYS = {"domain", "d"}

# the reference grid (32 runs); a sweep config overrides any of its keys
SWEEP_DEFAULTS = {
    "systems": [
        {"domain": "square", "divisions": 32, "d": 1e-1},
        {"domain": "square", "divisions": 32, "d": 1e-3},
        {"domain": "star", "refine": 4, "d": 1e-1},
        {"domain": "star", "refine": 4, "d": 1e-3},
    ],
    "tau_factors": [1.0],
    "eps": [1e-2, 1e-4, 1e-6, 1e-8],
    "methods": list(METHODS),
    "modes": ["ii"],
    "verify": False,
    "seed": 0,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# --------------------------------------------------------------------------
# system construction
# --------------------------------------------------------------------------

def _build_system(domain: str, divisions: int, refine: int, d: float):
    mesh = fem.mesh_square(divisions) if domain == "square" else fem.mesh_star(refine=refine)
    return fem.assemble_p1(mesh, d=d, c=(1.0, 1.0), domain=domain), mesh


def _load_system(args):
    """System from files (--m/--k/--b) or generator parameters, not both."""
    given = {k: getattr(args, k) for k in GENERATOR_DEFAULTS if getattr(args, k) is not None}
    if args.m or args.k or args.b:
        if not (args.m and args.k and args.b):
            raise SystemExit("file input needs all of --m, --k and --b")
        if given:
            raise SystemExit(f"file input would ignore {', '.join('--' + k for k in given)}")
        M = mmio.read_matrix_market(args.m)
        K = mmio.read_matrix_market(args.k)
        b = mmio.read_vector(args.b)
        h_bar = None
        params = Path(args.m).with_name("params.json")
        if params.exists():
            h_bar = json.loads(params.read_text()).get("h_bar")
        return M, K, b, h_bar, {"shape": "file", "d": float("nan")}
    gen = {**GENERATOR_DEFAULTS, **given}
    system, mesh = _build_system(**gen)
    meta = {"shape": gen["domain"], "d": gen["d"]}
    return system.M, system.K, system.b0, mesh.h_bar, meta


def _reference(p: Pencil, b, seed: int):
    """exp(tau inv(M) K) b, the vector a verifying run compares against.

    ``expm_multiply`` (Al-Mohy and Higham's truncated Taylor method) acts on
    tau inv(M) K through one sparse LU of M, so no n x n matrix is formed
    and every size can be verified. M is symmetric, so the adjoint that its
    norm estimate needs is tau K^T inv(M). That estimate draws random sign
    vectors from numpy's global generator, which is seeded with ``seed`` for
    the call and then restored, so the reference is reproducible.
    """
    lu = lu_factor(p.M)
    KT = p.K.T.tocsr()
    op = spla.LinearOperator(
        p.K.shape,
        matvec=lambda v: p.tau * lu.solve(p.K @ v),
        rmatvec=lambda v: p.tau * (KT @ lu.solve(v)),
        dtype=float,
    )
    state = np.random.get_state()
    np.random.seed(seed)
    try:
        with warnings.catch_warnings():
            # a LinearOperator has no trace; expm_multiply warns and runs unshifted
            warnings.simplefilter("ignore")
            return spla.expm_multiply(op, b, traceA=0.0)
    finally:
        np.random.set_state(state)


def _row(head: dict, outcome, x=None, reference=None, b=None) -> dict:
    """The ``SWEEP_COLUMNS`` row of one driver run.

    ``head`` holds the columns fixed before the run: shape, d, n, h_bar,
    tau_factor, method, mode and eps. ``outcome`` is the run's certificate
    or its ``ToleranceUnreachable`` failure; ``kappa`` is the certificate's
    ``kappa_safe``, taken from the failure's context on a failure row.
    ``measured_error`` is ||x - reference|| / ||b|| when a reference is given.
    """
    head = dict(head, element="P1")
    if isinstance(outcome, ToleranceUnreachable):
        return dict(
            head,
            kappa=_fmt(outcome.context["kappa_safe"]),
            degree=FAILURE_MARK,
            certified_bound=FAILURE_MARK,
            measured_error="",
            status=type(outcome).__name__,
        )
    measured = "" if reference is None else _fmt(norm2(x - reference) / norm2(b))
    return dict(
        head,
        kappa=_fmt(outcome.kappa_safe),
        degree=outcome.degree,
        certified_bound=_fmt(outcome.operator_bound),
        measured_error=measured,
        status="ok",
    )


def _resolve_tau(args, h_bar):
    if args.tau is not None:
        return float(args.tau)
    if h_bar is None:
        raise SystemExit("--tau-factor needs a generated system or a params.json with h_bar")
    return float(args.tau_factor) * float(h_bar)


def _tau_factor_column(args, tau, h_bar) -> str:
    """The factor given by --tau-factor; tau / h_bar only when --tau is given."""
    if args.tau is None:
        return _fmt(float(args.tau_factor))
    return _fmt(tau / h_bar) if h_bar else ""


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    system, mesh = _build_system(args.domain, args.divisions, args.refine, args.d)
    mmio.write_matrix_market(out / "M.mtx", system.M, symmetric=True)
    mmio.write_matrix_market(out / "K.mtx", system.K)
    mmio.write_vector(out / "b0.txt", system.b0)
    fem.write_mesh(out / "mesh.txt", mesh)
    params = {
        "schema": "expmrect/params-v1",
        "domain": args.domain,
        "divisions": args.divisions if args.domain == "square" else None,
        "refine": args.refine if args.domain == "star" else None,
        "d": args.d,
        "c": [1.0, 1.0],
        "n": int(system.n),
        "n_vertices": int(mesh.n_vertices),
        "n_triangles": int(mesh.n_triangles),
        "h_bar": mesh.h_bar,
        "seed": args.seed,
    }
    (out / "params.json").write_text(json.dumps(params, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.domain} system (n={system.n}, h_bar={mesh.h_bar:.6g}) to {out}")
    return 0


def cmd_bound(args) -> int:
    M, K, _, h_bar, _ = _load_system(args)
    tau = _resolve_tau(args, h_bar)
    p = Pencil(tau=tau, M=M, K=K)
    analysis = analyze_pencil(p.M, p.K, seed=args.seed)
    rect = rectangle_from_extremes(analysis.extremes, tau)
    payload = {
        "schema": "expmrect/bound-v2",
        "rectangle": rect.as_dict(),
        "lhp_certified": is_lhp_certified(rect),
        "kappa_safe": analysis.kappa_safe,
        "tau": tau,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "rectangle.json").write_text(text + "\n")
    print(text)
    return 0


def cmd_expmv(args) -> int:
    M, K, b, h_bar, meta = _load_system(args)
    tau = _resolve_tau(args, h_bar)
    p = Pencil(tau=tau, M=M, K=K)
    req = ExpmvRequest(
        pencil=p,
        b=b,
        eps=args.eps,
        method=args.method,
        mode=args.mode,
        seed=args.seed,
    )
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    try:
        x, cert = expmv_controlled(req)
    except ToleranceUnreachable as exc:
        failure = {
            "schema": "expmrect/certificate-v1",
            "status": type(exc).__name__,
            "message": str(exc),
            "context": exc.context,
        }
        text = json.dumps(failure, indent=2, sort_keys=True)
        if out:
            (out / "certificate.json").write_text(text + "\n")
        print(text, file=sys.stderr)
        return 1

    head = {
        "shape": meta["shape"],
        "d": _fmt(meta["d"]),
        "n": p.n,
        "h_bar": _fmt(h_bar) if h_bar is not None else "",
        "tau_factor": _tau_factor_column(args, tau, h_bar),
        "method": args.method,
        "mode": args.mode,
        "eps": _fmt(args.eps),
    }
    reference = _reference(p, b, args.seed) if args.verify else None
    row = _row(head, cert, x, reference, b)
    if out:
        mmio.write_vector(out / "result.txt", x)
        (out / "certificate.json").write_text(cert.to_json() + "\n")
        with open(out / "run.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerow(row)
    print(cert.to_json())
    if reference is not None:
        print(f"measured relative error: {float(row['measured_error']):.3e}")
    return 0


def _sweep_config(args) -> dict:
    """--verify and --seed, overridden by the keys of the --config file."""
    config = {"verify": bool(args.verify), "seed": args.seed}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(
                f"sweep config {args.config} must hold a JSON object, not {type(loaded).__name__}"
            )
        config.update(loaded)
    return config


def cmd_sweep(args) -> int:
    config = _sweep_config(args)
    rows = run_sweep(config)
    out = Path(args.out or "sweep.csv")
    if out.is_dir():
        out = out / "sweep.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def _check_type(where: str, value, kind) -> None:
    """Refuse ``value`` unless it has ``kind``; a bool is only a boolean."""
    types, name = kind
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ValueError(f"sweep config {where} must be {name}, not {value!r}")


def _check_name(where: str, value, known) -> None:
    if value not in known:
        raise ValueError(f"sweep config {where} must be one of {list(known)}, not {value!r}")


def _check_value(where: str, value, ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(f"sweep config {where} must be {what}, not {value!r}")


def _check_sweep_keys(config: dict) -> None:
    unknown = sorted(set(config) - set(SWEEP_KEYS))
    if unknown:
        raise ValueError(f"unknown sweep config key(s) {unknown}; known: {sorted(SWEEP_KEYS)}")
    for key, value in config.items():
        _check_type(f"key {key!r}", value, SWEEP_KEYS[key])
    for key in ("tau_factors", "eps"):
        for value in config.get(key, []):
            _check_type(f"entry of {key!r}", value, NUMBER)
    for key, known in (("methods", METHODS), ("modes", MODES)):
        for value in config.get(key, []):
            _check_name(f"entry of {key!r}", value, known)
    for value in config.get("eps", []):
        _check_value("entry of 'eps'", value, 0.0 < value < 1.0, "in (0, 1)")
    for value in config.get("tau_factors", []):
        _check_value("entry of 'tau_factors'", value, 0.0 < value < np.inf, "finite and positive")
    for spec_sys in config.get("systems", []):
        _check_type("entry of 'systems'", spec_sys, (dict, "an object"))
        unknown = sorted(set(spec_sys) - set(SYSTEM_KEYS))
        if unknown:
            raise ValueError(
                f"unknown sweep system key(s) {unknown} in {spec_sys}; known: {sorted(SYSTEM_KEYS)}"
            )
        missing = sorted(REQUIRED_SYSTEM_KEYS - set(spec_sys))
        if missing:
            raise ValueError(f"sweep system {spec_sys} lacks required key(s) {missing}")
        for key, value in spec_sys.items():
            _check_type(f"system key {key!r}", value, SYSTEM_KEYS[key])
        _check_name("system key 'domain'", spec_sys["domain"], fem.DOMAINS)
        d = spec_sys["d"]
        _check_value("system key 'd'", d, 0.0 < d < np.inf, "finite and positive")
        for key, least in fem.SMALLEST_INTERIOR_SIZE.items():
            if key in spec_sys:
                value = spec_sys[key]
                _check_value(f"system key {key!r}", value, least <= value < np.inf,
                             f"finite and at least {least}")


def run_sweep(config: dict) -> list[dict]:
    """Execute a sweep configuration, returning CSV-ready row dicts.

    Keys that ``config`` omits take their values from ``SWEEP_DEFAULTS``.
    Rows appear in deterministic order (systems x tau x method x mode x
    eps). Failures are recorded with the ``--`` marker in the degree and
    bound columns and the exception class name in ``status``. Each system
    is enclosed once per mode, and that analysis is shared by the mode's
    cells; the verifying reference is computed once per (system, tau).
    Raises ValueError on a key outside ``SWEEP_KEYS``, or on a system with a
    key outside ``SYSTEM_KEYS`` or without one of ``REQUIRED_SYSTEM_KEYS``,
    or on a value of the wrong type, or on an unknown domain, method or
    mode, or on a value out of range (an ``eps`` outside (0, 1), a tau
    factor or ``d`` that is not finite and positive, a ``divisions`` or
    ``refine`` not finite or below ``fem.SMALLEST_INTERIOR_SIZE``), before any run.
    """
    _check_sweep_keys(config)
    config = {**SWEEP_DEFAULTS, **config}
    rows: list[dict] = []
    seed, modes = config["seed"], config["modes"]
    for spec_sys in config["systems"]:
        gen = {**GENERATOR_DEFAULTS, **spec_sys}
        system, mesh = _build_system(
            gen["domain"], int(gen["divisions"]), int(gen["refine"]), float(gen["d"]))
        analyses = {mode: analyze_pencil(system.M, system.K, seed=seed, mode=mode)
                    for mode in modes}
        base = {
            "shape": gen["domain"],
            "d": _fmt(float(gen["d"])),
            "n": system.n,
            "h_bar": _fmt(mesh.h_bar),
        }
        for tf in config["tau_factors"]:
            tau = float(tf) * mesh.h_bar
            p = Pencil(tau=tau, M=system.M, K=system.K)
            reference = _reference(p, system.b0, seed) if config["verify"] else None
            for method in config["methods"]:
                for mode in modes:
                    for eps in config["eps"]:
                        head = dict(base, tau_factor=_fmt(float(tf)), method=method,
                                    mode=mode, eps=_fmt(float(eps)))
                        req = ExpmvRequest(pencil=p, b=system.b0, eps=float(eps), method=method,
                                           mode=mode, seed=seed, analysis=analyses[mode])
                        try:
                            x, cert = expmv_controlled(req)
                        except ToleranceUnreachable as exc:
                            rows.append(_row(head, exc))
                        else:
                            rows.append(_row(head, cert, x, reference, system.b0))
    return rows


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_system_args(sub):
    sub.add_argument("--m", help="mass matrix file (Matrix Market)")
    sub.add_argument("--k", help="stiffness matrix file (Matrix Market)")
    sub.add_argument("--b", help="initial vector file (one value per line)")
    _add_generator_args(sub, dict.fromkeys(GENERATOR_DEFAULTS))


def _add_generator_args(sub, defaults=GENERATOR_DEFAULTS):
    sub.add_argument("--domain", choices=fem.DOMAINS, default=defaults["domain"])
    sub.add_argument("--divisions", type=int, default=defaults["divisions"],
                     help="square grid divisions")
    sub.add_argument("--refine", type=int, default=defaults["refine"],
                     help="star refinement rounds")
    sub.add_argument("--d", type=float, default=defaults["d"],
                     help="diffusion coefficient")


def _add_run_args(sub):
    sub.add_argument("--tau", type=float, default=None, help="absolute time step")
    sub.add_argument(
        "--tau-factor", type=float, default=1.0, help="time step as a multiple of h_bar"
    )
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expmrect",
        description="certified action of exp(tau inv(M) K) on a vector",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="build and write a FEM test system")
    _add_generator_args(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_generate)

    b = subs.add_parser("bound", help="numerical-range rectangle and condition bound")
    _add_system_args(b)
    _add_run_args(b)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bound)

    e = subs.add_parser("expmv", help="run the certified driver once")
    _add_system_args(e)
    _add_run_args(e)
    e.add_argument("--eps", type=float, default=1e-6)
    e.add_argument("--method", choices=METHODS, default="sub-pade")
    e.add_argument("--mode", choices=MODES, default="ii")
    e.add_argument(
        "--verify", action="store_true", help="compare against an expm_multiply reference"
    )
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_expmv)

    s = subs.add_parser("sweep", help="tabulate a grid of runs into CSV")
    s.add_argument("--config", help="JSON file overriding the default sweep grid")
    s.add_argument("--verify", action="store_true")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="sweep.csv")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExpmrectError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
