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
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from . import fem, mmio
from .bounds import MODES, Pencil, analyze_pencil, is_lhp_certified, rectangle_from_extremes
from .errors import ExpmrectError, NoConvergence, ToleranceUnreachable
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


# the verifying reference (see _reference): largest pole, the bound on
# gamma * nu_hat, stopping tolerance, the floor of its scale relative to
# ||b||, the step cap of one Krylov run, and how often a run's substep of
# tau may be halved. The hardest grid case took 175 steps in one run
# (star/5, d = 1e-3, tau = 30 h_bar); a full basis costs
# 16 * REFERENCE_MAX_STEPS * n bytes, 52 MB on square/128.
REFERENCE_GAMMA = 0.05
REFERENCE_GAMMA_NU = 0.36
REFERENCE_RTOL = 1e-13
REFERENCE_FLOOR = 1e-6
REFERENCE_MAX_STEPS = 200
REFERENCE_MAX_HALVINGS = 10


def _fmt(x) -> str:
    """CSV text of one value; a float (numpy's included) as its Python repr."""
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


# --------------------------------------------------------------------------
# system construction
# --------------------------------------------------------------------------

def _build_system(domain: str, divisions: int, refine: int, d: float):
    mesh = fem.mesh_square(divisions) if domain == "square" else fem.mesh_star(refine=refine)
    return fem.assemble_p1(mesh, d=d, c=(1.0, 1.0), domain=domain), mesh


def _load_system(args):
    """System from files (--m/--k, and --b where the command takes a vector;
    b is None otherwise) or generator parameters, not both."""
    given = {k: getattr(args, k) for k in GENERATOR_DEFAULTS if getattr(args, k) is not None}
    files = {k: getattr(args, k) for k in ("m", "k", "b") if hasattr(args, k)}
    if any(files.values()):
        if not all(files.values()):
            *head, last = ("--" + k for k in files)
            raise SystemExit(f"file input needs all of {', '.join(head)} and {last}")
        if given:
            raise SystemExit(f"file input would ignore {', '.join('--' + k for k in given)}")
        M = mmio.read_matrix_market(args.m)
        K = mmio.read_matrix_market(args.k)
        b = mmio.read_vector(args.b) if "b" in files else None
        h_bar = None
        params = Path(args.m).with_name("params.json")
        if params.exists():
            h_bar = json.loads(params.read_text()).get("h_bar")
        return M, K, b, h_bar, {"shape": "file", "d": float("nan")}
    gen = {**GENERATOR_DEFAULTS, **given}
    system, mesh = _build_system(**gen)
    meta = {"shape": gen["domain"], "d": gen["d"]}
    return system.M, system.K, system.b0, mesh.h_bar, meta


def _reference(p: Pencil, b):
    """exp(tau inv(M) K) b, the vector a verifying run compares against.

    Shift-and-invert Arnoldi (van den Eshof and Hochbruck, SIAM J. Sci.
    Comput. 27, 2006; Moret and Novati, BIT 44, 2004) on
    W = (M - gamma tau K)^-1 M = (I - gamma A)^-1, A = tau inv(M) K, in the
    M-inner product. One real ``lu_factor(M - gamma tau K, symmetric=True)``
    serves every step, and each step costs one solve with it and one product
    with M; the basis is orthogonalised twice against all earlier vectors,
    and its arrays double in length when full. With the Hessenberg matrix
    H_m the result is ||b||_M V_m exp(Hhat_m) e_1, Hhat_m = (I - inv(H_m)) /
    gamma. The step count does not grow with 1/h, as a Taylor method's does.

    The pole is gamma = min(``REFERENCE_GAMMA``, ``REFERENCE_GAMMA_NU`` /
    nu_hat), nu_hat = tau max_i sum_j |S_ij| / M_ii with S = (K - K^T) / 2,
    read from the pencil alone; S = 0 gives ``REFERENCE_GAMMA``. Every
    ceil(m / 8) steps x_m is formed with ``scipy.linalg.expm(Hhat_m)``; the
    iteration stops when two successive x_m differ by at most
    ``REFERENCE_RTOL`` max(||x_m||, ``REFERENCE_FLOOR`` ||b||), or when
    m = n, or when h_{m+1,m} = 0. ``measured_error`` is relative to ||b||,
    so once x has decayed below ``REFERENCE_FLOOR`` ||b|| two iterates need
    only agree to 1e-19 ||b||; with ||x_m|| alone as the scale, square/32
    d = 0.1, tau = 1000 h_bar (x = 4e-107 ||b||) took 175 steps, not 2.

    A run that reaches ``REFERENCE_MAX_STEPS`` steps covers a substep
    instead: exp(tau A) b = exp(tau A / 2) exp(tau A / 2) b, and the same
    factor serves tau / 2 with the pole 2 gamma, so Hhat_m / 2 of the run's
    basis is tested for tau / 2, tau / 4, ... against the same rule, and the
    largest substep that meets it is taken. Later runs start from the
    substep's result with the substep's length, so the step count and the
    basis memory (16 n ``REFERENCE_MAX_STEPS`` bytes) of a run stay bounded.

    Each accepted vector takes exp(s Hhat_m) e_1 from ``expm_multiply`` on
    the m x m matrix, whose error is vectorwise where ``expm``'s is
    normwise; the stopping rule does not check that last evaluation, which
    was measured 2e-13 to 8e-13 of ||x|| off on star/2, d = 0.1, tau = 10
    h_bar. Its norm estimate draws from numpy's global generator, which is
    seeded with 0 for the call and then restored, so the reference is
    reproducible and leaves the caller's random state alone.

    A complex b is taken by linearity, as ref(b.real) + 1j ref(b.imag), the
    way ``expmv.apply_partial_fraction`` applies it.

    Raises ``NoConvergence`` naming n, gamma and the last difference when a
    run's basis meets the rule for no substep down to tau /
    2**``REFERENCE_MAX_HALVINGS``.
    """
    if np.iscomplexobj(b):
        return _reference(p, b.real) + 1j * _reference(p, b.imag)
    M = p.M
    skew = abs(0.5 * (p.K - p.K.T))
    nu_hat = p.tau * float(np.max(np.asarray(skew.sum(axis=1)).ravel() / M.diagonal()))
    gamma = min(REFERENCE_GAMMA, REFERENCE_GAMMA_NU / nu_hat) if nu_hat > 0.0 else REFERENCE_GAMMA
    lu = lu_factor(M - gamma * p.tau * p.K, symmetric=True)
    floor = REFERENCE_FLOOR * norm2(b)
    x, left, step = b, 1.0, 1.0
    while left > 0.0:
        # fractions of tau are powers of two, so left stays a multiple of step
        x, step = _si_krylov_run(M, lu, gamma, x, step, floor)
        left -= step
    return x


def _si_krylov_run(M, lu, gamma, b, step, floor):
    """One Arnoldi run of ``_reference`` from b: (exp(s A) b, s) for the
    largest s in step, step / 2, ... that meets the stopping rule, whose
    scale is max(||x_m||, ``floor``)."""
    n = M.shape[0]
    Mb = M @ b
    beta = math.sqrt(b @ Mb)
    if beta == 0.0:  # b = 0, or a result that underflowed to 0
        return b, step
    # row j of V is the basis vector v_j, row j of MV is M v_j
    V, MV, H = np.empty((8, n)), np.empty((8, n)), np.zeros((9, 8))
    V[0], MV[0] = b / beta, Mb / beta

    def krylov_x(m, s, exp_e1):
        Hhat = s * (np.eye(m) - np.linalg.inv(H[:m, :m])) / gamma
        return beta * (exp_e1(Hhat) @ V[:m])

    def expm_x(m, s):
        return krylov_x(m, s, lambda A: scipy.linalg.expm(A)[:, 0])

    def difference(x, x_last):
        return norm2(x - x_last) / max(norm2(x), floor, np.finfo(float).tiny)

    checks, x_last, diff = [], None, np.inf
    last = min(n, REFERENCE_MAX_STEPS)
    for m in range(1, last + 1):
        if m == len(V):
            V, MV = (np.concatenate([A, np.empty_like(A)]) for A in (V, MV))
            H = np.pad(H, ((0, m), (0, m)))
        w = lu.solve(MV[m - 1])
        for _ in range(2):
            h = MV[:m] @ w
            w -= h @ V[:m]
            H[:m, m - 1] += h
        Mw = M @ w
        H[m, m - 1] = math.sqrt(w @ Mw)
        stop = m == n or H[m, m - 1] == 0.0
        if not checks or m == checks[-1] + math.ceil(checks[-1] / 8) or m == last or stop:
            x = expm_x(m, step)
            if x_last is not None:
                diff = difference(x, x_last)
                stop = stop or diff <= REFERENCE_RTOL
            x_last = x
            checks.append(m)
        if stop:
            break
        V[m], MV[m] = w / H[m, m - 1], Mw / H[m, m - 1]
    else:
        # the run is spent: test shorter substeps on its basis, at the cap
        # and at the check point before it
        while diff > REFERENCE_RTOL:
            if step <= 2.0**-REFERENCE_MAX_HALVINGS:
                raise NoConvergence(
                    f"verifying reference: {REFERENCE_MAX_STEPS} shift-and-invert Krylov steps "
                    f"did not converge for tau / 2**{REFERENCE_MAX_HALVINGS} (n={n}, "
                    f"gamma={gamma:.6g}, last difference {diff:.3g} of max(||x||, "
                    f"{REFERENCE_FLOOR:g} ||b||), "
                    f"target {REFERENCE_RTOL:g})"
                )
            step /= 2
            diff = difference(expm_x(m, step), expm_x(checks[-2], step))
    e1 = np.zeros(m)
    e1[0] = 1.0
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return krylov_x(m, step, lambda A: spla.expm_multiply(A, e1)), step
    finally:
        np.random.set_state(state)


def _row(head: dict, outcome, x=None, reference=None, b=None) -> dict:
    """The ``SWEEP_COLUMNS`` row of one driver run.

    ``head`` holds the columns fixed before the run: shape, d, n, h_bar,
    tau_factor, method, mode and eps. ``outcome`` is the run's certificate
    or its ``ToleranceUnreachable`` failure; ``kappa`` is the certificate's
    ``kappa_safe``, taken from the failure's context on a failure row.
    ``measured_error`` is ||x - reference|| / ||b|| when a reference is
    given, and ||x - reference|| when b = 0.
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
    if reference is None:
        measured = ""
    else:
        diff, scale = norm2(x - reference), norm2(b)
        measured = _fmt(diff / scale if scale > 0.0 else diff)
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
        "schema": "expmrect/params-v2",
        "domain": args.domain,
        "divisions": args.divisions if args.domain == "square" else None,
        "refine": args.refine if args.domain == "star" else None,
        "d": args.d,
        "c": [1.0, 1.0],
        "n": int(system.n),
        "n_vertices": int(mesh.n_vertices),
        "n_triangles": int(mesh.n_triangles),
        "h_bar": mesh.h_bar,
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
        "schema": "expmrect/bound-v3",
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
    # the request checks b and eps before the enclosure runs
    req = ExpmvRequest(pencil=p, b=b, eps=args.eps, method=args.method)
    req = dataclasses.replace(
        req, analysis=analyze_pencil(p.M, p.K, seed=args.seed, mode=args.mode))
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    try:
        x, cert = expmv_controlled(req)
    except ToleranceUnreachable as exc:
        failure = {
            "schema": "expmrect/certificate-v2",
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
    if out:  # written first: the reference below can fail, the result stands
        mmio.write_vector(out / "result.txt", x)
        (out / "certificate.json").write_text(cert.to_json() + "\n")
    reference = _reference(p, b) if args.verify else None
    row = _row(head, cert, x, reference, b)
    if out:
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
    out = Path(args.out or "sweep.csv")
    if out.is_dir():
        out = out / "sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)  # before any run, not after the grid
    rows = run_sweep(config)
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
    cells. With ``verify`` the reference (``_reference``) is computed at
    most once per (system, tau), when the first ``ok`` cell needs it, so a
    (system, tau) whose cells all fail never computes it.
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
            reference = None  # computed for the first ok row that needs it
            for method in config["methods"]:
                for mode in modes:
                    for eps in config["eps"]:
                        head = dict(base, tau_factor=_fmt(float(tf)), method=method,
                                    mode=mode, eps=_fmt(float(eps)))
                        req = ExpmvRequest(pencil=p, b=system.b0, eps=float(eps), method=method,
                                           analysis=analyses[mode])
                        try:
                            x, cert = expmv_controlled(req)
                        except ToleranceUnreachable as exc:
                            rows.append(_row(head, exc))
                        else:
                            if config["verify"] and reference is None:
                                reference = _reference(p, system.b0)
                            rows.append(_row(head, cert, x, reference, system.b0))
    return rows


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_system_args(sub):
    sub.add_argument("--m", help="mass matrix file (Matrix Market)")
    sub.add_argument("--k", help="stiffness matrix file (Matrix Market)")
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
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_generate)

    b = subs.add_parser("bound", help="numerical-range rectangle and condition bound")
    _add_system_args(b)
    _add_run_args(b)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bound)

    e = subs.add_parser("expmv", help="run the certified driver once")
    _add_system_args(e)
    e.add_argument("--b", help="initial vector file (one value per line)")
    _add_run_args(e)
    e.add_argument("--eps", type=float, default=1e-6)
    e.add_argument("--method", choices=METHODS, default="sub-pade")
    e.add_argument("--mode", choices=MODES, default="ii")
    e.add_argument(
        "--verify", action="store_true", help="compare against a shift-and-invert Krylov reference"
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
    except (ExpmrectError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
