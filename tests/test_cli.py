"""Command line round trips: generate, bound, expmv, sweep.

Small systems keep the runs fast; determinism is asserted at the byte level
because the CSV/JSON outputs are the package's exchange format.
"""
from __future__ import annotations

import csv
import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from expmrect import bounds, cli, expmv, mmio
from expmrect.bounds import Pencil
from expmrect.errors import NoConvergence, ToleranceUnreachable
from expmrect.expmv import expm_dense_oracle
from expmrect.linalg import LuFactor, lu_factor, norm2

from test_bounds import assert_degenerate_edges, degenerate_pencils


def run_cli(*argv):
    return cli.main(list(argv))


def test_generate_writes_complete_system(tmp_path):
    out = tmp_path / "sys"
    rc = run_cli("generate", "--domain", "square", "--divisions", "8", "--out", str(out))
    assert rc == 0
    for name in ("M.mtx", "K.mtx", "b0.txt", "mesh.txt", "params.json"):
        assert (out / name).exists()
    params = json.loads((out / "params.json").read_text())
    assert params["schema"] == "expmrect/params-v2"
    assert "seed" not in params  # generate draws no random number
    assert params["n"] == 49
    assert params["divisions"] == 8 and params["refine"] is None
    M = mmio.read_matrix_market(out / "M.mtx")
    assert (abs(M - M.T) > 0).nnz == 0  # symmetric storage round trip


def test_generate_star_params(tmp_path):
    out = tmp_path / "star"
    rc = run_cli("generate", "--domain", "star", "--refine", "2", "--out", str(out))
    assert rc == 0
    params = json.loads((out / "params.json").read_text())
    assert params["domain"] == "star"
    assert params["refine"] == 2 and params["divisions"] is None
    assert params["n_triangles"] == 128


@pytest.mark.parametrize("d", ["nan", "inf"])
def test_generate_refuses_a_non_finite_d(tmp_path, capsys, d):
    # such a d would give a K of NaN or Inf entries and a params.json that
    # strict JSON parsers reject
    out = tmp_path / "sys"
    assert run_cli("generate", "--divisions", "8", "--d", d, "--out", str(out)) == 1
    assert "finite and positive" in capsys.readouterr().err
    assert not (out / "K.mtx").exists() and not (out / "params.json").exists()


@pytest.mark.parametrize("flag", ["--m", "--k", "--b", "--seed"])
def test_generate_rejects_file_flags(tmp_path, flag):
    # generate builds its system from the generator flags alone, so a file
    # flag is a usage error, not silently ignored; nothing in it is random,
    # so a seed would only be echoed
    out = tmp_path / "sys"
    with pytest.raises(SystemExit) as ei:
        run_cli("generate", flag, str(tmp_path / "missing"), "--domain", "square",
                "--divisions", "4", "--out", str(out))
    assert ei.value.code == 2
    assert not out.exists()


def test_bound_reports_lhp_rectangle(tmp_path, capsys):
    rc = run_cli("bound", "--domain", "square", "--divisions", "8",
                 "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "rectangle.json").read_text())
    assert payload["schema"] == "expmrect/bound-v3"
    assert set(payload) == {"schema", "rectangle", "lhp_certified", "kappa_safe", "tau"}
    assert payload["lhp_certified"] is True
    assert payload["rectangle"]["mu_max"] < 0.0
    assert payload["kappa_safe"] > 1.0
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_expmv_writes_result_and_certificate(tmp_path, capsys):
    out = tmp_path / "run"
    rc = run_cli(
        "expmv", "--domain", "square", "--divisions", "8", "--eps", "1e-5",
        "--method", "rat-interp", "--verify", "--out", str(out),
    )
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["schema"] == "expmrect/certificate-v2"
    assert cert["achieved_bound"] <= cert["scalar_target"]
    x = mmio.read_vector(out / "result.txt")
    rows = (out / "run.csv").read_text().splitlines()
    assert rows[0].split(",") == cli.SWEEP_COLUMNS
    fields = dict(zip(cli.SWEEP_COLUMNS, rows[1].split(",")))
    assert fields["status"] == "ok"
    assert float(fields["measured_error"]) <= 1e-5
    assert fields["method"] == "rat-interp"
    assert int(fields["n"]) == x.shape[0] == 49


def test_expmv_from_files_roundtrip(tmp_path):
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "8", "--out", str(gen))
    out = tmp_path / "run"
    rc = run_cli(
        "expmv", "--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx"),
        "--b", str(gen / "b0.txt"), "--eps", "1e-4", "--out", str(out),
    )
    assert rc == 0
    x = mmio.read_vector(out / "result.txt")
    M = mmio.read_matrix_market(gen / "M.mtx")
    K = mmio.read_matrix_market(gen / "K.mtx")
    b = mmio.read_vector(gen / "b0.txt")
    h_bar = json.loads((gen / "params.json").read_text())["h_bar"]
    A = h_bar * lu_factor(M).solve(K.toarray())
    assert norm2(x - expm_dense_oracle(A) @ b) / norm2(b) <= 1e-4


@pytest.mark.parametrize("operand", ["M", "K", "b"])
def test_expmv_rejects_non_finite_file_input(operand, tmp_path, capsys):
    # one NaN in any input file fails before anything is written, instead of
    # a result of NaNs with a finite certificate or a misleading solver error
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "8", "--out", str(gen))
    if operand == "b":
        lines = (gen / "b0.txt").read_text().splitlines()
        lines[7] = "nan"
        (gen / "b0.txt").write_text("\n".join(lines) + "\n")
    else:
        A = mmio.read_matrix_market(gen / f"{operand}.mtx")
        A.data[3] = np.nan
        mmio.write_matrix_market(gen / f"{operand}.mtx", A)
    capsys.readouterr()
    out = tmp_path / "run"
    rc = run_cli(
        "expmv", "--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx"),
        "--b", str(gen / "b0.txt"), "--out", str(out),
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: ValueError: {operand} contains NaN or Inf entries"]
    assert not (out / "result.txt").exists()


@pytest.mark.parametrize("name", ["neumann", "transport", "zero"])
def test_bound_encloses_a_singular_symmetric_part_from_files(name, tmp_path):
    M, pencils = degenerate_pencils()
    K = pencils[name]
    mmio.write_matrix_market(tmp_path / "M.mtx", M, symmetric=True)
    mmio.write_matrix_market(tmp_path / "K.mtx", K)
    rc = run_cli("bound", "--m", str(tmp_path / "M.mtx"), "--k", str(tmp_path / "K.mtx"),
                 "--tau", "1", "--out", str(tmp_path))
    assert rc == 0
    rect = json.loads((tmp_path / "rectangle.json").read_text())["rectangle"]
    # tau = 1, and an edge that is exactly 0 comes out as +-INFLATION_FLOOR
    edges = [0.0 if abs(rect[key]) == bounds.INFLATION_FLOOR else rect[key]
             for key in ("mu_min", "mu_max", "nu_max")]
    assert_degenerate_edges(edges, M, K)


def test_expmv_checks_eps_before_enclosing(tmp_path, capsys, monkeypatch):
    def enclosing(*args, **kwargs):
        raise AssertionError("the pencil was enclosed before eps was checked")

    monkeypatch.setattr(cli, "analyze_pencil", enclosing)
    out = tmp_path / "run"
    assert run_cli("expmv", "--divisions", "8", "--eps", "2", "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == ["error: ValueError: eps must lie in (0, 1)"]
    assert not out.exists()


def test_expmv_verifies_a_zero_b(tmp_path, capsys):
    # ||b|| = 0: the measured error is the absolute difference, not 0 / 0
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "8", "--out", str(gen))
    mmio.write_vector(gen / "zero.txt", np.zeros(49))
    out = tmp_path / "run"
    rc = run_cli("expmv", "--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx"),
                 "--b", str(gen / "zero.txt"), "--verify", "--out", str(out))
    assert rc == 0
    assert not mmio.read_vector(out / "result.txt").any()
    with open(out / "run.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "ok" and float(row["measured_error"]) == 0.0
    assert "measured relative error: 0.000e+00" in capsys.readouterr().out


def test_expmv_requires_all_three_files(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("expmv", "--m", "only_m.mtx")


@pytest.mark.parametrize("command", ["bound", "expmv"])
def test_file_input_refuses_generator_flags(tmp_path, command):
    # the files fix the system, so a generator flag next to them would be
    # silently ignored; it is refused, naming the flags
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "4", "--out", str(gen))
    files = ["--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx")]
    if command == "expmv":
        files += ["--b", str(gen / "b0.txt")]
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as ei:
        run_cli(command, *files, "--divisions", "8", "--d", "1e-3", "--out", str(out))
    assert "--divisions, --d" in str(ei.value.code)
    assert not out.exists()
    assert run_cli(command, *files, "--out", str(out)) == 0


def test_bound_takes_m_and_k_alone(tmp_path, capsys):
    # bound reads no vector, so file input is --m and --k, and --b is unknown
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "4", "--out", str(gen))
    files = ["--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx")]
    capsys.readouterr()
    assert run_cli("bound", *files, "--tau", "0.1") == 0
    assert json.loads(capsys.readouterr().out)["tau"] == 0.1
    with pytest.raises(SystemExit) as ei:
        run_cli("bound", *files, "--b", str(gen / "b0.txt"), "--tau", "0.1")
    assert ei.value.code == 2
    with pytest.raises(SystemExit, match="needs all of --m and --k"):
        run_cli("bound", "--m", str(gen / "M.mtx"), "--tau", "0.1")


def test_expmv_verifies_a_complex_b(tmp_path, capsys):
    # the reference takes b.real and b.imag by linearity, as the driver does;
    # a real-only reference measured 5.4e-1 here
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "8", "--out", str(gen))
    b0 = mmio.read_vector(gen / "b0.txt")
    mmio.write_vector(gen / "b0c.txt", b0 + 1j * b0)
    out = tmp_path / "run"
    assert run_cli("expmv", "--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx"),
                   "--b", str(gen / "b0c.txt"), "--verify", "--out", str(out)) == 0
    with open(out / "run.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["measured_error"]) <= float(row["certified_bound"]) <= 1e-6
    M, K = (mmio.read_matrix_market(gen / f"{name}.mtx") for name in ("M", "K"))
    p = Pencil(tau=json.loads((gen / "params.json").read_text())["h_bar"], M=M, K=K)
    b = b0 + 1j * b0
    exact = scipy.linalg.expm(p.tau * np.linalg.solve(M.toarray(), K.toarray())) @ b
    assert norm2(cli._reference(p, b) - exact) <= 1e-13 * norm2(b)
    assert np.array_equal(cli._reference(p, b0), cli._reference(p, b).real)


@pytest.mark.parametrize("argv", [
    ("expmv", "--m", "nope.mtx", "--k", "nope.mtx", "--b", "nope.txt"),
    ("bound", "--m", "nope.mtx", "--k", "nope.mtx", "--tau", "1"),
    ("sweep", "--config", "missing.json"),
], ids=["expmv", "bound", "sweep"])
def test_main_reports_a_missing_file(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: FileNotFoundError: ")


def test_sweep_makes_the_directory_of_out_before_any_run(tmp_path, monkeypatch):
    # a missing directory used to fail only after the whole grid had run
    out = tmp_path / "missing" / "dir" / "s.csv"

    def run_sweep(config):
        assert out.parent.is_dir()
        return []

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    assert run_cli("sweep", "--out", str(out)) == 0
    assert out.read_text().splitlines() == [",".join(cli.SWEEP_COLUMNS)]


def test_expmv_failure_writes_status_certificate(tmp_path, capsys):
    # the graded star mesh keeps the rectangle wide and anchored near zero,
    # where no admissible scaling reaches 1e-8
    out = tmp_path / "fail"
    rc = run_cli(
        "expmv", "--domain", "star", "--refine", "2", "--eps", "1e-8",
        "--tau-factor", "20", "--method", "sub-pade", "--out", str(out),
    )
    assert rc == 1
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["status"] == "ScalingExhausted"
    assert "rectangle" in cert["context"]
    assert not (out / "result.txt").exists()


def test_sweep_deterministic_bytes(tmp_path):
    config = {
        "systems": [{"domain": "square", "divisions": 8, "d": 1e-1}],
        "tau_factors": [1.0],
        "eps": [1e-2, 1e-4],
        "methods": ["sub-pade", "rat-interp"],
        "modes": ["ii", "i"],
        "verify": True,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0].split(",") == cli.SWEEP_COLUMNS
    assert len(lines) == 1 + 8  # header + 2 methods x 2 modes x 2 eps
    for line in lines[1:]:
        fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
        assert fields["status"] == "ok"
        assert float(fields["measured_error"]) <= float(fields["eps"])
        # The certified bound column carries the full operator-level bound,
        # so it must dominate the measured error and respect the request.
        bound = float(fields["certified_bound"])
        assert float(fields["measured_error"]) <= bound
        assert bound <= float(fields["eps"]) * (1.0 + 1e-12)


def test_sweep_records_failures_with_marker(tmp_path):
    config = {
        "systems": [{"domain": "star", "refine": 2, "d": 1e-1}],
        "tau_factors": [20.0],
        "eps": [1e-8],
        "methods": ["sub-pade"],
        "modes": ["ii"],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
    line = out.read_text().splitlines()[1]
    fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
    assert fields["degree"] == cli.FAILURE_MARK
    assert fields["certified_bound"] == cli.FAILURE_MARK
    assert fields["status"] == "ScalingExhausted"


def _count_calls(monkeypatch, name):
    """Count calls to bounds.<name>, through every module that holds it."""
    calls = []
    original = getattr(bounds, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (bounds, cli, expmv):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_encloses_each_system_once(monkeypatch):
    enclosures = _count_calls(monkeypatch, "raw_extremes")
    kappas = _count_calls(monkeypatch, "cond_estimate")
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 8, "d": 1e-1}],
        "tau_factors": [1.0, 10.0],
        "eps": [1e-4],
        "methods": ["sub-pade", "rat-interp"],
        "modes": ["ii", "i"],
    })
    # one enclosure per mode, and each certifies its own mass once: M in
    # mode "ii", whose kappa the analysis keeps, and M M in mode "i"
    assert len(rows) == 8 and all(row["status"] == "ok" for row in rows)
    assert len(enclosures) == 2 and len(kappas) == 2
    assert all(kappa[0] is enclosure[0] for kappa, enclosure in zip(kappas, enclosures))


def test_sweep_kappa_column_is_kappa_safe_beyond_dense_cutoff(monkeypatch):
    # the column carries the certified kappa_safe that the analysis
    # computed and the certificate used
    runs = []
    original = cli.expmv_controlled

    def recorded(req):
        x, cert = original(req)
        runs.append((req, cert))
        return x, cert

    monkeypatch.setattr(cli, "expmv_controlled", recorded)
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 8, "d": 1e-1}],
        "tau_factors": [1.0],
        "eps": [1e-2],
        "methods": ["sub-pade"],
        "modes": ["ii"],
    })
    (row,), ((req, cert),) = rows, runs
    assert row["n"] == 49 and row["status"] == "ok"
    assert row["kappa"] == repr(cert.kappa_safe)
    assert cert.kappa_safe == req.analysis.kappa_safe > 1.0


def test_expmv_certifies_square_128(tmp_path):
    # n = 16129, the north-star scale point, verified like any other size
    out = tmp_path / "run"
    rc = run_cli("expmv", "--domain", "square", "--divisions", "128", "--eps", "1e-6",
                 "--verify", "--out", str(out))
    assert rc == 0
    rows = (out / "run.csv").read_text().splitlines()
    fields = dict(zip(cli.SWEEP_COLUMNS, rows[1].split(",")))
    assert int(fields["n"]) == 16129
    assert fields["status"] == "ok"
    assert float(fields["measured_error"]) <= float(fields["certified_bound"]) <= 1e-6


def test_expmv_verifies_beyond_dense_size(tmp_path):
    # 56 divisions give n = 3025, more unknowns than a dense exponential takes
    out = tmp_path / "run"
    rc = run_cli("expmv", "--divisions", "56", "--eps", "1e-6", "--verify", "--out", str(out))
    assert rc == 0
    rows = (out / "run.csv").read_text().splitlines()
    fields = dict(zip(cli.SWEEP_COLUMNS, rows[1].split(",")))
    assert int(fields["n"]) == 3025
    assert fields["status"] == "ok"
    assert float(fields["measured_error"]) <= float(fields["certified_bound"]) <= 1e-6


def test_sweep_verifies_beyond_dense_size():
    # square/64 has n = 3969, more unknowns than a dense exponential takes
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 64, "d": 1e-1}],
        "eps": [1e-6],
        "verify": True,
    })
    assert len(rows) == 2 and {row["n"] for row in rows} == {3969}
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["measured_error"]) <= float(row["certified_bound"]) <= 1e-6


def test_sweep_verify_forms_no_dense_operator(monkeypatch):
    calls = []
    original = expmv.expm_dense_oracle

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, expmv):
        if hasattr(module, "expm_dense_oracle"):
            monkeypatch.setattr(module, "expm_dense_oracle", counted)
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 8, "d": 1e-1}],
        "eps": [1e-6],
        "verify": True,
    })
    assert all(row["measured_error"] for row in rows)
    assert calls == []


@pytest.mark.parametrize("domain, size", [("square", 8), ("star", 2)])
@pytest.mark.parametrize("tau_factor", [1.0, 10.0])
def test_reference_matches_dense_expm(domain, size, tau_factor):
    system, mesh = cli._build_system(domain, size, size, 1e-1)
    p = Pencil(tau=tau_factor * mesh.h_bar, M=system.M, K=system.K)
    A = p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())
    want = scipy.linalg.expm(A) @ system.b0
    got = cli._reference(p, system.b0)
    assert norm2(got - want) <= 1e-12 * norm2(want)


def test_reference_is_reproducible_and_leaves_numpy_state_alone():
    system, mesh = cli._build_system("square", 8, 8, 1e-1)
    p = Pencil(tau=mesh.h_bar, M=system.M, K=system.K)
    state = np.random.get_state()
    first = cli._reference(p, system.b0)
    assert np.array_equal(cli._reference(p, system.b0), first)
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(state, after))


# the (system, tau) references of the 72-cell sweep --verify grid: the four
# reference systems at tau = h, 10h and 30h
GRID_REFERENCES = [
    (domain, size, d, tau_factor)
    for domain, size in (("square", 32), ("star", 4))
    for d in (1e-1, 1e-3)
    for tau_factor in (1.0, 10.0, 30.0)
]


@pytest.mark.parametrize("domain, size, d, tau_factor", GRID_REFERENCES)
def test_reference_matches_expm_multiply_on_the_sweep_grid(domain, size, d, tau_factor):
    system, mesh = cli._build_system(domain, size, size, d)
    p = Pencil(tau=tau_factor * mesh.h_bar, M=system.M, K=system.K)
    A = p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())
    want = spla.expm_multiply(A, system.b0)
    assert norm2(cli._reference(p, system.b0) - want) <= 1e-12 * norm2(want)


def test_reference_factors_once(monkeypatch):
    factored = []

    def counted(A, **kwargs):
        factored.append(A.shape)
        return lu_factor(A, **kwargs)

    monkeypatch.setattr(cli, "lu_factor", counted)
    system, mesh = cli._build_system("star", 2, 2, 1e-1)
    p = Pencil(tau=10 * mesh.h_bar, M=system.M, K=system.K)
    cli._reference(p, system.b0)
    assert factored == [(p.n, p.n)]


def test_reference_step_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(cli, "REFERENCE_MAX_STEPS", 3)
    system, mesh = cli._build_system("square", 8, 8, 1e-1)
    p = Pencil(tau=mesh.h_bar, M=system.M, K=system.K)
    # nu_hat is about 3 on square/8 at tau = h, so gamma is REFERENCE_GAMMA
    with pytest.raises(NoConvergence, match=r"3 shift-and-invert Krylov steps did not converge "
                                             r"for tau / 2\*\*10 \(n=49, gamma=0\.05, "
                                             r"last difference \d"):
        cli._reference(p, system.b0)


def _count_runs(monkeypatch):
    """The substep of tau that each Krylov run of ``_reference`` covered."""
    steps, run = [], cli._si_krylov_run

    def counted(*args):
        x, step = run(*args)
        steps.append(step)
        return x, step

    monkeypatch.setattr(cli, "_si_krylov_run", counted)
    return steps


def test_reference_takes_substeps_past_the_step_cap(monkeypatch):
    # convection-dominated at large tau: one run would need more than 60 steps
    monkeypatch.setattr(cli, "REFERENCE_MAX_STEPS", 60)
    steps = _count_runs(monkeypatch)
    system, mesh = cli._build_system("square", 16, 16, 1e-3)
    p = Pencil(tau=100 * mesh.h_bar, M=system.M, K=system.K)
    want = scipy.linalg.expm(p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())) @ system.b0
    got = cli._reference(p, system.b0)
    assert len(steps) > 1 and sum(steps) == 1.0
    assert norm2(got - want) <= 1e-12 * norm2(want)


def test_reference_stops_on_a_decayed_solution_at_its_floor(monkeypatch):
    # x has decayed to 1e-16 ||b||; measured_error is relative to ||b||, so
    # the stopping rule's scale is REFERENCE_FLOOR ||b||, not ||x_m|| alone
    solves, solve = [], LuFactor.solve
    monkeypatch.setattr(LuFactor, "solve", lambda self, b: solves.append(b) or solve(self, b))
    system, mesh = cli._build_system("square", 8, 8, 1e-1)
    p = Pencil(tau=40 * mesh.h_bar, M=system.M, K=system.K)
    want = scipy.linalg.expm(p.tau * np.linalg.solve(p.M.toarray(), p.K.toarray())) @ system.b0
    got = cli._reference(p, system.b0)
    assert norm2(want) < 1e-8 * norm2(system.b0)
    assert norm2(got - want) <= 1e-13 * 1e-6 * norm2(system.b0)
    assert len(solves) == 20  # 34 with the scale ||x_m||


def test_reference_of_zero_is_zero():
    system, mesh = cli._build_system("square", 8, 8, 1e-1)
    p = Pencil(tau=mesh.h_bar, M=system.M, K=system.K)
    assert not cli._reference(p, 0.0 * system.b0).any()


def test_sweep_verifies_a_convection_dominated_cell_past_the_step_cap(monkeypatch):
    monkeypatch.setattr(cli, "REFERENCE_MAX_STEPS", 60)
    steps = _count_runs(monkeypatch)
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 16, "d": 1e-3}],
        "tau_factors": [100.0],
        "methods": ["rat-interp"],
        "eps": [1e-2, 1e-6],
        "verify": True,
    })
    assert len(steps) > 1
    assert [row["status"] for row in rows] == ["ok", "ok"]
    for row in rows:
        assert float(row["measured_error"]) <= float(row["certified_bound"])


def test_sweep_verifies_square_64_convection_dominated_at_tau_100h():
    # one Krylov run would take 1168 steps here; the reference takes substeps
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 64, "d": 1e-3}],
        "tau_factors": [100.0],
        "methods": ["rat-interp"],
        "eps": [1e-6],
        "verify": True,
    })
    (row,) = rows
    assert row["status"] == "ok"
    assert float(row["measured_error"]) <= float(row["certified_bound"]) <= 1e-6


def test_expmv_writes_its_result_before_a_failing_reference(tmp_path, monkeypatch):
    def fail(p, b):
        raise NoConvergence("forced")

    monkeypatch.setattr(cli, "_reference", fail)
    out = tmp_path / "run"
    assert run_cli("expmv", "--divisions", "8", "--verify", "--out", str(out)) == 1
    assert mmio.read_vector(out / "result.txt").shape == (49,)
    assert json.loads((out / "certificate.json").read_text())["schema"] == "expmrect/certificate-v2"
    assert not (out / "run.csv").exists()


def test_fmt_writes_numpy_floats_as_python_floats():
    assert cli._fmt(np.float64(0.1)) == "0.1" == cli._fmt(0.1)
    assert cli._fmt(np.int64(3)) == "3"


def test_sweep_computes_the_reference_only_for_an_ok_row(monkeypatch):
    # every cell at tau = h fails, so only tau = 10h needs a reference
    _, mesh = cli._build_system("square", 8, 8, 1e-1)
    references, run, reference = [], cli.expmv_controlled, cli._reference

    def fail_at_h(req):
        if req.pencil.tau < 2 * mesh.h_bar:
            raise ToleranceUnreachable("forced", context={"kappa_safe": 1.0})
        return run(req)

    def counted(p, b):
        references.append(p.tau)
        return reference(p, b)

    monkeypatch.setattr(cli, "expmv_controlled", fail_at_h)
    monkeypatch.setattr(cli, "_reference", counted)
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 8, "d": 1e-1}],
        "tau_factors": [1.0, 10.0],
        "eps": [1e-2, 1e-6],
        "verify": True,
    })
    assert [row["status"] for row in rows] == ["ToleranceUnreachable"] * 4 + ["ok"] * 4
    assert all(row["measured_error"] for row in rows[4:])
    assert references == [10 * mesh.h_bar]


def test_sweep_verifies_the_scale_point():
    # square/128, n = 16129: the expm_multiply reference took 23-32 s at tau = 10h
    rows = cli.run_sweep({
        "systems": [{"domain": "square", "divisions": 128, "d": 1e-1}],
        "tau_factors": [1.0, 10.0],
        "methods": ["sub-pade"],
        "eps": [1e-6],
        "verify": True,
    })
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["measured_error"]) <= float(row["certified_bound"]) <= 1e-6


def test_sweep_empty_systems_header_only(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": []}))
    out = tmp_path / "empty.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_text().splitlines() == [",".join(cli.SWEEP_COLUMNS)]


@pytest.mark.parametrize("command", [("bound",), ("expmv",), ("expmv", "--mode", "i")],
                         ids=["bound", "expmv", "expmv-mode-i"])
def test_one_unknown_fails_cleanly(command, capsys):
    # a 2-division square has one interior vertex, too few for eigsh
    rc = run_cli(*command, "--domain", "square", "--divisions", "2")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ") and "n=1" in err[0]


def test_main_reports_package_errors(capsys):
    rc = run_cli("expmv", "--domain", "square", "--divisions", "1", "--eps", "1e-6")
    # a 1-division square has no interior vertices: DegenerateMesh -> exit 1
    assert rc == 1
    assert "DegenerateMesh" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--eps", "2"), "eps must lie in"),
])
def test_main_reports_request_errors(argv, message, capsys):
    rc = run_cli("expmv", "--domain", "square", *argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and message in err


def test_mode_i_runs_beyond_dense_size(tmp_path):
    # 56 divisions give n = 3025, above ORACLE_CUTOFF: mode "i" forms no
    # dense matrix
    run = tmp_path / "run"
    assert run_cli("expmv", "--domain", "square", "--divisions", "56", "--mode", "i",
                   "--verify", "--out", str(run)) == 0
    row = dict(zip(cli.SWEEP_COLUMNS, (run / "run.csv").read_text().splitlines()[1].split(",")))
    assert row["n"] == "3025" and row["mode"] == "i" and row["status"] == "ok"
    assert float(row["measured_error"]) <= float(row["certified_bound"]) <= 1e-6


def test_sweep_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_factor": [10.0]}))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
    assert "'tau_factor'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_unknown_system_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [{"domain": "square", "division": 4, "d": 0.1}]}))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
    assert "'division'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([1], "must hold a JSON object, not list"),
    ({"systems": [{"domain": "square", "divisions": 4}]}, "lacks required key(s) ['d']"),
    ({"systems": [{"divisions": 4, "d": 0.1}]}, "lacks required key(s) ['domain']"),
    # values of the wrong JSON type, refused before any run
    ({"modes": "ii"}, "key 'modes' must be an array, not 'ii'"),
    ({"tau_factors": 1}, "key 'tau_factors' must be an array, not 1"),
    ({"systems": {"domain": "square", "d": 0.1}}, "key 'systems' must be an array"),
    ({"eps": {}}, "key 'eps' must be an array"),
    ({"methods": "sub-pade"}, "key 'methods' must be an array"),
    ({"verify": "false"}, "key 'verify' must be a boolean, not 'false'"),
    ({"verify": 1}, "key 'verify' must be a boolean, not 1"),
    ({"seed": 1.0}, "key 'seed' must be an integer, not 1.0"),
    ({"seed": True}, "key 'seed' must be an integer, not True"),
    ({"tau_factors": [1, "10"]}, "entry of 'tau_factors' must be a number, not '10'"),
    ({"eps": [True]}, "entry of 'eps' must be a number, not True"),
    ({"systems": ["square"]}, "entry of 'systems' must be an object, not 'square'"),
    ({"systems": [{"domain": "square", "divisions": "4", "d": 0.1}]},
     "system key 'divisions' must be a number, not '4'"),
    ({"systems": [{"domain": "star", "refine": False, "d": 0.1}]},
     "system key 'refine' must be a number, not False"),
    ({"systems": [{"domain": "square", "d": None}]}, "system key 'd' must be a number, not None"),
    ({"systems": [{"domain": 1, "d": 0.1}]}, "system key 'domain' must be a string, not 1"),
])
def test_sweep_rejects_malformed_config(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"systems": [{"domain": "star", "refine": 4, "d": 1e-3}, {"domain": "Star", "d": 0.1}]},
     "system key 'domain' must be one of ['square', 'star'], not 'Star'"),
    ({"methods": ["sub-pade", "Pade"]},
     "entry of 'methods' must be one of ['sub-pade', 'rat-interp'], not 'Pade'"),
    ({"modes": ["ii", "I"]}, "entry of 'modes' must be one of ['i', 'ii'], not 'I'"),
], ids=["domain", "method", "mode"])
def test_sweep_checks_names_before_any_run(tmp_path, capsys, monkeypatch, config, message):
    _assert_refused_before_any_run(tmp_path, capsys, monkeypatch, config, message)


def _assert_refused_before_any_run(tmp_path, capsys, monkeypatch, config, message):
    built = []
    monkeypatch.setattr(cli, "_build_system", lambda *args: built.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": [{"domain": "square", "divisions": 8, "d": 0.1}],
                               **config}))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ") and message in err[0]
    assert built == [] and not out.exists()


@pytest.mark.parametrize("config, message", [
    ({"eps": [1e-6, 2.0]}, "entry of 'eps' must be in (0, 1), not 2.0"),
    ({"tau_factors": [1, -1]}, "entry of 'tau_factors' must be finite and positive, not -1"),
    ({"systems": [{"domain": "square", "divisions": 8, "d": 0.1},
                  {"domain": "square", "divisions": 0, "d": 0.1}]},
     "system key 'divisions' must be finite and at least 2, not 0"),
    ({"systems": [{"domain": "square", "divisions": float("inf"), "d": 0.1}]},
     "system key 'divisions' must be finite and at least 2, not inf"),
    ({"systems": [{"domain": "square", "divisions": 8, "d": 0.1},
                  {"domain": "star", "d": -0.1}]},
     "system key 'd' must be finite and positive, not -0.1"),
    ({"systems": [{"domain": "star", "refine": -1, "d": 0.1}]},
     "system key 'refine' must be finite and at least 1, not -1"),
    # meshes without an interior vertex, which used to end in DegenerateMesh
    ({"systems": [{"domain": "square", "divisions": 1, "d": 0.1}]},
     "system key 'divisions' must be finite and at least 2, not 1"),
    ({"systems": [{"domain": "star", "refine": 0, "d": 0.1}]},
     "system key 'refine' must be finite and at least 1, not 0"),
], ids=["eps", "tau_factor", "divisions", "divisions_inf", "d", "refine", "divisions_1",
        "refine_0"])
def test_sweep_checks_values_before_any_run(tmp_path, capsys, monkeypatch, config, message):
    _assert_refused_before_any_run(tmp_path, capsys, monkeypatch, config, message)


def test_sweep_api_and_cli_share_the_default_grid(tmp_path):
    # keys a config omits take the documented grid's values either way
    config = {"systems": [{"domain": "square", "divisions": 4, "d": 0.1}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out, api = tmp_path / "cli.csv", tmp_path / "api.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 0
    with open(api, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cli.SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(cli.run_sweep(config))
    assert api.read_bytes() == out.read_bytes()
    assert len(out.read_text().splitlines()) == 1 + 8  # 4 tolerances x 2 methods


@pytest.mark.parametrize("mode", ["i", "ii"])
def test_expmv_run_csv_matches_sweep_row(tmp_path, mode):
    # kappa is the certificate's kappa_safe (1.0 in mode i) and tau_factor
    # the factor as given, in both emitters
    run = tmp_path / "run"
    assert run_cli("expmv", "--domain", "square", "--divisions", "8", "--tau-factor", "30",
                   "--mode", mode, "--verify", "--out", str(run)) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "systems": [{"domain": "square", "divisions": 8, "d": 0.1}],
        "tau_factors": [30.0],
        "eps": [1e-6],
        "methods": ["sub-pade"],
        "modes": [mode],
        "verify": True,
    }))
    sweep = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(sweep)) == 0
    assert (run / "run.csv").read_bytes() == sweep.read_bytes()
    assert (run / "run.csv").read_text().splitlines()[1].split(",")[-1] == "ok"
