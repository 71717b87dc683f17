"""Command line round trips: generate, bound, expmv, sweep.

Small systems keep the runs fast; determinism is asserted at the byte level
because the CSV/JSON outputs are the package's exchange format.
"""
from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg

from expmrect import bounds, cli, expmv, mmio
from expmrect.bounds import Pencil
from expmrect.expmv import expm_dense_oracle
from expmrect.linalg import lu_factor, norm2


def run_cli(*argv):
    return cli.main(list(argv))


def test_generate_writes_complete_system(tmp_path):
    out = tmp_path / "sys"
    rc = run_cli("generate", "--domain", "square", "--divisions", "8", "--out", str(out))
    assert rc == 0
    for name in ("M.mtx", "K.mtx", "b0.txt", "mesh.txt", "params.json"):
        assert (out / name).exists()
    params = json.loads((out / "params.json").read_text())
    assert params["schema"] == "expmrect/params-v1"
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


@pytest.mark.parametrize("flag", ["--m", "--k", "--b"])
def test_generate_rejects_file_flags(tmp_path, flag):
    # generate builds its system from the generator flags alone, so a file
    # flag is a usage error, not silently ignored
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
    assert payload["schema"] == "expmrect/bound-v1"
    assert payload["lhp_certified"] is True
    assert payload["rectangle"]["mu_max"] < 0.0
    assert payload["kappa_safe"] >= payload["kappa_tilde"] > 1.0
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
    assert cert["schema"] == "expmrect/certificate-v1"
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


def test_expmv_requires_all_three_files(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("expmv", "--m", "only_m.mtx")


@pytest.mark.parametrize("command", ["bound", "expmv"])
def test_file_input_refuses_generator_flags(tmp_path, command):
    # the files fix the system, so a generator flag next to them would be
    # silently ignored; it is refused, naming the flags
    gen = tmp_path / "sys"
    run_cli("generate", "--domain", "square", "--divisions", "4", "--out", str(gen))
    files = ["--m", str(gen / "M.mtx"), "--k", str(gen / "K.mtx"), "--b", str(gen / "b0.txt")]
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as ei:
        run_cli(command, *files, "--divisions", "8", "--d", "1e-3", "--out", str(out))
    assert "--divisions, --d" in str(ei.value.code)
    assert not out.exists()
    assert run_cli(command, *files, "--out", str(out)) == 0


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
    # one enclosure per mode; only mode "ii" needs kappa(M)
    assert len(rows) == 8 and all(row["status"] == "ok" for row in rows)
    assert len(enclosures) == 2 and len(kappas) == 1


def test_sweep_kappa_column_is_kappa_safe_beyond_dense_cutoff(monkeypatch):
    # kappa_safe and kappa_tilde differ by the 1 / (1 - delta) margin at
    # every size, so the column must carry kappa_safe
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
    assert cert.kappa_safe != req.analysis.cond.kappa_tilde


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
    got = cli._reference(p, system.b0, seed=0)
    assert norm2(got - want) <= 1e-12 * norm2(want)


def test_reference_is_reproducible_and_leaves_numpy_state_alone():
    system, mesh = cli._build_system("square", 8, 8, 1e-1)
    p = Pencil(tau=mesh.h_bar, M=system.M, K=system.K)
    state = np.random.get_state()
    first = cli._reference(p, system.b0, seed=0)
    assert np.array_equal(cli._reference(p, system.b0, seed=0), first)
    after = np.random.get_state()
    assert all(np.array_equal(a, b) for a, b in zip(state, after))


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
    # each was NoConvergence after ARPACK had run; values >= 1 were accepted
    (("--rel-resid-tol", "0"), "rel_resid_tol must lie in (0, 1)"),
    (("--rel-resid-tol=-1e-3",), "rel_resid_tol must lie in (0, 1)"),
    (("--rel-resid-tol", "nan"), "rel_resid_tol must lie in (0, 1)"),
    (("--rel-resid-tol", "1"), "rel_resid_tol must lie in (0, 1)"),
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
])
def test_sweep_rejects_malformed_config(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ValueError: ") and message in err[0]
    assert not out.exists()


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
