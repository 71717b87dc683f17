"""The command line runs whose outputs are kept in ``tests/golden``.

``test_golden.py`` repeats these runs and compares their files byte for
byte with the kept ones. After a change that moves outputs on purpose,
rewrite the kept files with

    python tests/golden_runs.py

from the repository root; the diff of ``tests/golden`` then lists every
moved row and certificate. Each run is a fresh ``python -m expmrect.cli``
process on the package in ``src``, with one BLAS and OpenMP thread, since
the thread count can move a grid status.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

REFERENCE_SYSTEMS = {
    "square32-d0.1": {"domain": "square", "divisions": 32, "d": 0.1},
    "square32-d1e-3": {"domain": "square", "divisions": 32, "d": 0.001},
    "star4-d0.1": {"domain": "star", "refine": 4, "d": 0.1},
    "star4-d1e-3": {"domain": "star", "refine": 4, "d": 0.001},
}

# the 144-row grid, without --verify: measured_error moves with the
# reference's rounding, so it is left out
SWEEP_CONFIG = {
    "systems": list(REFERENCE_SYSTEMS.values()),
    "tau_factors": [1, 10, 30],
    "eps": [0.01, 1e-06, 1e-08],
    "methods": ["sub-pade", "rat-interp"],
    "modes": ["i", "ii"],
}


def _flags(system: dict) -> list[str]:
    return [arg for key, value in system.items() for arg in (f"--{key}", str(value))]


def runs(out: Path, config: Path) -> list[tuple[list[str], int]]:
    """(CLI arguments, expected exit code) of every run, in order; each
    writes under ``out``. The sweep reads its grid from ``config``."""
    files = out / "system-square8-d0.1"
    listed = [(["sweep", "--config", str(config), "--out", str(out / "sweep.csv")], 0)]
    listed += [(["bound", *_flags(system), "--out", str(out / f"bound-{name}")], 0)
               for name, system in REFERENCE_SYSTEMS.items()]
    listed += [
        (["expmv", *_flags(REFERENCE_SYSTEMS["square32-d0.1"]), "--tau-factor", "10",
          "--eps", "1e-6", "--method", "sub-pade", "--mode", "ii",
          "--out", str(out / "expmv-square32-d0.1-sub-pade-ii")], 0),
        (["expmv", *_flags(REFERENCE_SYSTEMS["star4-d1e-3"]), "--eps", "1e-6",
          "--method", "rat-interp", "--mode", "i",
          "--out", str(out / "expmv-star4-d1e-3-rat-interp-i")], 0),
        (["generate", "--divisions", "8", "--d", "0.1", "--out", str(files)], 0),
        (["expmv", "--m", str(files / "M.mtx"), "--k", str(files / "K.mtx"),
          "--b", str(files / "b0.txt"), "--tau-factor", "10", "--eps", "1e-6",
          "--method", "rat-interp", "--out", str(out / "expmv-file-rat-interp-ii")], 0),
        # a failure writes its context as the certificate
        (["expmv", *_flags(REFERENCE_SYSTEMS["square32-d1e-3"]), "--tau-factor", "30",
          "--eps", "1e-6", "--method", "sub-pade",
          "--out", str(out / "expmv-square32-d1e-3-sub-pade-fails")], 1),
    ]
    return listed


def run_all(out: Path) -> None:
    """Write every run's files under ``out``; raise if a run exits wrongly."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "sweep.json"
        config.write_text(json.dumps(SWEEP_CONFIG))
        for argv, code in runs(out, config):
            proc = subprocess.run([sys.executable, "-m", "expmrect.cli", *argv], env=env,
                                  capture_output=True, text=True)
            if proc.returncode != code:
                raise RuntimeError(f"expmrect {' '.join(argv)} exited {proc.returncode}, "
                                   f"not {code}:\n{proc.stderr}")


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by its relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp))
        shutil.rmtree(GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, GOLDEN)
    print(f"wrote {len(tree(GOLDEN))} files to {GOLDEN}")
