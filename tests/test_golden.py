"""The CLI's outputs are byte for byte the kept ones in ``tests/golden``.

The kept files are the 144-row grid (modes i and ii, without --verify),
``bound --out`` of the four reference systems, and the files of four
``expmv`` runs: one in mode i, one from file input (with the ``generate``
output it reads) and one that fails. ``golden_runs.py`` lists the runs and
rewrites the files.

The comparison is exact, so it holds only where the files were made: on
x86-64 at one BLAS and OpenMP thread. OpenBLAS picks its kernels per CPU,
and the greedy fit turns a last-bit change into another degree, so on
another CPU some rows may differ. Regenerate there before you trust a diff.
"""
from __future__ import annotations

import difflib

from golden_runs import GOLDEN, run_all, tree


def test_cli_outputs_match_the_golden_files(tmp_path):
    run_all(tmp_path)
    want, got = tree(GOLDEN), tree(tmp_path)
    assert sorted(got) == sorted(want), "the runs wrote another set of files"
    report = []
    for name in sorted(want):
        if got[name] != want[name]:
            lines = difflib.unified_diff(want[name].decode().splitlines(),
                                         got[name].decode().splitlines(),
                                         f"golden/{name}", f"now/{name}", n=0, lineterm="")
            report += [f"{name} differs:", *list(lines)[:60]]
    print("\n".join(report))
    assert not report, f"{sum(r.endswith(' differs:') for r in report)} files differ"
