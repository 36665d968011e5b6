"""Probe subcommands against committed golden output.

Each case runs one probe subcommand through ``cli.main`` at seed 3 from a
fresh directory, with ``--out`` relative so that the ``wrote`` line is the
same wherever the test runs, and compares its stdout, exit code and every
table it writes byte for byte with ``tests/data/golden/<case>/``.

To regenerate after a deliberate change of output, run from the repo root:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_golden()"
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from tailclip.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

CASES = {
    "lemma_check": ["lemma-check", "--n", "2e4", "--seed", "3"],
    "chain_check": ["chain-check", "--points", "4000", "--seed", "3"],
    "noise_probe": ["noise-probe", "--n", "2e4", "--seed", "3"],
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case from ``workdir``: {"stdout": ..., "exit_code": ..., table name: bytes}."""
    cwd = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buf):
            code = main([*CASES[name], "--out", name])
    finally:
        os.chdir(cwd)
    files = {"stdout": buf.getvalue().encode(), "exit_code": f"{code}\n".encode()}
    out = workdir / name
    if out.is_dir():
        files.update({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return files


def write_golden() -> None:
    """Rewrite tests/data/golden from the code on the import path."""
    with tempfile.TemporaryDirectory() as scratch:
        for name in CASES:
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for fname, data in run_case(name, Path(scratch)).items():
                (target / fname).write_bytes(data)


@pytest.mark.parametrize("name", sorted(CASES))
def test_probe_output_matches_golden(name, tmp_path):
    got = run_case(name, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from the golden copy"
