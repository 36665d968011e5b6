"""Probe subcommands and experiment runs against committed golden output.

Each case runs one subcommand through ``cli.main`` from a fresh directory,
with ``--out`` relative so that the ``wrote`` and ``data`` lines are the
same wherever the test runs, and compares its stdout, exit code and every
file it writes byte for byte with ``tests/data/golden/<case>/``.  A run's
``wall_time_s`` line is dropped from its stdout and report before the
comparison, and a file over 64 KiB is kept in the golden copy as its
SHA-256 digest (``<name>.sha256``).

The run cases take 2 seeds, about 2,000 steps, one worker and small
calibration draws: the d = 1 float path, projected d = 1 and d = 5 runs
with averaging, an averaged nonconvex run recorded at every step, and
every algorithm.

The same cases run again with every pass fanned out to two worker
processes (the floor of noise.FAN_OUT_FLOOR lowered to 0) and must give
the same bytes; so must calibrations and a lemma-check large enough to make
several stream groups, and the A5 and A8 probes at their defaults, on one
worker and two.

To regenerate after a deliberate change of output, run from the repo root:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_golden()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from tailclip import noise
from tailclip.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DIGEST_ABOVE = 1 << 16  # bytes


def _run(config: str, *overrides: str) -> list[str]:
    args = ["run", str(CONFIGS / config), "--parallel", "1"]
    for override in overrides:
        args += ["-O", override]
    return args


_SHORT = ("experiment.seeds=2", "experiment.iterations=2000",
          "checks.ratio_k_hi=2000", "checks.ratio_k_lo=100")
_SMOKE = ("schedule.calibration_draws=2000",)

PROBES = {
    "lemma_check": ["lemma-check", "--n", "2e4", "--seed", "3"],
    # 140,000 draws make three stream groups, whose figures are folded
    "lemma_check_groups": ["lemma-check", "--n", "140000", "--seed", "3"],
    "chain_check": ["chain-check", "--points", "4000", "--seed", "3"],
    "noise_probe": ["noise-probe", "--n", "2e4", "--seed", "3"],
    "lowerbound": ["lowerbound", "--n", "2e4", "--seed", "3"],
    "report": ["report", "--csv", str(GOLDEN / "run_smoke" / "smoke.csv"),
               "--slope-expect", "-0.6667", "--kmin", "10"],
    "sandwich": ["sandwich", "--fuzz", "2e4", "--seed", "3"],
}
RUNS = {
    "run_smoke": _run("smoke.cfg", *_SMOKE),
    "run_sgd_divergence": _run("sgd_divergence.cfg", *_SHORT),
    # radius 0.5 about x0 = 1 excludes the optimum, so 1,595 of the 4,000 steps project
    "run_gclip_d1_ball": _run("sgd_divergence.cfg", *_SHORT, "problem.domain=ball",
                              "problem.radius=0.5", "optimizer.algorithm=gclip", "schedule.tau=1.0",
                              "optimizer.averaging=true"),
    "run_nonconvex_record1": [*_run("nonconvex_decay.cfg", *_SHORT, *_SMOKE,
                                    "optimizer.averaging=true", "optimizer.record=1"),
                              "--format", "json-lines"],
    "run_cclip": _run("smoke.cfg", *_SMOKE, "optimizer.algorithm=cclip", "schedule.kind=cclip",
                      "schedule.B=auto"),
    "run_acclip": _run("smoke.cfg", *_SMOKE, "optimizer.algorithm=acclip"),
    "run_adamlike": _run("smoke.cfg", *_SMOKE, "optimizer.algorithm=adamlike",
                         "problem.dimension=3"),
    "run_momentum_sgd": _run("smoke.cfg", *_SMOKE, "optimizer.algorithm=momentum_sgd",
                             "problem.dimension=3", "optimizer.record=25"),
}
CASES = {**PROBES, **RUNS}


def _mask(text: bytes) -> bytes:
    """``text`` without a ``wall_time_s`` line, the one part of a run's stdout
    and report that varies."""
    return b"".join(line for line in text.splitlines(keepends=True)
                    if not line.startswith(b"wall_time_s:"))


def run_case(name: str, workdir: Path, argv: list[str] | None = None) -> dict[str, bytes]:
    """Run one case from ``workdir``: {"stdout": ..., "exit_code": ..., file name: bytes}.
    ``argv`` replaces the case's own arguments."""
    cwd = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buf):
            code = main([*(CASES[name] if argv is None else argv), "--out", name])
    finally:
        os.chdir(cwd)
    files = {"stdout": buf.getvalue().encode(), "exit_code": f"{code}\n".encode()}
    out = workdir / name
    if out.is_dir():
        files.update({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return {fname: _mask(data) for fname, data in files.items()}


def _stored(files: dict[str, bytes]) -> dict[str, bytes]:
    """The golden form of ``files``: a file over DIGEST_ABOVE bytes becomes its digest."""
    stored = {}
    for name, data in files.items():
        if len(data) > DIGEST_ABOVE:
            name, data = f"{name}.sha256", f"{hashlib.sha256(data).hexdigest()}\n".encode()
        stored[name] = data
    return stored


def write_golden() -> None:
    """Rewrite tests/data/golden from the code on the import path."""
    with tempfile.TemporaryDirectory() as scratch:
        for name in CASES:
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for fname, data in _stored(run_case(name, Path(scratch))).items():
                (target / fname).write_bytes(data)


def check_case(name: str, tmp_path: Path, argv: list[str] | None = None) -> None:
    got = _stored(run_case(name, tmp_path, argv))
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from the golden copy"


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_output_matches_golden(name, tmp_path):
    check_case(name, tmp_path)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_output_matches_golden(name, tmp_path):
    check_case(name, tmp_path)


def two_workers(monkeypatch) -> None:
    """Fan every pass out, whatever its size, to two workers."""
    monkeypatch.setattr(noise, "FAN_OUT_FLOOR", 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def on_parallel(argv: list[str], workers: int) -> list[str]:
    i = argv.index("--parallel")
    return [*argv[:i + 1], str(workers), *argv[i + 2:]]


@pytest.mark.parametrize("name", ["chain_check", "lemma_check", "lemma_check_groups", "run_cclip",
                                  "run_smoke"])
def test_output_on_two_workers_matches_golden(name, tmp_path, monkeypatch):
    two_workers(monkeypatch)
    check_case(name, tmp_path, on_parallel(RUNS[name], 2) if name in RUNS else None)


@pytest.mark.parametrize("name", ["run_cclip", "run_nonconvex_record1", "run_smoke"])
def test_calibration_on_two_workers_writes_the_bytes_of_one(name, tmp_path, monkeypatch):
    # 140,000 draws make three stream groups, each a job of its own
    two_workers(monkeypatch)
    argv = [*RUNS[name], "-O", "schedule.calibration_draws=140000"]
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    assert run_case(name, one, on_parallel(argv, 1)) == run_case(name, two, on_parallel(argv, 2))


@pytest.mark.parametrize("argv", [["lemma-check", "--seed", "123"], ["chain-check", "--seed", "42"]],
                         ids=" ".join)
def test_acceptance_probes_print_the_same_bytes_on_one_and_two_workers(argv, tmp_path,
                                                                       monkeypatch):
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        (tmp_path / str(workers)).mkdir()
        runs.append(run_case("probe", tmp_path / str(workers), argv))
    assert runs[0] == runs[1]
