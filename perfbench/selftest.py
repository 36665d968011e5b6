"""Each reference check accepts tailclip's real outputs and rejects a corrupted one.

    python3 -m pytest perfbench/selftest.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it. It runs small configs (about ten seconds in all).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import verify  # noqa: E402
from workloads import read_config  # noqa: E402
from tailclip.cli import main as tailclip_main  # noqa: E402

SMOKE = BENCH.parent / "configs" / "smoke.cfg"
ACCLIP = BENCH / "configs" / "d100_acclip.cfg"
ACCLIP_SMALL = {"experiment.iterations": "400", "schedule.calibration_draws": "2000"}


def _run(tmp: Path, cfg: Path, overrides: dict | None = None) -> tuple[Path, dict]:
    argv = ["run", str(cfg), "--out", str(tmp), "--parallel", "1"]
    for key, value in (overrides or {}).items():
        argv += ["-O", f"{key}={value}"]
    assert tailclip_main(argv) in (0, 1)
    return tmp, read_config(cfg, overrides)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out, cfg = _run(tmp_path_factory.mktemp("smoke"), SMOKE)
    rows = checks.read_trace_csv(out / "smoke.csv")
    G = checks.read_calibration(out / "smoke.report.txt")["G"]
    return cfg, rows, G, int(cfg["experiment.master_seed"])


@pytest.fixture(scope="module")
def acclip(tmp_path_factory):
    out, cfg = _run(tmp_path_factory.mktemp("acclip"), ACCLIP, ACCLIP_SMALL)
    return cfg, checks.read_trace_csv(out / "d100_acclip.csv"), int(cfg["experiment.master_seed"])


def test_replay_matches_proj_gclip_rows(smoke):
    cfg, rows, G, master = smoke
    assert checks.matches_replay(rows[0], checks.replay(cfg, master, 0, G))


def test_replay_rejects_a_perturbed_csv_value(smoke):
    cfg, rows, G, master = smoke
    bad = {f: v.copy() for f, v in rows[0].items()}
    bad["suboptimality"][len(bad["k"]) // 2] *= 1 + 1e-8
    assert not checks.matches_replay(bad, checks.replay(cfg, master, 0, G))


def test_replay_rejects_swapped_seed_rows(smoke):
    cfg, rows, G, master = smoke
    assert not checks.matches_replay(rows[1], checks.replay(cfg, master, 0, G))


def test_calibrated_G_matches_and_rejects_a_wrong_G(smoke):
    cfg, rows, G, master = smoke
    want = checks.calibrated_G(checks.Instance(cfg), master)
    assert checks.close(G, want)
    assert not checks.close(G * (1 + 1e-8), want)
    assert not checks.matches_replay(rows[0], checks.replay(cfg, master, 0, G * 1.01))


def test_replay_matches_acclip_and_rejects_a_perturbed_value(acclip):
    cfg, rows, master = acclip
    ref = checks.replay(cfg, master, 0)
    assert checks.matches_replay(rows[0], ref)
    bad = {f: v.copy() for f, v in rows[0].items()}
    bad["eff_step"][-1] *= 1 + 1e-8
    assert not checks.matches_replay(bad, ref)


@pytest.mark.parametrize("family,dimension", [("stable", 1), ("pareto", 1), ("gaussian", 10)])
def test_histogram_fits_its_family_and_rejects_another(tmp_path, family, dimension):
    assert tailclip_main(["noise-probe", "--family", family, "--dimension", str(dimension),
                          "--n", "1e5", "--seed", "3", "--out", str(tmp_path)]) == 0
    hist = np.loadtxt(tmp_path / "noise_probe_histogram.csv", delimiter=",", skiprows=1)
    fit = checks.histogram_pvalue(hist[:, 0], hist[:, 1], hist[:, 2], 10**5,
                                  checks.norm_cdf(family, dimension, 1.5))
    assert fit > 1e-6
    other = {"stable": ("pareto", 1), "pareto": ("stable", 1), "gaussian": ("gaussian", 9)}[family]
    wrong = checks.histogram_pvalue(hist[:, 0], hist[:, 1], hist[:, 2], 10**5,
                                    checks.norm_cdf(*other, 1.5))
    assert wrong < 1e-6


def _report_text(slope: str, r2: str = "0.734") -> str:
    return ("experiment: strongly_convex_alpha15\nversion: 0.1.0\nmaster_seed: 0\nwall_time_s: 0.00\n"
            "checks:\n  [FAIL] slope: log-log slope of seed-mean suboptimality "
            f"(observed {slope} (r2={r2}), require -0.6667 +- 0.15)\nresult: FAIL\n")


@pytest.mark.parametrize("slope", ["-1.2292", "-0.7200"])
def test_report_check_holds_for_the_equal_weight_and_a_mended_fit(slope):
    # -1.23 is today's fit of every recorded step; -0.72 is what a fit that
    # weights the log grid gives on the same trajectories.
    _, ok, correct = verify.report_op(_report_text(slope), "strongly_convex_alpha15")
    assert ok and correct


@pytest.mark.parametrize("slope,r2", [("nan", "0.734"), ("0.5000", "0.734"), ("-0.7200", "1.500")])
def test_report_check_rejects_a_broken_fit(slope, r2):
    _, ok, correct = verify.report_op(_report_text(slope, r2), "strongly_convex_alpha15")
    assert not ok and not correct
