"""Acceptance suite: criteria A1-A11, each judged by the lines it prints.

A1-A4 and A10 are the checks the bundled configs in configs/ declare:
each checked config runs through ``run_experiment`` at its own scale and
every verdict it prints must PASS; ``tailclip run configs/<name>.cfg``
prints the observed margins; A1 and A2 also print their one line each
from the cached strongly_convex_alpha15 run.  A5, A7, A8 and A9 are each one subcommand
(PROBE_CRITERIA) run through ``cli.main``, and every verdict line it
prints must PASS.

Three criteria stay hand-built, each printing one line through ``criterion()``:

- A6 needs a comparison of two runs, which waits for ROADMAP item 5 and
  the benchmark change before it;
- A10's two extra conditions read ``avg_min_stat``, which the CSV does
  not carry;
- A11 checks the program (determinism and the algorithm reductions), not
  the paper.

The config runs and A6 carry the ``slow`` marker.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

from tailclip.cli import main
from tailclip.config import load_config
from tailclip.diagnostics import fit_loglog_slope
from tailclip.noise import NoiseSpec
from tailclip.optimizers import (
    OptimizerConfig,
    Schedule,
    cclip_schedule,
    run,
    run_seeds,
    strongly_convex_schedule,
)
from tailclip.problems import Ball, estimate_B, estimate_G, quadratic_problem
from tailclip.runner import calibration_stream, run_experiment

K = 10**5
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# The criterion ids each bundled config that declares checks must print.
EXPECTED_IDS = {
    "strongly_convex_alpha15": ["A1", "A2"],
    "strongly_convex_gaussian": ["A3"],
    "sgd_divergence": ["A4-sgd"],
    "gclip_stabilizes": ["A4-gclip"],
    "nonconvex_decay": ["A10"],
}
CHECKED = sorted(p.stem for p in CONFIGS.glob("*.cfg") if load_config(p).checks.active())


def criterion(cid: str, passed: bool, detail: str):
    print(f"[{cid}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def config_run(tmp_path_factory):
    """Run a bundled config once per module; later calls reuse its result."""
    results = {}

    def get(name):
        if name not in results:
            cfg = load_config(CONFIGS / f"{name}.cfg")
            results[name] = run_experiment(cfg, out_dir=tmp_path_factory.mktemp(name))
        return results[name]

    return get


def test_every_checked_config_has_expected_ids():
    assert CHECKED == sorted(EXPECTED_IDS)


@pytest.mark.slow
@pytest.mark.parametrize("name", CHECKED)
def test_config_verdicts(config_run, name):
    verdicts = config_run(name).report.verdicts
    for v in verdicts:
        print(v.line())
    assert sorted(v.criterion for v in verdicts) == sorted(EXPECTED_IDS.get(name, []))
    assert verdicts and all(v.passed for v in verdicts)


def config_verdict(config_run, name, cid):
    """The one verdict ``cid`` that the cached run of config ``name`` prints."""
    (verdict,) = [v for v in config_run(name).report.verdicts if v.criterion == cid]
    return verdict


@pytest.mark.slow
def test_a1_strongly_convex_heavy_tail_rate(config_run):
    v = config_verdict(config_run, "strongly_convex_alpha15", "A1")
    criterion("A1", v.passed, f"averaged-iterate slope {v.observed} vs {v.threshold}")


@pytest.mark.slow
def test_a2_strongly_convex_bound_envelope(config_run):
    v = config_verdict(config_run, "strongly_convex_alpha15", "A2")
    criterion("A2", v.passed, f"violations of the strongly convex bound: {v.observed} ({v.threshold})")


# The subcommand that decides each probe criterion, and how many verdict lines it prints.
PROBE_CRITERIA = {
    "A5": (["lemma-check", "--seed", "123"], 18),  # 5 variance and 5 bias bounds, 4 steps of each
    "A7": (["lowerbound", "--seed", "7"], 16),  # a mean and a moment check per eps x alpha x nu
    "A8": (["chain-check", "--seed", "42"], 6),
    "A9": (["sandwich", "--seed", "0"], 2),
}


@pytest.mark.parametrize("cid", sorted(PROBE_CRITERIA))
def test_probe_criterion(cid, tmp_path, capsys):
    argv, count = PROBE_CRITERIA[cid]
    code = main([*argv, "--out", str(tmp_path)])
    lines = [s for s in capsys.readouterr().out.splitlines() if s.startswith(("[PASS] ", "[FAIL] "))]
    for line in lines:
        print(f"{cid} {line}")
    assert code == 0
    assert len(lines) == count
    assert all(line.startswith("[PASS] ") for line in lines)


@pytest.mark.slow
def test_a6_cclip_beats_gclip_at_high_dimension():
    d, alpha, seeds = 100, 1.5, 30
    noise = NoiseSpec("stable", dimension=d, tail_index=1.55, scale=1.0)
    problem = quadratic_problem(1.0, d, 0.0, noise)
    x0 = np.full(d, 1.0)
    problem.domain = Ball(center=x0, radius=2.0 * float(np.linalg.norm(x0)))
    cal = calibration_stream(5)
    G = estimate_G(problem, x0, alpha, 2 * 10**5, cal)
    B = estimate_B(problem, x0, alpha, 2 * 10**5, cal)
    finals = {}
    for name, alg, sched in (
        ("gclip", "proj_gclip", strongly_convex_schedule(1.0, G, alpha)),
        ("cclip", "cclip", cclip_schedule(1.0, B, alpha)),
    ):
        cfg = OptimizerConfig(alg, sched, K, x0=x0, averaging=True, record=K)
        traces = run_seeds(problem, cfg, seeds, 5)
        finals[name] = np.array([t.suboptimality[-1] for t in traces])
    wins = int(np.sum(finals["cclip"] < finals["gclip"]))
    pval = binomtest(wins, seeds, 0.5, alternative="greater").pvalue
    mean_lower = finals["cclip"].mean() < finals["gclip"].mean()
    criterion(
        "A6",
        mean_lower and pval < 0.05,
        f"final subopt mean: cclip {finals['cclip'].mean():.4f} < gclip "
        f"{finals['gclip'].mean():.4f}; paired wins {wins}/{seeds}, sign test p={pval:.2e}",
    )


@pytest.mark.slow
def test_a10_nonconvex_decay(config_run):
    # Beyond the config's own A10 check (the seed-mean of per-seed ratios),
    # the ratio of seed-means must fall at least 2x and the slope be negative.
    mean = config_run("nonconvex_decay").mean_trace
    ks = list(mean.ks)
    ratio = float(mean.avg_min_stat[ks.index(1000)] / mean.avg_min_stat[ks.index(K)])
    fit = fit_loglog_slope(mean, "avg_min_stat", (1000, K))
    criterion(
        "A10",
        ratio >= 2.0 and fit.slope < 0.0,
        f"running mean of min(||grad||, ||grad||^2) shrinks {ratio:.1f}x from k=1e3 to 1e5; "
        f"slope {fit.slope:.3f} < 0",
    )


def test_a11_determinism_and_reductions(tmp_path):
    cfg_text = (
        "[experiment]\nname = det\nseeds = 3\nmaster_seed = 3\niterations = 500\n\n"
        "[problem]\nkind = quadratic\ndimension = 4\nmu = 1.0\nx0 = 1.0\n\n"
        "[noise]\nfamily = stable\ntail_index = 1.5\n\n"
        "[schedule]\nkind = constant\neta = 0.05\ntau = 2.0\n\n"
        "[optimizer]\nalgorithm = gclip\n"
    )
    path = tmp_path / "det.cfg"
    path.write_text(cfg_text)
    cfg = load_config(path)
    a = run_experiment(cfg, out_dir=tmp_path / "a", parallel=1)
    b = run_experiment(cfg, out_dir=tmp_path / "b", parallel=1)
    byte_identical = a.paths["data"].read_bytes() == b.paths["data"].read_bytes()

    noise = NoiseSpec("stable", dimension=3, tail_index=1.5)
    problem = quadratic_problem(1.0, 3, 0.0, noise)
    base = dict(iterations=1000, x0=1.0, record=13)
    t_sgd = run(problem, OptimizerConfig("sgd", Schedule(0.02), **base), 8)
    t_ac = run(
        problem,
        OptimizerConfig(
            "acclip", Schedule(0.02), beta1=0.0, beta2=0.0,
            acclip_alpha=1.0, epsilon=0.0, **base,
        ),
        8,
    )
    t_gc = run(problem, OptimizerConfig("gclip", Schedule(0.02, math.inf), **base), 8)
    fields = ("suboptimality", "grad_norm", "min_grad_stat", "clip_frac", "eff_step")
    acclip_equal = all(np.array_equal(t_sgd.metric(f), t_ac.metric(f)) for f in fields)
    gclip_equal = all(np.array_equal(t_sgd.metric(f), t_gc.metric(f)) for f in fields)
    criterion(
        "A11",
        byte_identical and acclip_equal and gclip_equal,
        f"byte-identical CSV: {byte_identical}; acclip(0,0,1,0) == sgd: {acclip_equal}; "
        f"gclip(inf) == sgd: {gclip_equal}",
    )
