"""Experiment orchestration: build, run across seeds, write artifacts.

A run writes its traces as a trace table (``traces``), plus a text report
and machine-readable JSON-lines verdict records.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, parse_record
from .diagnostics import bound_envelope_check, fit_loglog_slope, strongly_convex_bound
from .errors import ConfigurationError
from .optimizers import (
    OptimizerConfig,
    Schedule,
    cclip_schedule,
    iter_seeds,
    nonconvex_schedule,
    strongly_convex_schedule,
)
from .problems import (
    Ball,
    StochasticProblem,
    estimate_B,
    estimate_G,
    estimate_sigma,
    nonconvex_problem,
    quadratic_problem,
)
from .report import Report, Verdict
from .traces import (  # the trace table functions perfbench/traced.py calls as runner.*
    CSV_COLUMNS,
    TABLE_SUFFIX,
    SeedMean,
    TableWriter,
    Trace,
    read_csv,
    trace_columns,
    traces_from_rows,
    write_csv,
    write_jsonl,
)


def calibration_stream(master_seed: int) -> np.random.Generator:
    """Seeded stream for empirical constant estimation, disjoint from the
    per-run streams regardless of how many seeds the experiment uses."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(918273,)))


def build_problem(cfg: ExperimentConfig) -> tuple[StochasticProblem, np.ndarray]:
    p = cfg.problem
    d = p.dimension
    noise = cfg.noise.build(d)
    x0 = np.broadcast_to(p.x0, d).astype(float)
    if p.kind == "quadratic":
        problem = quadratic_problem(p.mu, d, p.x_star, noise)
    else:
        problem = nonconvex_problem(d, noise)
    if p.domain == "ball":
        if p.radius == "auto":
            radius = 2.0 * float(np.linalg.norm(x0 - p.x_star))
            if radius <= 0:
                radius = 1.0
        else:
            radius = float(p.radius)
        problem.domain = Ball(center=x0, radius=radius)
    return problem, x0


def _check_estimate(key: str, name: str, value: float, draws: int, positive: bool = False):
    """Refuse ``value``, the estimate ``name`` of the ``auto`` constant
    ``key``, when it is not finite, or not positive where ``positive``."""
    if not math.isfinite(value) or positive and value <= 0.0:
        need = "finite and positive" if positive else "finite"
        raise ConfigurationError(f"[schedule] {key} = auto: {draws} calibration draws estimate "
                                 f"{name} = {value!r}, which must be {need}")


def build_schedule(
    cfg: ExperimentConfig, problem: StochasticProblem, x0: np.ndarray,
    workers: int | None = None,
) -> tuple[Schedule, dict]:
    """The schedule of cfg, its ``auto`` constants calibrated on up to
    ``workers`` processes (by default one per core), and the calibrated
    values.

    A constant is estimated only where something reads it: ``sigma`` by the
    nonconvex pair, ``B`` by the cclip schedule, and ``G`` by gclip and
    proj_gclip, whose threshold it scales, or by an envelope check.  Under
    ``kind = strongly_convex`` the other algorithms take the same step sizes
    with no threshold (tau = inf), and nothing is drawn.  An estimate that
    is not finite, or a G of 0, is refused."""
    s = cfg.schedule
    calibration: dict = {}
    rng = calibration_stream(cfg.master_seed)
    n = s.calibration_draws
    if s.kind == "constant":
        return Schedule(s.eta, s.tau), calibration
    if s.kind == "nonconvex":
        if s.sigma == "auto":
            sigma = estimate_sigma(problem.noise, s.alpha, n, rng, workers)
            _check_estimate("sigma", "sigma", sigma, n)
            calibration["sigma"] = sigma
        else:
            sigma = float(s.sigma)
        f0 = problem.value(x0) if s.f0 == "auto" else float(s.f0)
        calibration["f0"] = f0
        sched = nonconvex_schedule(problem.L, sigma, s.alpha, cfg.iterations, f0)
        calibration["eta"] = sched.eta
        calibration["tau"] = float(sched.tau)
        return sched, calibration
    mu = problem.mu  # validate_config refuses these kinds on a problem without mu
    if s.kind == "strongly_convex":
        if s.G != "auto":
            G = float(s.G)
        elif cfg.optimizer.algorithm in ("gclip", "proj_gclip") or cfg.checks.envelope:
            G = estimate_G(problem, x0, s.alpha, n, rng, workers)
            _check_estimate("G", "G", G, n, positive=True)
            calibration["G"] = G
        else:
            G = math.inf
        return strongly_convex_schedule(mu, G, s.alpha), calibration
    # cclip
    if isinstance(s.B, str):
        B = estimate_B(problem, x0, s.alpha, n, rng, workers)
        with np.errstate(over="ignore"):  # an overflowed norm is refused below
            calibration["B_norm2"] = float(np.linalg.norm(B))
        _check_estimate("B", "B_norm2", calibration["B_norm2"], n)
    else:
        B = np.asarray(s.B, dtype=float)
    return cclip_schedule(mu, B, s.alpha), calibration


def build_optimizer_config(
    cfg: ExperimentConfig, schedule: Schedule, x0: np.ndarray, has_domain: bool
) -> OptimizerConfig:
    o = cfg.optimizer
    return OptimizerConfig(
        algorithm=o.algorithm,
        schedule=schedule,
        iterations=cfg.iterations,
        x0=x0,
        beta1=o.beta1,
        beta2=o.beta2,
        acclip_alpha=o.acclip_alpha,
        epsilon=o.epsilon,
        averaging=o.averaging,
        project=has_domain,
        record=parse_record(o.record),
    )


# ---------------------------------------------------------------------------
# Declared checks


def slope_verdict(
    criterion: str, mean_trace: Trace, metric: str, k_range: tuple[float, float],
    expect: float, tol: float,
) -> Verdict:
    """PASS when the log-log slope of the seed-mean metric is within tol of
    expect.  A non-finite seed-mean value inside k_range is a FAIL that names
    its k: the fit would drop it and could pass on the points left.  So is a
    range of three or more recorded points with fewer than three positive."""
    description = f"log-log slope of seed-mean {metric}"
    threshold = f"{expect:.4f} +- {tol}"
    ks, vals = mean_trace.ks, mean_trace.metric(metric)
    in_range = (ks >= k_range[0]) & (ks <= k_range[1])
    bad = ks[in_range & ~np.isfinite(vals)]
    if bad.size:
        return Verdict(criterion, description, f"non-finite value at k={bad[0]}", threshold, False)
    n_in, n_pos = np.count_nonzero(in_range), np.count_nonzero(in_range & (vals > 0.0))
    if n_pos < 3 <= n_in:  # below 3 recorded points, fit_loglog_slope refuses the range
        return Verdict(criterion, description, f"{n_pos} of {n_in} points positive; the fit needs 3",
                       threshold, False)
    fit = fit_loglog_slope(mean_trace, metric, k_range)
    return Verdict(
        criterion=criterion,
        description=description,
        observed=f"{fit.slope:.4f} (r2={fit.r_squared:.3f})",
        threshold=threshold,
        passed=abs(fit.slope - expect) <= tol,
    )


class CheckFold:
    """What the declared checks read of a run's traces, taken one trace at a
    time: the seed-mean trace, and for a ratio check each seed's two values."""

    def __init__(self, checks):
        self.checks = checks
        self.mean = SeedMean()
        self.ratio_at: tuple[int, int] | None = None  # the ratio's (lo, hi) record indices
        self.ratio_values: list[tuple] = []  # each seed's (value at k_lo, value at k_hi)

    def add(self, trace: Trace) -> None:
        self.mean.add(trace)  # refuses record points that differ from the first trace's
        c = self.checks
        if not c.ratio_metric:
            return
        if self.ratio_at is None:
            ks = trace.ks.tolist()
            try:
                self.ratio_at = ks.index(c.ratio_k_lo), ks.index(c.ratio_k_hi)
            except ValueError:
                raise ConfigurationError(
                    f"[checks] ratio ks {c.ratio_k_lo},{c.ratio_k_hi} are not recorded points"
                ) from None
        vals = trace.metric(c.ratio_metric)
        self.ratio_values.append(tuple(vals[i] for i in self.ratio_at))

    def verdicts(self, cfg: ExperimentConfig, calibration: dict) -> list[Verdict]:
        c = self.checks
        verdicts: list[Verdict] = []
        if not c.active():
            return verdicts
        mean_trace = self.mean.mean()
        if c.slope_expect != "":
            kmax = c.slope_kmax if math.isfinite(c.slope_kmax) else float(cfg.iterations)
            verdicts.append(slope_verdict(c.slope_id or "slope", mean_trace, c.slope_metric,
                                          (c.slope_kmin, kmax), float(c.slope_expect), c.slope_tol))
        if c.envelope:
            s = cfg.schedule
            mu = cfg.problem.mu  # validate_config refuses the envelope on a problem without mu
            G = calibration.get("G", None if isinstance(s.G, str) else float(s.G))
            if G is None:
                raise ConfigurationError("[checks] envelope=strongly_convex needs the G constant")
            bound = strongly_convex_bound(mu, G, s.alpha)
            res = bound_envelope_check(mean_trace, bound, "suboptimality", k_min=c.envelope_kmin)
            verdicts.append(
                Verdict(
                    criterion=c.envelope_id or "envelope",
                    description=f"seed-mean suboptimality under the {c.envelope} bound (k >= {c.envelope_kmin})",
                    observed=f"{len(res.violations)} violations (max excess {res.max_excess:.3g})",
                    threshold="0 violations",
                    passed=res.passed,
                )
            )
        if c.ratio_metric:
            ratios, non_finite = [], []
            for lo, hi in self.ratio_values:
                non_finite += [k for k, v in zip((c.ratio_k_lo, c.ratio_k_hi), (lo, hi))
                               if not math.isfinite(v)]
                with np.errstate(invalid="ignore"):  # inf / inf; non_finite fails the check
                    ratios.append(float(hi / lo) if lo != 0 else math.inf)
            stat = float(np.median(ratios)) if c.ratio_stat == "median" else float(np.mean(ratios))
            conditions = []
            passed = not non_finite
            if c.ratio_min != "":
                conditions.append(f"> {float(c.ratio_min)}")
                passed = passed and stat > float(c.ratio_min)
            if c.ratio_max != "":
                conditions.append(f"<= {float(c.ratio_max)}")
                passed = passed and stat <= float(c.ratio_max)
            verdicts.append(
                Verdict(
                    criterion=c.ratio_id or "ratio",
                    description=(
                        f"seed-{c.ratio_stat} of {c.ratio_metric}[k={c.ratio_k_hi}] / [k={c.ratio_k_lo}]"
                    ),
                    observed=f"non-finite value at k={min(non_finite)}" if non_finite else f"{stat:.4g}",
                    threshold=" and ".join(conditions) or "none",
                    passed=passed,
                )
            )
        return verdicts


def evaluate_checks(cfg: ExperimentConfig, traces: Iterable[Trace], calibration: dict) -> list[Verdict]:
    """The verdicts of cfg's declared checks on ``traces``, folded one at a time."""
    if not cfg.checks.active():
        return []
    fold = CheckFold(cfg.checks)
    for trace in traces:
        fold.add(trace)
    return fold.verdicts(cfg, calibration)


# ---------------------------------------------------------------------------
# Top-level experiment execution


@dataclass
class ExperimentResult:
    mean_trace: Trace  # the seed-mean trace; per-seed rows are in paths["data"]
    report: Report
    paths: dict = field(default_factory=dict)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    fmt: str = "csv",
    parallel: int | None = None,
) -> ExperimentResult:
    """Run every seed of ``cfg`` and write its data, report and verdicts.
    ``parallel`` caps the worker processes of the calibration and the
    seeds; by default there is one per core.

    Each seed's trace is written as its own block of rows and folded into
    the checks as it arrives, then dropped, so memory does not grow with
    the seed count.  The data file appears only once every seed is written.
    """
    t_start = time.perf_counter()
    if fmt not in TABLE_SUFFIX:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    out = Path(out_dir if out_dir is not None else ".")
    out.mkdir(parents=True, exist_ok=True)

    problem, x0 = build_problem(cfg)
    schedule, calibration = build_schedule(cfg, problem, x0, parallel)
    if cfg.problem.kind == "quadratic":
        calibration.setdefault("mu", cfg.problem.mu)
    opt = build_optimizer_config(cfg, schedule, x0, problem.domain is not None)

    paths = {"data": out / (cfg.name + TABLE_SUFFIX[fmt])}
    fold = CheckFold(cfg.checks)
    with TableWriter(paths["data"], fmt, CSV_COLUMNS) as writer:
        for trace in iter_seeds(problem, opt, cfg.seeds, cfg.master_seed, parallel=parallel):
            writer.write(trace_columns(cfg.name, trace))
            fold.add(trace)
            del trace  # not alive while the next seed runs

    verdicts = fold.verdicts(cfg, calibration)
    report = Report(
        experiment=cfg.name,
        version=__version__,
        master_seed=cfg.master_seed,
        wall_time_s=time.perf_counter() - t_start,
        verdicts=verdicts,
        calibration={k: float(v) for k, v in calibration.items()},
    )
    paths.update(report.write(out, cfg.name))
    if cfg.outputs.plots and fmt == "csv":
        from .plots import write_plot_script

        paths["plot"] = out / f"{cfg.name}.plot.py"
        write_plot_script(paths["plot"], paths["data"].name, cfg.name)
    return ExperimentResult(mean_trace=fold.mean.mean(), report=report, paths=paths)
