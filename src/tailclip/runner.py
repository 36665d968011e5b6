"""Experiment orchestration: build, run across seeds, write artifacts.

The CSV schema is fixed and documented:
``experiment,algorithm,seed,k,suboptimality,grad_norm,min_grad_stat,clip_frac,eff_step``
with numbers serialized in full round-trip precision.  A JSON-lines
alternative carries the same fields.  Reports are written as text plus
machine-readable JSON-lines verdict records.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, parse_record
from .diagnostics import (
    bound_envelope_check,
    cclip_bound,
    fit_loglog_slope,
    strongly_convex_bound,
)
from .errors import ConfigurationError
from .optimizers import (
    CSV_METRICS,
    TRACE_METRICS,
    OptimizerConfig,
    Schedule,
    Trace,
    average_traces,
    cclip_schedule,
    constant_schedule,
    run_seeds,
    nonconvex_schedule,
    strongly_convex_schedule,
)
from .problems import (
    Ball,
    Box,
    Interval,
    StochasticProblem,
    estimate_B,
    estimate_G,
    estimate_sigma,
    nonconvex_problem,
    quadratic_problem,
)
from .report import Report, Verdict

CSV_COLUMNS = ("experiment", "algorithm", "seed", "k") + CSV_METRICS
CSV_HEADER = ",".join(CSV_COLUMNS)
TABLE_SUFFIX = {"csv": ".csv", "json-lines": ".jsonl", "jsonl": ".jsonl"}

OUT_DIR_ENV = "TAILCLIP_OUT_DIR"


def calibration_stream(master_seed: int) -> np.random.Generator:
    """Seeded stream for empirical constant estimation, disjoint from the
    per-run streams regardless of how many seeds the experiment uses."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(918273,)))


def _broadcast(values: list[float], d: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return np.full(d, float(arr[0]))
    return arr.copy()


def build_problem(cfg: ExperimentConfig) -> tuple[StochasticProblem, np.ndarray]:
    p = cfg.problem
    d = p.dimension
    noise = cfg.noise.build(d)
    x_star = _broadcast(p.x_star, d)
    x0 = _broadcast(p.x0, d)
    if p.kind == "quadratic":
        problem = quadratic_problem(p.mu, d, x_star, noise)
    else:
        problem = nonconvex_problem(d, noise)
    if p.domain == "ball":
        if p.radius == "auto":
            radius = 2.0 * float(np.linalg.norm(x0 - x_star))
            if radius <= 0:
                radius = 1.0
        else:
            radius = float(p.radius)
        problem.domain = Ball(center=x0, radius=radius)
    elif p.domain == "box":
        lower = _broadcast(p.lower or [-1.0], d)
        upper = _broadcast(p.upper or [1.0], d)
        problem.domain = Box(lower=lower, upper=upper)
    elif p.domain == "interval":
        problem.domain = Interval(lo=p.lo, hi=p.hi)
    return problem, x0


def build_schedule(
    cfg: ExperimentConfig, problem: StochasticProblem, x0: np.ndarray
) -> tuple[Schedule, dict]:
    s = cfg.schedule
    calibration: dict = {}
    rng = calibration_stream(cfg.master_seed)
    if s.kind == "constant":
        return constant_schedule(s.eta, s.tau), calibration
    if s.kind == "nonconvex":
        L = problem.constants.L if s.L == "auto" else float(s.L)
        if L is None:
            raise ConfigurationError("[schedule] nonconvex needs L (problem has no constant)")
        if s.sigma == "auto":
            sigma = estimate_sigma(problem.noise, s.alpha, s.calibration_draws, rng)
            calibration["sigma"] = sigma
        else:
            sigma = float(s.sigma)
        if s.f0 == "auto":
            f_star = problem.optimum[1] if problem.optimum else 0.0
            f0 = problem.value(x0) - f_star
        else:
            f0 = float(s.f0)
        calibration.setdefault("f0", f0)
        sched = nonconvex_schedule(L, sigma, s.alpha, cfg.iterations, f0, variant=s.variant)
        calibration["eta"] = sched.eta_param
        calibration["tau"] = float(sched.tau_base)
        return sched, calibration
    if s.kind == "strongly_convex":
        mu = problem.constants.mu if s.mu == "auto" else float(s.mu)
        if mu is None:
            raise ConfigurationError("[schedule] strongly_convex needs mu (problem has no constant)")
        if s.G == "auto":
            G = estimate_G(problem, x0, s.alpha, s.calibration_draws, rng)
            calibration["G"] = G
        else:
            G = float(s.G)
        return strongly_convex_schedule(mu, G, s.alpha), calibration
    # cclip
    mu = problem.constants.mu if s.mu == "auto" else float(s.mu)
    if mu is None:
        raise ConfigurationError("[schedule] cclip needs mu (problem has no constant)")
    if isinstance(s.B, str):
        B = estimate_B(problem, x0, s.alpha, s.calibration_draws, rng)
        calibration["B_norm2"] = float(np.linalg.norm(B))
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
        acclip_warmup=o.warmup,
        record=parse_record(o.record),
    )


# ---------------------------------------------------------------------------
# Trace serialization


def write_table(path: Path, fmt: str, header, rows):
    """Write ``rows`` (lists in ``header`` order) as CSV or as JSON lines.

    CSV carries a header line and floats in full round-trip precision;
    any other ``fmt`` writes one JSON object per row with sorted keys.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "csv":
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
        else:
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")


def trace_rows(experiment: str, traces: list[Trace]):
    """One list per recorded point, in CSV_COLUMNS order, seeds ascending."""
    for t in sorted(traces, key=lambda t: t.seed):
        ks = np.asarray(t.ks, dtype=np.int64).tolist()
        cols = [np.asarray(t.metric(m), dtype=float).tolist() for m in CSV_METRICS]
        for k, *vals in zip(ks, *cols):
            yield [experiment, t.algorithm, t.seed, k, *vals]


def write_csv(path: Path, experiment: str, traces: list[Trace]):
    write_table(path, "csv", CSV_COLUMNS, trace_rows(experiment, traces))


def write_jsonl(path: Path, experiment: str, traces: list[Trace]):
    write_table(path, "json-lines", CSV_COLUMNS, trace_rows(experiment, traces))


def read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [
            {
                "experiment": raw["experiment"],
                "algorithm": raw["algorithm"],
                "seed": int(raw["seed"]),
                "k": int(raw["k"]),
                **{m: float(raw[m]) for m in CSV_METRICS},
            }
            for raw in csv.DictReader(fh)
        ]


def traces_from_rows(rows: list[dict]) -> list[Trace]:
    """Rebuild per-seed traces from serialized rows.

    The CSV does not carry the running means, so those metrics are zeros.
    """
    by_seed: dict[int, list[dict]] = {}
    for row in rows:
        by_seed.setdefault(row["seed"], []).append(row)
    traces = []
    for seed in sorted(by_seed):
        rs = sorted(by_seed[seed], key=lambda r: r["k"])
        traces.append(
            Trace(
                ks=np.array([r["k"] for r in rs], dtype=np.int64),
                **{m: np.array([r[m] for r in rs]) for m in CSV_METRICS},
                **{m: np.zeros(len(rs)) for m in TRACE_METRICS if m not in CSV_METRICS},
                seed=seed,
                algorithm=rs[0]["algorithm"],
                schedule="",
                problem=rs[0]["experiment"],
            )
        )
    return traces


# ---------------------------------------------------------------------------
# Declared checks


def slope_verdict(
    criterion: str, mean_trace: Trace, metric: str, k_range: tuple[float, float],
    expect: float, tol: float,
) -> Verdict:
    """PASS when the log-log slope of the seed-mean metric is within tol of expect."""
    fit = fit_loglog_slope(mean_trace, metric, k_range)
    return Verdict(
        criterion=criterion,
        description=f"log-log slope of seed-mean {metric}",
        observed=f"{fit.slope:.4f} (r2={fit.r_squared:.3f})",
        threshold=f"{expect:.4f} +- {tol}",
        passed=abs(fit.slope - expect) <= tol,
    )


def evaluate_checks(cfg: ExperimentConfig, traces: list[Trace], calibration: dict) -> list[Verdict]:
    c = cfg.checks
    verdicts: list[Verdict] = []
    if not c.active():
        return verdicts
    mean_trace = average_traces(traces, stat="mean")
    if c.slope_expect != "":
        kmax = c.slope_kmax if math.isfinite(c.slope_kmax) else float(cfg.iterations)
        verdicts.append(slope_verdict(c.slope_id or "slope", mean_trace, c.slope_metric,
                                      (c.slope_kmin, kmax), float(c.slope_expect), c.slope_tol))
    if c.envelope:
        s = cfg.schedule
        mu = calibration.get("mu", cfg.problem.mu if s.mu == "auto" else float(s.mu))
        if c.envelope == "strongly_convex":
            G = calibration.get("G", None if isinstance(s.G, str) else float(s.G))
            if G is None:
                raise ConfigurationError("[checks] envelope=strongly_convex needs the G constant")
            bound = strongly_convex_bound(mu, G, s.alpha)
        else:
            Bn = calibration.get("B_norm2")
            if Bn is None:
                if isinstance(s.B, str):
                    raise ConfigurationError("[checks] envelope=cclip needs the B constants")
                Bn = float(np.linalg.norm(np.asarray(s.B, dtype=float)))
            bound = cclip_bound(mu, np.array([Bn]), s.alpha)
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
        ratios = []
        for t in traces:
            ks = list(t.ks)
            try:
                hi = ks.index(c.ratio_k_hi)
                lo = ks.index(c.ratio_k_lo)
            except ValueError:
                raise ConfigurationError(
                    f"[checks] ratio ks {c.ratio_k_lo},{c.ratio_k_hi} are not recorded points"
                ) from None
            vals = t.metric(c.ratio_metric)
            denom = vals[lo]
            ratios.append(float(vals[hi] / denom) if denom != 0 else math.inf)
        stat = float(np.median(ratios)) if c.ratio_stat == "median" else float(np.mean(ratios))
        conditions = []
        passed = True
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
                observed=f"{stat:.4g}",
                threshold=" and ".join(conditions) or "none",
                passed=passed,
            )
        )
    return verdicts


# ---------------------------------------------------------------------------
# Top-level experiment execution


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    traces: list[Trace]
    report: Report
    paths: dict = field(default_factory=dict)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    fmt: str = "csv",
    parallel: int | None = None,
) -> ExperimentResult:
    t_start = time.perf_counter()
    if fmt not in TABLE_SUFFIX:
        raise ConfigurationError(f"unknown output format {fmt!r}")
    out = Path(out_dir if out_dir is not None else os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)

    problem, x0 = build_problem(cfg)
    schedule, calibration = build_schedule(cfg, problem, x0)
    if cfg.problem.kind == "quadratic":
        calibration.setdefault("mu", cfg.problem.mu)
    opt = build_optimizer_config(cfg, schedule, x0, problem.domain is not None)
    traces = run_seeds(problem, opt, cfg.seeds, cfg.master_seed, parallel=parallel)

    paths = {"data": out / (cfg.outputs.csv or cfg.name + TABLE_SUFFIX[fmt])}
    write_table(paths["data"], fmt, CSV_COLUMNS, trace_rows(cfg.name, traces))

    verdicts = evaluate_checks(cfg, traces, calibration)
    report = Report(
        experiment=cfg.name,
        version=__version__,
        master_seed=cfg.master_seed,
        wall_time_s=time.perf_counter() - t_start,
        verdicts=verdicts,
        calibration={k: float(v) for k, v in calibration.items()},
    )
    report_name = cfg.outputs.report or f"{cfg.name}.report.txt"
    paths["report"] = out / report_name
    paths["report"].write_text(report.render_text(), encoding="utf-8")
    paths["verdicts"] = out / f"{cfg.name}.verdicts.jsonl"
    paths["verdicts"].write_text(report.verdict_jsonl(), encoding="utf-8")
    if cfg.outputs.plots and fmt == "csv":
        from .plots import write_plot_script

        paths["plot"] = out / f"{cfg.name}.plot.py"
        write_plot_script(paths["plot"], paths["data"].name, cfg.name)
    return ExperimentResult(config=cfg, traces=traces, report=report, paths=paths)
