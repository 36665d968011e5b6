"""Experiment orchestration: build, run across seeds, write artifacts.

The CSV schema is fixed and documented:
``experiment,algorithm,seed,k,suboptimality,grad_norm,min_grad_stat,clip_frac,eff_step``
with numbers serialized in full round-trip precision.  A JSON-lines
alternative carries the same fields.  Reports are written as text plus
machine-readable JSON-lines verdict records.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, parse_record
from .diagnostics import bound_envelope_check, fit_loglog_slope, strongly_convex_bound
from .errors import ConfigurationError
from .optimizers import (
    CSV_METRICS,
    TRACE_METRICS,
    OptimizerConfig,
    Schedule,
    Trace,
    average_traces,
    cclip_schedule,
    run_seeds,
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

CSV_COLUMNS = ("experiment", "algorithm", "seed", "k") + CSV_METRICS
CSV_HEADER = ",".join(CSV_COLUMNS)
TABLE_SUFFIX = {"csv": ".csv", "json-lines": ".jsonl", "jsonl": ".jsonl"}
_WRITE_BLOCK = 4096  # rows formatted at a time; bounds the writer's memory
_READ_BLOCK = 1 << 20  # bytes of lines read at a time; bounds the reader's memory
# The type of each CSV column in a TraceTable.
_COLUMN_DTYPES = {"experiment": object, "algorithm": object, "seed": np.int64, "k": np.int64,
                  **{m: np.float64 for m in CSV_METRICS}}


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
    return problem, x0


def build_schedule(
    cfg: ExperimentConfig, problem: StochasticProblem, x0: np.ndarray
) -> tuple[Schedule, dict]:
    s = cfg.schedule
    calibration: dict = {}
    rng = calibration_stream(cfg.master_seed)
    if s.kind == "constant":
        return Schedule(s.eta, s.tau), calibration
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
        sched = nonconvex_schedule(L, sigma, s.alpha, cfg.iterations, f0)
        calibration["eta"] = sched.eta
        calibration["tau"] = float(sched.tau)
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


def _cells(col: np.ndarray, fmt: str) -> list[str]:
    """The text of a block of a column: floats as ``repr`` (JSON spells the
    non-finite ones NaN/Infinity), ints as ints, and strings as they are in
    CSV, JSON-encoded once per distinct value otherwise."""
    vals = col.tolist()
    if col.dtype.kind == "f":
        cells = list(map(float.__repr__, vals))
        if fmt != "csv":
            for i in np.flatnonzero(~np.isfinite(col)).tolist():
                cells[i] = json.dumps(vals[i])
        return cells
    if col.dtype.kind in "iu":
        return list(map(int.__repr__, vals))
    if fmt == "csv":
        return vals
    encoded = {v: json.dumps(v) for v in set(vals)}
    return [encoded[v] for v in vals]


def write_table(path: Path, fmt: str, header, columns: list[np.ndarray]):
    """Write ``columns`` (arrays of floats, ints or str objects, one per
    ``header`` name) as CSV, or as the ``json.dumps(row, sort_keys=True)``
    lines of the rows for any other ``fmt``, _WRITE_BLOCK rows at a time.
    CSV carries a header line and floats in full round-trip precision."""
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ConfigurationError(f"{path}: table columns differ in length")
    # A row is prefixes[0] cell prefixes[1] cell ... end.
    if fmt == "csv":
        order, head, end = range(len(header)), ",".join(header) + "\n", "\n"
        prefixes = [""] + [","] * (len(header) - 1)
    else:
        order, head, end = sorted(range(len(header)), key=header.__getitem__), "", "}\n"
        prefixes = [("{" if i == 0 else ", ") + json.dumps(header[j]) + ": "
                    for i, j in enumerate(order)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for lo in range(0, n, _WRITE_BLOCK):
            parts = []
            for prefix, j in zip(prefixes, order):
                parts += [repeat(prefix), _cells(columns[j][lo:lo + _WRITE_BLOCK], fmt)]
            fh.write("".join(chain.from_iterable(zip(*parts, repeat(end)))))


class TraceTable(dict):
    """Trace columns by CSV column name, typed as _COLUMN_DTYPES says;
    ``len()`` is the row count."""

    def __len__(self) -> int:
        return len(self["k"])


def trace_table(experiment: str, traces: list[Trace]) -> TraceTable:
    """The rows of ``traces``, seeds ascending."""
    ts = sorted(traces, key=lambda t: t.seed)
    lengths = [len(t.ks) for t in ts]
    return TraceTable({
        # not np.full, which drops a str fill value's trailing NULs
        "experiment": np.repeat(np.array([experiment], dtype=object), sum(lengths)),
        "algorithm": np.repeat(np.array([t.algorithm for t in ts], dtype=object), lengths),
        "seed": np.repeat(np.array([t.seed for t in ts], dtype=np.int64), lengths),
        "k": np.concatenate([np.asarray(t.ks, dtype=np.int64) for t in ts]),
        **{m: np.concatenate([np.asarray(t.metric(m), dtype=float) for t in ts])
           for m in CSV_METRICS},
    })


def write_csv(path: Path, experiment: str, traces: list[Trace]):
    write_table(path, "csv", CSV_COLUMNS, list(trace_table(experiment, traces).values()))


def write_jsonl(path: Path, experiment: str, traces: list[Trace]):
    write_table(path, "json-lines", CSV_COLUMNS, list(trace_table(experiment, traces).values()))


def read_csv(path: Path) -> TraceTable:
    """Read a trace CSV as written by write_csv, about _READ_BLOCK bytes of
    lines at a time: a block's cells are split once, and each column takes
    them by stride.  Raises ConfigurationError for a header other than
    CSV_HEADER, a line without len(CSV_COLUMNS) cells or a cell its column
    cannot parse."""
    ncol = len(CSV_COLUMNS)
    parts: dict[str, list] = {name: [] for name in CSV_COLUMNS}
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != CSV_HEADER.encode():
            raise ConfigurationError(f"{path}: the header is not {CSV_HEADER}")
        for lines in iter(lambda: fh.readlines(_READ_BLOCK), []):
            bad = [i for i, line in enumerate(lines) if line.count(b",") != ncol - 1]
            if bad:
                line_no = 2 + sum(map(len, parts["k"])) + bad[0]
                raise ConfigurationError(f"{path}: line {line_no} does not have {ncol} cells")
            cells = b",".join(lines).split(b",")  # the last column keeps its newline
            for j, name in enumerate(CSV_COLUMNS):
                col = cells[j::ncol]
                try:
                    if _COLUMN_DTYPES[name] == object:  # one str per distinct value
                        col = list(map({c: c.decode() for c in set(col)}.__getitem__, col))
                    parts[name].append(np.array(col, dtype=_COLUMN_DTYPES[name]))
                except (ValueError, OverflowError) as exc:
                    raise ConfigurationError(f"{path}: column {name}: {exc}") from None
    return TraceTable({name: np.concatenate(parts[name] or [np.empty(0, _COLUMN_DTYPES[name])])
                       for name in CSV_COLUMNS})


def traces_from_rows(table: TraceTable) -> list[Trace]:
    """Per-seed traces, seeds ascending and each sorted by k.

    The CSV does not carry the running means, so those metrics are zeros.
    """
    order = np.lexsort((table["k"], table["seed"]))
    groups = np.split(order, np.flatnonzero(np.diff(table["seed"][order])) + 1)
    return [
        Trace(
            ks=table["k"][idx],
            **{m: table[m][idx] for m in CSV_METRICS},
            **{m: np.zeros(len(idx)) for m in TRACE_METRICS if m not in CSV_METRICS},
            seed=int(table["seed"][idx[0]]),
            algorithm=table["algorithm"][idx[0]],
        )
        for idx in groups
        if len(idx)
    ]


# ---------------------------------------------------------------------------
# Declared checks


def slope_verdict(
    criterion: str, mean_trace: Trace, metric: str, k_range: tuple[float, float],
    expect: float, tol: float,
) -> Verdict:
    """PASS when the log-log slope of the seed-mean metric is within tol of
    expect.  A non-finite seed-mean value inside k_range is a FAIL that names
    its k: the fit would drop it and could pass on the points left."""
    description = f"log-log slope of seed-mean {metric}"
    threshold = f"{expect:.4f} +- {tol}"
    ks, vals = mean_trace.ks, mean_trace.metric(metric)
    bad = ks[(ks >= k_range[0]) & (ks <= k_range[1]) & ~np.isfinite(vals)]
    if bad.size:
        return Verdict(criterion, description, f"non-finite value at k={bad[0]}", threshold, False)
    fit = fit_loglog_slope(mean_trace, metric, k_range)
    return Verdict(
        criterion=criterion,
        description=description,
        observed=f"{fit.slope:.4f} (r2={fit.r_squared:.3f})",
        threshold=threshold,
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
            non_finite += [ks[i] for i in (lo, hi) if not math.isfinite(vals[i])]
            denom = vals[lo]
            with np.errstate(invalid="ignore"):  # inf / inf; non_finite fails the check
                ratios.append(float(vals[hi] / denom) if denom != 0 else math.inf)
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
    out = Path(out_dir if out_dir is not None else ".")
    out.mkdir(parents=True, exist_ok=True)

    problem, x0 = build_problem(cfg)
    schedule, calibration = build_schedule(cfg, problem, x0)
    if cfg.problem.kind == "quadratic":
        calibration.setdefault("mu", cfg.problem.mu)
    opt = build_optimizer_config(cfg, schedule, x0, problem.domain is not None)
    traces = run_seeds(problem, opt, cfg.seeds, cfg.master_seed, parallel=parallel)

    paths = {"data": out / (cfg.outputs.csv or cfg.name + TABLE_SUFFIX[fmt])}
    write_table(paths["data"], fmt, CSV_COLUMNS, list(trace_table(cfg.name, traces).values()))

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
